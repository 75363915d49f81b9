/**
 * @file
 * Differential consistency harness: pairs of runs the repo claims are
 * equivalent really are, field by field.
 *
 *  - runMultiChannel(channels=1) vs the single-network Simulator;
 *  - obs-on vs obs-off;
 *  - audit-on vs audit-off;
 *  - host profiler enabled vs disabled;
 *  - parallel sweep (--jobs style) vs serial execution;
 *  - a sweep killed mid-run and resumed from its journal vs the same
 *    sweep uninterrupted.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "audit/differential.hh"
#include "memnet/journal.hh"
#include "memnet/parallel.hh"
#include "memnet/simulator.hh"
#include "obs/prof.hh"

namespace memnet
{
namespace
{

SystemConfig
shortConfig(TopologyKind topo, Policy p)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.topology = topo;
    cfg.policy = p;
    cfg.mechanism = p == Policy::FullPower ? BwMechanism::None
                                           : BwMechanism::Vwl;
    cfg.roo = p != Policy::FullPower;
    cfg.warmup = us(50);
    cfg.measure = us(150);
    cfg.epochLen = us(30);
    if (p == Policy::StaticTaper)
        cfg.interleavePages = true;
    return cfg;
}

constexpr TopologyKind kTopologies[] = {
    TopologyKind::DaisyChain, TopologyKind::TernaryTree,
    TopologyKind::Star, TopologyKind::DdrxLike};
constexpr Policy kPolicies[] = {Policy::FullPower, Policy::Unaware,
                                Policy::Aware, Policy::StaticTaper};

TEST(Differential, OneChannelEqualsSingleNetworkEverywhere)
{
    // The strongest multichannel claim: with one channel both build the
    // same system, so the collectors must agree on every aggregate and
    // observatory output, for every topology x policy pair.
    for (TopologyKind t : kTopologies) {
        for (Policy p : kPolicies) {
            const SystemConfig cfg = shortConfig(t, p);
            MultiChannelConfig mc;
            mc.base = cfg;
            mc.channels = 1;
            mc.spread = ChannelSpread::InterleaveLines;

            const MultiChannelResult m = runMultiChannel(mc);
            const RunResult s = runSimulation(cfg);
            const auto diffs = audit::diffMultiVsSingle(m, s);
            EXPECT_TRUE(diffs.empty())
                << topologyName(t) << "/" << policyName(p) << "\n"
                << audit::describeDiffs(diffs);
        }
    }
}

TEST(Differential, PartitionSpreadAlsoEqualsSingleNetwork)
{
    const SystemConfig cfg =
        shortConfig(TopologyKind::Star, Policy::Aware);
    MultiChannelConfig mc;
    mc.base = cfg;
    mc.channels = 1;
    mc.spread = ChannelSpread::Partition;
    const auto diffs =
        audit::diffMultiVsSingle(runMultiChannel(mc),
                                 runSimulation(cfg));
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(Differential, ObservabilityOnEqualsOff)
{
    SystemConfig bare = shortConfig(TopologyKind::Star, Policy::Aware);
    SystemConfig obs = bare;
    obs.obs.statsJsonPath = "diff_obs_stats.json";
    obs.obs.epochJsonlPath = "diff_obs_epochs.jsonl";

    const auto diffs =
        audit::diffRunResults(runSimulation(bare), runSimulation(obs));
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
    std::remove("diff_obs_stats.json");
    std::remove("diff_obs_epochs.jsonl");
}

TEST(Differential, AuditOnEqualsOff)
{
    SystemConfig bare = shortConfig(TopologyKind::Star, Policy::Aware);
    SystemConfig audited = bare;
    audited.audit = true;

    const auto diffs = audit::diffRunResults(runSimulation(bare),
                                             runSimulation(audited));
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(Differential, ProfilingOnEqualsOff)
{
    // The host-side profiler reads clocks and writes thread_local
    // memory only, so every simulation-determined field — including
    // the new event-queue health counters — must be bit-identical
    // with it on or off. Only wallSeconds/profPhases (excluded from
    // diffRunResults) may differ.
    const SystemConfig cfg =
        shortConfig(TopologyKind::Star, Policy::Aware);
    const RunResult off = runSimulation(cfg);

    prof::reset();
    prof::setEnabled(true);
    const RunResult on = runSimulation(cfg);
    prof::setEnabled(false);

    const auto diffs = audit::diffRunResults(off, on);
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);

    // And the profiled run actually carried phase data.
    EXPECT_FALSE(on.profile.profPhases.empty());
    EXPECT_TRUE(off.profile.profPhases.empty());
}

TEST(Differential, ParallelSweepEqualsSerial)
{
    std::vector<SystemConfig> configs;
    for (TopologyKind t : kTopologies) {
        SystemConfig cfg = shortConfig(t, Policy::Aware);
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            cfg.seed = seed;
            configs.push_back(cfg);
        }
    }

    Runner serial;
    for (const SystemConfig &cfg : configs)
        serial.get(cfg);

    Runner parallel_cache;
    ParallelRunner pool(parallel_cache, 4);
    pool.run(configs);

    for (const SystemConfig &cfg : configs) {
        const auto diffs = audit::diffRunResults(
            serial.get(cfg), parallel_cache.get(cfg));
        EXPECT_TRUE(diffs.empty())
            << cfg.describe() << " seed " << cfg.seed << "\n"
            << audit::describeDiffs(diffs);
    }
}

TEST(Differential, ResumedSweepEqualsUninterrupted)
{
    // The crash-safety equivalence behind --journal/--resume: a sweep
    // interrupted partway (here: only part of it journaled) and then
    // resumed must match the uninterrupted sweep on every
    // simulation-determined field of every config.
    std::vector<SystemConfig> configs;
    for (TopologyKind t : kTopologies)
        configs.push_back(shortConfig(t, Policy::Aware));

    const std::string path =
        ::testing::TempDir() + "/differential_resume.jsonl";

    Runner uninterrupted;
    {
        RunJournal journal(path);
        ASSERT_TRUE(journal.open());
        uninterrupted.setJournal(&journal);
        // "Crash" after the first half: later configs never journal.
        for (std::size_t i = 0; i < configs.size() / 2; ++i)
            uninterrupted.get(configs[i]);
        uninterrupted.setJournal(nullptr);
    }
    for (const SystemConfig &cfg : configs)
        uninterrupted.get(cfg);

    Runner resumed;
    std::map<std::string, RunResult> pool;
    ASSERT_TRUE(loadJournal(path, &pool, nullptr, nullptr));
    resumed.addResumePool(std::move(pool));
    for (const SystemConfig &cfg : configs)
        resumed.get(cfg);

    EXPECT_EQ(resumed.runsExecuted(),
              static_cast<int>(configs.size() - configs.size() / 2));
    const auto diffs = audit::diffResultMaps(uninterrupted.results(),
                                             resumed.results());
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(Differential, DiffResultMapsFlagsMissingAndDifferingKeys)
{
    Runner runner;
    const SystemConfig cfg = shortConfig(TopologyKind::Star,
                                         Policy::FullPower);
    const RunResult &r = runner.get(cfg);
    const std::string k = Runner::key(cfg);

    std::map<std::string, RunResult> a{{k, r}};
    std::map<std::string, RunResult> b; // empty
    auto diffs = audit::diffResultMaps(a, b);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].field, "only_in_a:" + k);

    diffs = audit::diffResultMaps(b, a);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].field, "only_in_b:" + k);

    RunResult tweaked = r;
    tweaked.completedReads += 1;
    b = {{k, tweaked}};
    diffs = audit::diffResultMaps(a, b);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].field, k + ": completed_reads");

    EXPECT_TRUE(audit::diffResultMaps(a, a).empty());
}

/** The names of @p diffs, in the order diffRunResults reported them. */
std::vector<std::string>
diffFields(const std::vector<audit::DiffEntry> &diffs)
{
    std::vector<std::string> names;
    for (const audit::DiffEntry &e : diffs)
        names.push_back(e.field);
    return names;
}

/**
 * Change the scalar @p f points at, a member of a non-const RunResult:
 * flip a bool, step a number up.
 */
void
bump(ConstFieldRef f)
{
    std::visit(
        [](auto *c) {
            using T = std::remove_const_t<std::remove_pointer_t<decltype(c)>>;
            T *p = const_cast<T *>(c);
            if constexpr (std::is_same_v<T, bool>)
                *p = !*p;
            else if constexpr (std::is_floating_point_v<T>)
                *p = std::nextafter(*p, std::numeric_limits<T>::infinity());
            else
                *p += 1;
        },
        f);
}

TEST(Differential, EveryJournaledScalarIsComparedOrSkipped)
{
    // Every equivalence test above covers a field only because
    // diffRunResults looks at it: bumping the k-th scalar the journal
    // records, for every k, must surface under exactly that scalar's
    // path, unless the path is on the differ's skip list.
    const RunResult r =
        runSimulation(shortConfig(TopologyKind::Star, Policy::Aware));
    ASSERT_TRUE(r.latency.enabled);
    ASSERT_TRUE(r.energy.enabled);
    ASSERT_FALSE(r.modules.empty());
    ASSERT_FALSE(r.profile.dispatchWindows.empty());
    EXPECT_TRUE(audit::diffRunResults(r, r).empty());

    std::vector<std::string> paths;
    forEachResultField(r, [&paths](const std::string &p, ConstFieldRef) {
        paths.push_back(p);
    });
    std::vector<std::string> skipped;
    for (std::size_t k = 0; k < paths.size(); ++k) {
        RunResult tweaked = r;
        std::size_t i = 0;
        forEachResultField(tweaked,
                           [&](const std::string &, ConstFieldRef f) {
                               if (i++ == k)
                                   bump(f);
                           });
        const auto diffs = audit::diffRunResults(r, tweaked);
        if (diffs.empty())
            skipped.push_back(paths[k]);
        else
            EXPECT_EQ(diffFields(diffs), std::vector<std::string>{paths[k]})
                << audit::describeDiffs(diffs);
    }
    // Only the skip list's paths go unreported (the kernel counters
    // are compared here: both runs used one partition).
    EXPECT_EQ(skipped, (std::vector<std::string>{
                           "latency.enabled", "energy.enabled",
                           "profile.wall_s", "profile.audit_checks_run"}));
}

TEST(Differential, DescribeDiffsPrintsValuesExactly)
{
    // 2^61 + 7 and its successor round to the same double.
    RunResult a;
    a.completedReads = (1ULL << 61) + 7;
    a.idleIoFrac = 0.1;
    RunResult b = a;
    b.completedReads += 1;
    b.idleIoFrac = std::nextafter(0.1, 1.0);
    EXPECT_EQ(audit::describeDiffs(audit::diffRunResults(a, b)),
              "idle_io_frac: 0.1 != 0.10000000000000002\n"
              "completed_reads: 2305843009213693959 != "
              "2305843009213693960\n");
}

TEST(Differential, ObservatoryAbsentOnOneSideIsNotCompared)
{
    // A record loaded from a journal written before an observatory
    // existed carries enabled == false and empty fields; comparing it
    // with a fresh run must not report the missing data as a mismatch.
    const RunResult fresh =
        runSimulation(shortConfig(TopologyKind::Star, Policy::Aware));
    RunResult old = fresh;
    old.latency = LatencyBreakdown{};
    old.energy = EnergySummary{};

    EXPECT_TRUE(audit::diffRunResults(fresh, old).empty());
    EXPECT_TRUE(audit::diffRunResults(old, fresh).empty());
}

TEST(Differential, MultiVsSingleComparesAggregatesAndObservatories)
{
    // diffMultiVsSingle compares through the journal's field list, so a
    // change to an aggregate or to either observatory of the
    // multi-channel side surfaces under that field's journal path.
    const SystemConfig cfg =
        shortConfig(TopologyKind::Star, Policy::Aware);
    MultiChannelConfig mc;
    mc.base = cfg;
    mc.channels = 1;
    MultiChannelResult m = runMultiChannel(mc);
    const RunResult s = runSimulation(cfg);
    ASSERT_TRUE(audit::diffMultiVsSingle(m, s).empty());

    m.totalModules += 1;
    m.channelUtil[0] += 1.0;
    m.latency.queuePeak += 1;
    m.energy.attribution.txJ += 1.0;
    const auto diffs = audit::diffMultiVsSingle(m, s);
    EXPECT_EQ(diffFields(diffs),
              (std::vector<std::string>{"num_modules", "channel_util",
                                        "latency.queue_peak",
                                        "energy.tx_j"}))
        << audit::describeDiffs(diffs);
}

TEST(ChannelRemap, InterleavePreservesSubLineOffset)
{
    const ChannelRemap remap(4, ChannelSpread::InterleaveLines,
                             1ULL << 30);
    // Regression: the old remap dropped addr % 64, folding every access
    // onto its line base.
    const ChannelRemap::Target t = remap.map(64 * 7 + 13);
    EXPECT_EQ(t.channel, 3);      // line 7 -> channel 7 % 4
    EXPECT_EQ(t.local % 64, 13u); // offset must survive
    EXPECT_EQ(t.local, (7u / 4) * 64 + 13);
}

TEST(ChannelRemap, RoundTripsBothSpreadsNonDividingFootprint)
{
    // 13 GB over 4 channels: footprint divides by neither the channel
    // count nor the partition size — the regression case for the old
    // clamped partition remap.
    const std::uint64_t total = 13ULL << 30;
    for (ChannelSpread s :
         {ChannelSpread::InterleaveLines, ChannelSpread::Partition}) {
        const ChannelRemap remap(4, s, total);
        const std::vector<std::uint64_t> addrs = {
            0, 63, 64, 64 * 4 - 1, (3ULL << 30) + 177,
            remap.partitionBytes() - 1, remap.partitionBytes(),
            remap.partitionBytes() * 3 + 12345, total - 64, total - 1};
        for (std::uint64_t addr : addrs) {
            const ChannelRemap::Target t = remap.map(addr);
            ASSERT_GE(t.channel, 0);
            ASSERT_LT(t.channel, 4);
            if (s == ChannelSpread::Partition) {
                EXPECT_LT(t.local, remap.partitionBytes());
            }
            EXPECT_EQ(remap.unmap(t.channel, t.local), addr)
                << channelSpreadName(s) << " addr " << addr;
        }
    }
}

TEST(ChannelRemap, PartitionNeverClampsInRangeAddresses)
{
    // partBytes * channels >= total, so the last in-range address maps
    // into the last channel *by division*, not by a clamp; the old code
    // could fold out-of-range addresses into channel C-1 with
    // local >= partBytes.
    const std::uint64_t total = (13ULL << 30) + 4096; // odd tail
    const ChannelRemap remap(4, ChannelSpread::Partition, total);
    const ChannelRemap::Target last = remap.map(total - 1);
    EXPECT_LT(last.local, remap.partitionBytes());
    EXPECT_EQ(last.channel, static_cast<int>(
                                (total - 1) / remap.partitionBytes()));
}

TEST(ChannelRemapDeath, OutOfRangeAddressDies)
{
    const ChannelRemap remap(4, ChannelSpread::Partition, 1ULL << 30);
    EXPECT_DEATH(remap.map(1ULL << 30), "outside");
}

} // namespace
} // namespace memnet
