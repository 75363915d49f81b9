/**
 * @file
 * Tests for the parallel sweep engine: bit-identical results versus
 * serial execution, concurrent cache deduplication, collect mode, and
 * thread-safe logging under worker contention.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/parallel.hh"
#include "sim/log.hh"

namespace memnet
{
namespace
{

/** A small but heterogeneous sweep (3 workloads x 2 topologies). */
std::vector<SystemConfig>
sweepConfigs()
{
    std::vector<SystemConfig> v;
    for (const char *wl : {"mixA", "mixB", "mixE"}) {
        for (TopologyKind topo :
             {TopologyKind::Star, TopologyKind::DaisyChain}) {
            SystemConfig cfg;
            cfg.workload = wl;
            cfg.topology = topo;
            cfg.policy = Policy::Unaware;
            cfg.mechanism = BwMechanism::Vwl;
            cfg.warmup = us(10);
            cfg.measure = us(50);
            v.push_back(cfg);
        }
    }
    return v;
}

/**
 * Full bench JSON with wall_s (the one documented nondeterministic
 * field) masked out, so byte comparison checks everything else.
 */
std::string
jsonWithoutWallClock(const Runner &runner)
{
    std::ostringstream os;
    writeBenchResultsJson(os, "parallel_test", runner.results());
    return std::regex_replace(os.str(),
                              std::regex("\"wall_s\":[^,}]+"),
                              "\"wall_s\":0");
}

TEST(ResolveJobs, ClampsAndExpandsZero)
{
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_EQ(resolveJobs(-3), 1);
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
}

TEST(ParallelRunner, MatchesSerialByteForByte)
{
    const std::vector<SystemConfig> configs = sweepConfigs();

    Runner serial;
    for (const SystemConfig &cfg : configs)
        serial.get(cfg);

    Runner parallel;
    ParallelRunner(parallel, 8).run(configs);

    EXPECT_EQ(serial.runsExecuted(), parallel.runsExecuted());
    EXPECT_EQ(jsonWithoutWallClock(serial),
              jsonWithoutWallClock(parallel));
}

TEST(ParallelRunner, DeduplicatesRepeatedConfigs)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.warmup = us(10);
    cfg.measure = us(50);

    std::vector<SystemConfig> batch(16, cfg);
    Runner runner;
    ParallelRunner(runner, 8).run(batch);
    EXPECT_EQ(runner.runsExecuted(), 1);
    EXPECT_EQ(runner.results().size(), 1u);
}

TEST(Runner, ConcurrentSameConfigRunsOnce)
{
    SystemConfig cfg;
    cfg.workload = "mixA";
    cfg.warmup = us(10);
    cfg.measure = us(50);

    Runner runner;
    std::vector<const RunResult *> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back(
            [&runner, &cfg, &seen, t] { seen[t] = &runner.get(cfg); });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(runner.runsExecuted(), 1);
    for (const RunResult *r : seen)
        EXPECT_EQ(r, seen[0]); // all callers share the cached slot
}

TEST(Runner, CollectModeRecordsInsteadOfRunning)
{
    const std::vector<SystemConfig> configs = sweepConfigs();

    Runner runner;
    runner.beginCollect();
    for (const SystemConfig &cfg : configs) {
        const RunResult &r = runner.get(cfg);
        EXPECT_EQ(r.completedReads, 0u); // zeroed placeholder
    }
    runner.get(configs.front()); // duplicate: must not record twice
    const std::vector<SystemConfig> pending = runner.endCollect();

    EXPECT_EQ(pending.size(), configs.size());
    EXPECT_EQ(runner.runsExecuted(), 0);
    for (std::size_t i = 0; i < pending.size(); ++i)
        EXPECT_EQ(Runner::key(pending[i]), Runner::key(configs[i]));

    // Replays after the parallel pass hit the warm cache.
    ParallelRunner(runner, 4).run(pending);
    EXPECT_EQ(runner.runsExecuted(),
              static_cast<int>(configs.size()));
    const RunResult &real = runner.get(configs.front());
    EXPECT_GT(real.completedReads, 0u);
    EXPECT_EQ(runner.runsExecuted(),
              static_cast<int>(configs.size()));
}

TEST(Runner, CollectedConfigsAreSkippedWhenAlreadyCached)
{
    const std::vector<SystemConfig> configs = sweepConfigs();

    Runner runner;
    runner.get(configs.front()); // pre-warm one config

    runner.beginCollect();
    for (const SystemConfig &cfg : configs)
        runner.get(cfg);
    const std::vector<SystemConfig> pending = runner.endCollect();
    EXPECT_EQ(pending.size(), configs.size() - 1);
}

/** Scoped log capture for asserting on warn/inform output. */
class CapturedLog
{
  public:
    CapturedLog()
        : prev(setLogSink([this](LogLevel, const std::string &msg) {
              std::lock_guard<std::mutex> lock(mu);
              lines.push_back(msg);
          }))
    {
    }

    ~CapturedLog() { setLogSink(std::move(prev)); }

    bool
    contains(const std::string &needle) const
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const std::string &l : lines)
            if (l.find(needle) != std::string::npos)
                return true;
        return false;
    }

  private:
    mutable std::mutex mu;
    std::vector<std::string> lines;
    LogSink prev;
};

/** RAII: memnet_fatal throws instead of exiting, for failure tests. */
struct ScopedThrowOnError
{
    ScopedThrowOnError() { detail::setThrowOnError(true); }
    ~ScopedThrowOnError() { detail::setThrowOnError(false); }
};

/** An invalid config: the unknown workload makes runSimulation fatal. */
SystemConfig
badConfig(std::uint64_t seed = 1)
{
    SystemConfig cfg;
    cfg.workload = "no-such-workload";
    cfg.warmup = us(10);
    cfg.measure = us(50);
    cfg.seed = seed;
    return cfg;
}

TEST(FailurePolicy, ParsesAndNames)
{
    FailurePolicy p = FailurePolicy::Abort;
    EXPECT_TRUE(parseFailurePolicy("isolate", &p));
    EXPECT_EQ(p, FailurePolicy::Isolate);
    EXPECT_TRUE(parseFailurePolicy("abort", &p));
    EXPECT_EQ(p, FailurePolicy::Abort);
    EXPECT_FALSE(parseFailurePolicy("explode", &p));
    EXPECT_STREQ(failurePolicyName(FailurePolicy::Abort), "abort");
    EXPECT_STREQ(failurePolicyName(FailurePolicy::Isolate), "isolate");
}

TEST(ParallelRunner, IsolatePolicyFinishesSweepAroundFailures)
{
    const ScopedThrowOnError guard;
    std::vector<SystemConfig> configs = sweepConfigs();
    configs.insert(configs.begin() + 2, badConfig());

    Runner runner;
    ParallelRunner engine(runner, 4);
    engine.setFailurePolicy(FailurePolicy::Isolate);
    EXPECT_NO_THROW(engine.run(configs));

    ASSERT_EQ(engine.failures().size(), 1u);
    const RunFailure &f = engine.failures()[0];
    EXPECT_EQ(f.key, Runner::key(badConfig()));
    EXPECT_FALSE(f.timeout);
    EXPECT_NE(f.message.find("no-such-workload"), std::string::npos)
        << f.message;

    // Every healthy config completed; the failed key is poisoned, not
    // cached, so partial results stay clean and replays don't re-run.
    EXPECT_EQ(runner.results().size(), configs.size() - 1);
    EXPECT_FALSE(runner.results().count(Runner::key(badConfig())));
    const int executed = runner.runsExecuted();
    const RunResult &placeholder = runner.get(badConfig());
    EXPECT_EQ(placeholder.completedReads, 0u);
    EXPECT_EQ(runner.runsExecuted(), executed);
}

TEST(ParallelRunner, IsolatePolicyWorksSingleThreaded)
{
    const ScopedThrowOnError guard;
    Runner runner;
    ParallelRunner engine(runner, 1);
    engine.setFailurePolicy(FailurePolicy::Isolate);
    SystemConfig good;
    good.warmup = us(10);
    good.measure = us(50);
    EXPECT_NO_THROW(engine.run({badConfig(), good}));
    EXPECT_EQ(engine.failures().size(), 1u);
    EXPECT_EQ(runner.results().size(), 1u);
}

TEST(ParallelRunner, AbortPolicyRethrowsAndLogsSuppressedFailures)
{
    const ScopedThrowOnError guard;
    const CapturedLog log;
    // Two distinct failing configs so one failure must be suppressed.
    std::vector<SystemConfig> configs = {badConfig(1), badConfig(2)};
    Runner runner;
    ParallelRunner engine(runner, 2);
    EXPECT_THROW(engine.run(configs), std::runtime_error);
    EXPECT_EQ(engine.failures().size(), 2u);
    EXPECT_TRUE(log.contains("1 additional failure(s) suppressed"));
    EXPECT_TRUE(log.contains("no-such-workload"));
}

TEST(ParallelRunner, WatchdogCancelsOverBudgetConfig)
{
    // A measure window far beyond what a tiny budget allows; the
    // watchdog must cancel it and record diagnostics.
    SystemConfig hog;
    hog.workload = "mixA";
    hog.warmup = us(10);
    hog.measure = us(400000);

    Runner runner;
    ParallelRunner engine(runner, 1);
    engine.setFailurePolicy(FailurePolicy::Isolate);
    engine.setConfigTimeout(0.05);
    engine.run({hog});

    ASSERT_EQ(engine.failures().size(), 1u);
    const RunFailure &f = engine.failures()[0];
    EXPECT_TRUE(f.timeout);
    EXPECT_GE(f.wallSeconds, 0.05);
    EXPECT_NE(f.message.find("cancelled by watchdog"),
              std::string::npos)
        << f.message;
    EXPECT_NE(f.message.find("fired="), std::string::npos) << f.message;
    EXPECT_TRUE(runner.results().empty());
}

TEST(ParallelRunner, WatchdogLeavesFastConfigsAlone)
{
    // Generous budget: the sweep completes normally and results match
    // a run with no watchdog at all, byte for byte.
    const std::vector<SystemConfig> configs = sweepConfigs();
    Runner plain;
    ParallelRunner(plain, 2).run(configs);

    Runner watched;
    ParallelRunner engine(watched, 2);
    engine.setConfigTimeout(300.0);
    engine.run(configs);

    EXPECT_TRUE(engine.failures().empty());
    EXPECT_EQ(jsonWithoutWallClock(plain), jsonWithoutWallClock(watched));
}

TEST(LogSink, ConcurrentWarningsStayIntact)
{
    std::vector<std::string> lines;
    LogSink prev = setLogSink(
        // Deliberately unsynchronized: delivery itself must serialize.
        [&lines](LogLevel, const std::string &msg) {
            lines.push_back(msg);
        });

    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                memnet_warn("thread ", t, " line ", i, " end");
        });
    }
    for (std::thread &th : threads)
        th.join();
    setLogSink(std::move(prev));

    ASSERT_EQ(lines.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    const std::regex shape("thread [0-7] line [0-9]+ end");
    for (const std::string &l : lines)
        EXPECT_TRUE(std::regex_match(l, shape)) << "mangled: " << l;
}

} // namespace
} // namespace memnet
