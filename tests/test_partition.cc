/**
 * @file
 * Partitioned parallel event kernel (sim/partition.hh).
 *
 *  - sim-layer stress: a randomized ring of partitions exchanging
 *    messages through the runner matches a serial reference event
 *    queue tick-for-tick, with and without a sync-point grid;
 *  - partitioned runs are bit-identical to the serial kernel across
 *    topologies x policies, under fault plans and with auditing on,
 *    latency and energy observatories included;
 *  - multi-channel partitioned runs match serial multi-channel runs;
 *  - a cooperative cancel flag (the --config-timeout watchdog) stops
 *    every partition worker;
 *  - a memnet_fatal on a worker lane throws under the caller's
 *    ScopedFatalThrows and is rethrown by runUntil.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/differential.hh"
#include "memnet/multichannel.hh"
#include "memnet/simulator.hh"
#include "sim/cancel.hh"
#include "sim/log.hh"
#include "sim/partition.hh"

namespace memnet
{
namespace
{

// ---------------------------------------------------------------------
// Sim-layer stress: a ring of P nodes. Node r fires on ticks congruent
// to r (mod P) with a pseudo-random cadence and sends each firing's
// sequence number to node (r+1) % P with a fixed latency that is a
// multiple of P — so no two nodes ever act at the same tick and the
// serial reference order is unambiguous.
// ---------------------------------------------------------------------

using ToyLog = std::vector<std::tuple<Tick, int, std::uint64_t>>;

constexpr int kRing = 3;
constexpr Tick kRingLatency = 102; // multiple of kRing
constexpr Tick kToyEnd = 200000;

/** Deterministic cadence: xorshift per node. */
struct ToyRng
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

class ToyReceiver
{
  public:
    ToyReceiver(EventQueue &eq, int rank, ToyLog &log)
        : eq(eq), rank(rank), log(log)
    {
    }

    void
    push(std::uint64_t value, const EventKey &key)
    {
        RecvEvent *ev;
        if (free_.empty()) {
            storage_.push_back(std::make_unique<RecvEvent>(this));
            ev = storage_.back().get();
        } else {
            ev = free_.back();
            free_.pop_back();
        }
        ev->value = value;
        eq.scheduleWithKey(ev, key);
    }

  private:
    struct RecvEvent : Event
    {
        explicit RecvEvent(ToyReceiver *o) : owner(o) {}
        void
        fire() override
        {
            owner->free_.push_back(this);
            owner->log.emplace_back(owner->eq.now(), owner->rank,
                                    value);
        }
        ToyReceiver *owner;
        std::uint64_t value = 0;
    };

    EventQueue &eq;
    const int rank;
    ToyLog &log;
    std::vector<std::unique_ptr<RecvEvent>> storage_;
    std::vector<RecvEvent *> free_;
};

/** Self-rescheduling sender; Send is how a message leaves the node. */
class ToySender : public Event
{
  public:
    using Send = std::function<void(std::uint64_t, const EventKey &)>;

    ToySender(EventQueue &eq, int rank, Send send)
        : eq(eq), rng{0x9e3779b9u * static_cast<unsigned>(rank + 1)},
          send(std::move(send))
    {
        eq.schedule(this, static_cast<Tick>(rank));
    }

    void
    fire() override
    {
        EventKey key;
        key.when = eq.now() + kRingLatency;
        key.sched = eq.now();
        key.parent = eq.currentParentSched();
        send(seq++, key);
        // Cadence in [kRing, 40*kRing], always a multiple of kRing so
        // the node keeps its tick residue.
        const Tick step =
            static_cast<Tick>(1 + rng.next() % 40) * kRing;
        if (eq.now() + step <= kToyEnd)
            eq.schedule(this, eq.now() + step);
    }

  private:
    EventQueue &eq;
    ToyRng rng;
    Send send;
    std::uint64_t seq = 0;
};

/** Serial reference: the whole ring on one queue. */
ToyLog
runToySerial()
{
    ToyLog log;
    EventQueue eq;
    std::vector<std::unique_ptr<ToyReceiver>> recv;
    for (int r = 0; r < kRing; ++r)
        recv.push_back(std::make_unique<ToyReceiver>(eq, r, log));
    std::vector<std::unique_ptr<ToySender>> send;
    for (int r = 0; r < kRing; ++r) {
        ToyReceiver *dst = recv[(r + 1) % kRing].get();
        send.push_back(std::make_unique<ToySender>(
            eq, r, [dst](std::uint64_t v, const EventKey &k) {
                dst->push(v, k);
            }));
    }
    eq.runUntil(kToyEnd);
    return log;
}

/** Partitioned: one queue per node, coupled through the runner.
 *  @p lanes, when set, receives the runner's per-lane counters. */
ToyLog
runToyPartitioned(Tick grid,
                  std::vector<PartitionLaneStats> *lanes = nullptr)
{
    // Per-rank logs merged by (tick, rank) afterwards: ranks never act
    // at the same tick, so the merge order is total and identical to
    // the serial log's.
    std::vector<ToyLog> logs(kRing);
    std::vector<std::unique_ptr<EventQueue>> eqs;
    std::vector<EventQueue *> queues;
    for (int r = 0; r < kRing; ++r) {
        eqs.push_back(std::make_unique<EventQueue>());
        queues.push_back(eqs.back().get());
    }
    std::vector<std::unique_ptr<ToyReceiver>> recv;
    for (int r = 0; r < kRing; ++r)
        recv.push_back(
            std::make_unique<ToyReceiver>(*eqs[r], r, logs[r]));

    std::vector<Tick> look(kRing * kRing, kTickMax);
    for (int r = 0; r < kRing; ++r) {
        look[r * kRing + r] = 0;
        look[r * kRing + (r + 1) % kRing] = kRingLatency;
    }
    PartitionRunner runner(
        queues, std::move(look),
        [&recv](int dst, BoundaryMessage &m) {
            recv[dst]->push(
                reinterpret_cast<std::uintptr_t>(m.payload), m.key);
        });

    std::vector<std::unique_ptr<ToySender>> send;
    for (int r = 0; r < kRing; ++r) {
        MailboxMatrix &mail = runner.mail();
        const int dst = (r + 1) % kRing;
        send.push_back(std::make_unique<ToySender>(
            *eqs[r], r,
            [&mail, r, dst](std::uint64_t v, const EventKey &k) {
                BoundaryMessage m;
                m.key = k;
                m.payload = reinterpret_cast<void *>(
                    static_cast<std::uintptr_t>(v));
                mail.send(r, dst, m);
            }));
    }
    runner.runUntil(kToyEnd, grid);
    if (lanes)
        *lanes = runner.laneStats();

    ToyLog merged;
    std::vector<std::size_t> cursor(kRing, 0);
    for (;;) {
        int best = -1;
        for (int r = 0; r < kRing; ++r) {
            if (cursor[r] >= logs[r].size())
                continue;
            if (best < 0 || std::get<0>(logs[r][cursor[r]]) <
                                std::get<0>(logs[best][cursor[best]]))
                best = r;
        }
        if (best < 0)
            break;
        merged.push_back(logs[best][cursor[best]++]);
    }
    return merged;
}

TEST(PartitionStress, RingMatchesSerialReference)
{
    const ToyLog serial = runToySerial();
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, runToyPartitioned(0));
}

TEST(PartitionStress, SyncPointGridDoesNotChangeResults)
{
    // Sync points (merged tick-steps) are a synchronization artifact;
    // an arbitrary grid must not change what fires when.
    const ToyLog serial = runToySerial();
    EXPECT_EQ(serial, runToyPartitioned(7770));
}

TEST(PartitionStress, RingWindowCountsArePinned)
{
    // Window counts follow from the horizons alone, so they pin the
    // synchronization protocol: a change that grants any lane a
    // different horizon moves them. Every lane runs every window, so
    // all lanes share one count.
    for (const auto &[grid, windows] :
         {std::pair<Tick, std::uint64_t>{0, 1709}, {7770, 1727}}) {
        std::vector<PartitionLaneStats> lanes;
        runToyPartitioned(grid, &lanes);
        ASSERT_EQ(lanes.size(), static_cast<std::size_t>(kRing));
        for (const PartitionLaneStats &l : lanes)
            EXPECT_EQ(l.windows, windows) << "grid " << grid;
    }
}

/** Every message pending for @p dst under @p parity, in drain order. */
std::vector<BoundaryMessage>
drained(MailboxMatrix &mail, int dst, unsigned parity)
{
    std::vector<BoundaryMessage> out;
    mail.drain(dst, parity,
               [&out](BoundaryMessage &m) { out.push_back(m); });
    return out;
}

TEST(Partition, MailboxStampsDeterministicRemoteCounters)
{
    MailboxMatrix mail(2);
    BoundaryMessage m;
    m.key = EventKey{100, 50, 10, 0};
    mail.send(1, 0, m);
    mail.send(1, 0, m);
    std::vector<BoundaryMessage> out = drained(mail, 0, 0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].key.ctr,
              EventKey::kRemoteCtrBit | (1ULL << 48) | 0);
    EXPECT_EQ(out[1].key.ctr,
              EventKey::kRemoteCtrBit | (1ULL << 48) | 1);
    // Remote ties sort after any local event's counter.
    const EventKey local{100, 50, 10, 123456};
    EXPECT_TRUE(local < out[0].key);
    EXPECT_TRUE(drained(mail, 0, 0).empty());
    // The counter runs on across windows of either parity.
    mail.open(1, 1);
    mail.send(1, 0, m);
    out = drained(mail, 0, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].key.ctr,
              EventKey::kRemoteCtrBit | (1ULL << 48) | 2);
}

TEST(Partition, MailboxDrainKeepsParitiesApart)
{
    // A receiver drains parity p while its sender already posts the
    // next window under p ^ 1; neither may see the other's messages.
    MailboxMatrix mail(3);
    const auto post = [&mail](int src, Tick when) {
        BoundaryMessage m;
        m.key.when = when;
        m.channel = src; // tags the sender for the checks below
        mail.send(src, 1, m);
    };
    post(2, 100);
    mail.open(2, 1);
    post(2, 200);
    post(0, 300); // rank 0 still posts under parity 0
    const std::vector<BoundaryMessage> even = drained(mail, 1, 0);
    ASSERT_EQ(even.size(), 2u);
    EXPECT_EQ(even[0].channel, 0); // sources in rank order
    EXPECT_EQ(even[0].key.when, 300u);
    EXPECT_EQ(even[1].channel, 2);
    EXPECT_EQ(even[1].key.when, 100u);
    const std::vector<BoundaryMessage> odd = drained(mail, 1, 1);
    ASSERT_EQ(odd.size(), 1u);
    EXPECT_EQ(odd[0].channel, 2);
    EXPECT_EQ(odd[0].key.when, 200u);
    EXPECT_TRUE(drained(mail, 1, 0).empty());
    EXPECT_TRUE(drained(mail, 1, 1).empty());
}

TEST(Partition, MailboxMinDueIsEarliestPerEdgeUntilReopened)
{
    MailboxMatrix mail(3);
    EXPECT_EQ(mail.minDue(0, 1, 0), kTickMax);
    BoundaryMessage m;
    for (Tick when : {500, 300, 400}) {
        m.key.when = when;
        mail.send(0, 1, m);
    }
    m.key.when = 700;
    mail.send(0, 2, m);
    EXPECT_EQ(mail.minDue(0, 1, 0), 300u);
    EXPECT_EQ(mail.minDue(0, 2, 0), 700u);
    EXPECT_EQ(mail.minDue(2, 1, 0), kTickMax); // per (src, dst)
    EXPECT_EQ(mail.minDue(0, 1, 1), kTickMax); // per parity

    // Draining leaves the published tick alone; only the sender's next
    // window of that parity resets it.
    drained(mail, 1, 0);
    EXPECT_EQ(mail.minDue(0, 1, 0), 300u);
    mail.open(0, 1);
    m.key.when = 900;
    mail.send(0, 1, m);
    EXPECT_EQ(mail.minDue(0, 1, 0), 300u);
    EXPECT_EQ(mail.minDue(0, 1, 1), 900u);
    drained(mail, 2, 0);
    mail.open(0, 0);
    EXPECT_EQ(mail.minDue(0, 1, 0), kTickMax);
    EXPECT_EQ(mail.minDue(0, 2, 0), kTickMax);
    EXPECT_EQ(mail.minDue(0, 1, 1), 900u);
}

// ---------------------------------------------------------------------
// Full-simulator differential: partitioned == serial.
// ---------------------------------------------------------------------

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

TEST(PartitionDifferential, BarrierModeEqualsSerialEverywhere)
{
    // The tentpole claim: the deterministic partitioned kernel
    // reproduces the serial kernel bit-for-bit on every
    // simulation-determined output, for every topology x policy pair.
    for (TopologyKind t : kTopologies) {
        for (Policy p : kPolicies) {
            const SystemConfig serial = shortConfig(t, p);
            SystemConfig part = serial;
            part.partitions = 2;

            const RunResult rs = runSimulation(serial);
            const RunResult rp = runSimulation(part);
            const auto diffs = audit::diffRunResults(rs, rp);
            EXPECT_TRUE(diffs.empty())
                << topologyName(t) << "/" << policyName(p) << "\n"
                << audit::describeDiffs(diffs);
            EXPECT_EQ(rp.profile.partitions, 2);
            ASSERT_EQ(rp.profile.partitionLanes.size(), 2u);
            EXPECT_GT(rp.profile.partitionLanes[0].windows, 0u);
            EXPECT_GT(rp.profile.partitionLanes[1].eventsFired, 0u);
            EXPECT_EQ(rs.profile.partitions, 1);
            EXPECT_TRUE(rs.profile.partitionLanes.empty());
        }
    }
}

TEST(PartitionDifferential, LaneWindowCountsArePinned)
{
    // The simulator-level twin of RingWindowCountsArePinned: warmup
    // plus measure windows of a two-lane Star/Aware run.
    SystemConfig part = shortConfig(TopologyKind::Star, Policy::Aware);
    part.partitions = 2;
    const RunResult rp = runSimulation(part);
    ASSERT_EQ(rp.profile.partitionLanes.size(), 2u);
    EXPECT_EQ(rp.profile.partitionLanes[0].windows, 36063u);
    EXPECT_EQ(rp.profile.partitionLanes[1].windows, 36063u);
}

TEST(PartitionDifferential, ExcessPartitionsClampToChannels)
{
    // A single-channel run has one channel to offload: partitions=4
    // must behave exactly like partitions=2 (and match serial).
    const SystemConfig serial =
        shortConfig(TopologyKind::TernaryTree, Policy::Aware);
    SystemConfig part = serial;
    part.partitions = 4;
    const RunResult rp = runSimulation(part);
    EXPECT_EQ(rp.profile.partitions, 2);
    const auto diffs =
        audit::diffRunResults(runSimulation(serial), rp);
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(PartitionDifferential, BarrierModeEqualsSerialUnderFaults)
{
    SystemConfig serial = shortConfig(TopologyKind::Star,
                                      Policy::Aware);
    FaultSpec retrain;
    retrain.kind = FaultKind::LinkRetrain;
    retrain.at = us(80);
    retrain.link = 0;
    retrain.durationPs = us(20);
    serial.faults.events.push_back(retrain);
    FaultSpec burst;
    burst.kind = FaultKind::ErrorBurst;
    burst.at = us(120);
    burst.link = 1;
    burst.flitErrorRate = 1e-4;
    burst.durationPs = us(40);
    serial.faults.events.push_back(burst);

    SystemConfig part = serial;
    part.partitions = 2;
    const RunResult rs = runSimulation(serial);
    const RunResult rp = runSimulation(part);
    EXPECT_TRUE(rs.reliability.any());
    const auto diffs = audit::diffRunResults(rs, rp);
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(PartitionDifferential, BarrierModeEqualsSerialWithAuditOn)
{
    SystemConfig serial = shortConfig(TopologyKind::DaisyChain,
                                      Policy::Unaware);
    serial.audit = true;
    SystemConfig part = serial;
    part.partitions = 2;
    const RunResult rs = runSimulation(serial);
    const RunResult rp = runSimulation(part);
    EXPECT_GT(rp.profile.auditChecksRun, 0u);
    const auto diffs = audit::diffRunResults(rs, rp);
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(PartitionDifferential, LatencyObservatoryMatchesSerial)
{
    // The observatory must survive the boundary split: the shadow
    // replay on the channel side and the ingress completion on the
    // processor side reproduce the serial decomposition exactly.
    const SystemConfig serial =
        shortConfig(TopologyKind::Star, Policy::Aware);
    SystemConfig part = serial;
    part.partitions = 2;
    const RunResult rs = runSimulation(serial);
    const RunResult rp = runSimulation(part);
    ASSERT_TRUE(rs.latency.enabled);
    ASSERT_TRUE(rp.latency.enabled);
    EXPECT_EQ(rs.latency.endToEnd.samples, rp.latency.endToEnd.samples);
    EXPECT_EQ(rs.latency.endToEnd.p50Ps, rp.latency.endToEnd.p50Ps);
    EXPECT_EQ(rs.latency.endToEnd.p99Ps, rp.latency.endToEnd.p99Ps);
    EXPECT_EQ(rs.latency.serialization.p50Ps,
              rp.latency.serialization.p50Ps);
    EXPECT_EQ(rs.latency.dram.p99Ps, rp.latency.dram.p99Ps);
}

TEST(PartitionDifferential, EnergyObservatoryMatchesSerial)
{
    // Energy attribution must survive the partition split exactly:
    // every link's events run on its home partition, so the cause
    // buckets accrue in the same per-link order as the serial kernel
    // and the ledger (and occupancy sketches) are bit-identical.
    const SystemConfig serial =
        shortConfig(TopologyKind::Star, Policy::Aware);
    SystemConfig part = serial;
    part.partitions = 2;
    const RunResult rs = runSimulation(serial);
    const RunResult rp = runSimulation(part);
    ASSERT_TRUE(rs.energy.enabled);
    ASSERT_TRUE(rp.energy.enabled);
    const EnergyAttribution &as = rs.energy.attribution;
    const EnergyAttribution &ap = rp.energy.attribution;
    EXPECT_EQ(as.txJ, ap.txJ);
    EXPECT_EQ(as.retrainJ, ap.retrainJ);
    EXPECT_EQ(as.idleFloorJ(), ap.idleFloorJ());
    EXPECT_EQ(as.sleepJ, ap.sleepJ);
    EXPECT_EQ(as.wakeJ, ap.wakeJ);
    EXPECT_EQ(as.serdesLeakJ, ap.serdesLeakJ);
    EXPECT_EQ(as.routerJ, ap.routerJ);
    EXPECT_EQ(as.dramLeakJ, ap.dramLeakJ);
    EXPECT_EQ(as.dramDynJ, ap.dramDynJ);
    EXPECT_EQ(as.idleIoJ, ap.idleIoJ);
    EXPECT_EQ(as.activeIoJ, ap.activeIoJ);
    EXPECT_EQ(rs.energy.occupancy.samples, rp.energy.occupancy.samples);
    EXPECT_EQ(rs.energy.occupancy.sumPs, rp.energy.occupancy.sumPs);
    EXPECT_EQ(rs.energy.occupancy.p99Ps, rp.energy.occupancy.p99Ps);
    EXPECT_EQ(rs.energy.utilization.samples,
              rp.energy.utilization.samples);
    EXPECT_EQ(rs.energy.utilization.p50Ps,
              rp.energy.utilization.p50Ps);
}

TEST(PartitionDifferential, MultiChannelEqualsSerialMultiChannel)
{
    for (Policy p : {Policy::FullPower, Policy::Aware}) {
        MultiChannelConfig serial;
        serial.base = shortConfig(TopologyKind::TernaryTree, p);
        serial.channels = 3;
        serial.spread = ChannelSpread::InterleaveLines;
        MultiChannelConfig part = serial;
        part.base.partitions = 4; // one partition per channel

        const MultiChannelResult ms = runMultiChannel(serial);
        const MultiChannelResult mp = runMultiChannel(part);
        EXPECT_EQ(ms.totalPowerW, mp.totalPowerW) << policyName(p);
        EXPECT_EQ(ms.readsPerSec, mp.readsPerSec) << policyName(p);
        EXPECT_EQ(ms.idleIoFrac, mp.idleIoFrac) << policyName(p);
        ASSERT_EQ(ms.channelUtil.size(), mp.channelUtil.size());
        for (std::size_t c = 0; c < ms.channelUtil.size(); ++c)
            EXPECT_EQ(ms.channelUtil[c], mp.channelUtil[c])
                << policyName(p) << " channel " << c;
        ASSERT_TRUE(ms.latency.enabled && mp.latency.enabled);
        EXPECT_EQ(ms.latency.endToEnd.samples,
                  mp.latency.endToEnd.samples);
        EXPECT_EQ(ms.latency.endToEnd.p99Ps,
                  mp.latency.endToEnd.p99Ps);
        ASSERT_TRUE(ms.energy.enabled && mp.energy.enabled);
        EXPECT_EQ(ms.energy.attribution.totalJ(),
                  mp.energy.attribution.totalJ());
        EXPECT_EQ(ms.energy.attribution.txJ, mp.energy.attribution.txJ);
        EXPECT_EQ(ms.energy.occupancy.samples,
                  mp.energy.occupancy.samples);
    }
}

TEST(PartitionDifferential, ChannelsSharingAPartitionMatchSerial)
{
    // More channels than partitions: channels share worker queues
    // round-robin and must still match the serial run exactly.
    MultiChannelConfig serial;
    serial.base = shortConfig(TopologyKind::Star, Policy::Unaware);
    serial.channels = 4;
    MultiChannelConfig part = serial;
    part.base.partitions = 3; // 4 channels on 2 channel partitions

    const MultiChannelResult ms = runMultiChannel(serial);
    const MultiChannelResult mp = runMultiChannel(part);
    EXPECT_EQ(ms.totalPowerW, mp.totalPowerW);
    EXPECT_EQ(ms.readsPerSec, mp.readsPerSec);
    for (std::size_t c = 0; c < ms.channelUtil.size(); ++c)
        EXPECT_EQ(ms.channelUtil[c], mp.channelUtil[c]);
}

TEST(PartitionCancel, WatchdogFlagStopsAllWorkers)
{
    // The --config-timeout watchdog sets one cooperative flag; the
    // runner installs it in every partition worker, so a partitioned
    // run must abort promptly and rethrow CancelledError on the
    // calling thread.
    SystemConfig part = shortConfig(TopologyKind::Star, Policy::Aware);
    part.partitions = 2;
    std::atomic<bool> stop{true};
    ScopedCancelFlag scoped(&stop);
    EXPECT_THROW(runSimulation(part), CancelledError);
}

TEST(PartitionFatal, LaneFatalIsRethrownUnderScopedFatalThrows)
{
    // A sweep holds a ScopedFatalThrows around each config. The lanes
    // 1..p-1 run on threads the runner starts, so they must inherit it:
    // a fatal there has to come back out of runUntil as an exception,
    // not exit the process.
    EventQueue lane0;
    EventQueue lane1;
    PartitionRunner runner({&lane0, &lane1}, {0, 100, 100, 0},
                           [](int, BoundaryMessage &) {});
    lane1.schedule(50, [] { memnet_fatal("bad config on lane 1"); });
    const ScopedFatalThrows scopedFatal;
    EXPECT_THROW(runner.runUntil(1000, 0), std::runtime_error);
}

} // namespace
} // namespace memnet
