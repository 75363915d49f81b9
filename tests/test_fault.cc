/**
 * @file
 * Tests for the fault-injection subsystem: injector determinism and
 * validation, retrain packet conservation, lane-failure degradation,
 * error bursts, the stalled-read watchdog, and the system-level
 * acceptance scenario (daisy-chain aware run with a mid-measurement
 * lane failure).
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "memnet/multichannel.hh"
#include "memnet/simulator.hh"
#include "mgmt/aware.hh"
#include "net/link.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/log.hh"
#include "workload/processor.hh"

namespace memnet
{
namespace
{

// ---------------------------------------------------------------------
// Injector unit tests against a recording target
// ---------------------------------------------------------------------

struct RecordedFault
{
    enum Op { Retrain, LaneFail, BurstOn, BurstOff } op;
    int link;
    Tick at;
};

struct RecordingTarget : public FaultTarget
{
    explicit RecordingTarget(EventQueue &eq, int domains)
        : eq(eq), domains(domains)
    {
    }

    int faultDomains() const override { return domains; }
    void
    injectRetrain(int link, Tick) override
    {
        log.push_back({RecordedFault::Retrain, link, eq.now()});
    }
    void
    injectLaneFailure(int link, int) override
    {
        log.push_back({RecordedFault::LaneFail, link, eq.now()});
    }
    void
    injectErrorBurst(int link, double) override
    {
        log.push_back({RecordedFault::BurstOn, link, eq.now()});
    }
    void
    clearErrorBurst(int link) override
    {
        log.push_back({RecordedFault::BurstOff, link, eq.now()});
    }

    EventQueue &eq;
    int domains;
    std::vector<RecordedFault> log;
};

TEST(FaultInjector, EmptyPlanSchedulesNothing)
{
    EventQueue eq;
    RecordingTarget target(eq, 4);
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    FaultInjector inj(eq, target, plan, 1);
    inj.start(0);
    eq.run();
    EXPECT_EQ(eq.fired(), 0u);
    EXPECT_TRUE(target.log.empty());
    EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultInjector, ExplicitEventsFireAtTheirTicks)
{
    EventQueue eq;
    RecordingTarget target(eq, 4);
    FaultPlan plan;
    plan.events.push_back(
        {FaultKind::LinkRetrain, us(10), 2, us(1), 8, 0.0});
    plan.events.push_back(
        {FaultKind::LaneFailure, us(20), 0, us(1), 4, 0.0});
    plan.events.push_back(
        {FaultKind::ErrorBurst, us(30), 1, us(5), 8, 0.05});
    FaultInjector inj(eq, target, plan, 1);
    inj.start(0);
    eq.run();

    ASSERT_EQ(target.log.size(), 4u); // burst fires a clear too
    EXPECT_EQ(target.log[0].op, RecordedFault::Retrain);
    EXPECT_EQ(target.log[0].link, 2);
    EXPECT_EQ(target.log[0].at, us(10));
    EXPECT_EQ(target.log[1].op, RecordedFault::LaneFail);
    EXPECT_EQ(target.log[1].at, us(20));
    EXPECT_EQ(target.log[2].op, RecordedFault::BurstOn);
    EXPECT_EQ(target.log[2].at, us(30));
    EXPECT_EQ(target.log[3].op, RecordedFault::BurstOff);
    EXPECT_EQ(target.log[3].at, us(35));
    EXPECT_EQ(inj.stats().retrains, 1u);
    EXPECT_EQ(inj.stats().laneFailures, 1u);
    EXPECT_EQ(inj.stats().errorBursts, 1u);
}

TEST(FaultInjector, BroadcastLinkHitsEveryDomain)
{
    EventQueue eq;
    RecordingTarget target(eq, 3);
    FaultPlan plan;
    plan.events.push_back(
        {FaultKind::LinkRetrain, us(1), -1, us(1), 8, 0.0});
    FaultInjector inj(eq, target, plan, 1);
    inj.start(0);
    eq.run();
    ASSERT_EQ(target.log.size(), 3u);
    for (int l = 0; l < 3; ++l)
        EXPECT_EQ(target.log[l].link, l);
}

TEST(FaultInjector, RejectsOutOfRangePlans)
{
    const ScopedFatalThrows scopedFatal;
    EventQueue eq;
    RecordingTarget target(eq, 2);

    FaultPlan bad_link;
    bad_link.events.push_back(
        {FaultKind::LinkRetrain, us(1), 7, us(1), 8, 0.0});
    FaultInjector inj1(eq, target, bad_link, 1);
    EXPECT_THROW(inj1.start(0), std::runtime_error);

    FaultPlan bad_lanes;
    bad_lanes.events.push_back(
        {FaultKind::LaneFailure, us(1), 0, us(1), 0, 0.0});
    FaultInjector inj2(eq, target, bad_lanes, 1);
    EXPECT_THROW(inj2.start(0), std::runtime_error);

    FaultPlan bad_rate;
    bad_rate.events.push_back(
        {FaultKind::ErrorBurst, us(1), 0, us(1), 8, 1.5});
    FaultInjector inj3(eq, target, bad_rate, 1);
    EXPECT_THROW(inj3.start(0), std::runtime_error);
}

TEST(FaultInjector, FlapScheduleIsSeedDeterministic)
{
    FaultPlan plan;
    plan.flapMeanPeriodPs = us(40);
    plan.flapWindowPs = us(1);

    auto fire_ticks = [&](std::uint64_t seed) {
        EventQueue eq;
        RecordingTarget target(eq, 2);
        FaultInjector inj(eq, target, plan, seed);
        inj.start(0);
        eq.runUntil(us(400));
        std::vector<Tick> ticks;
        for (const RecordedFault &f : target.log)
            ticks.push_back(f.at);
        return ticks;
    };

    const std::vector<Tick> a = fire_ticks(7);
    const std::vector<Tick> b = fire_ticks(7);
    const std::vector<Tick> c = fire_ticks(8);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// Link-level fault behavior
// ---------------------------------------------------------------------

struct CountSink : public PacketSink
{
    int delivered = 0;
    Tick last = 0;
    void
    accept(Packet *pkt, Tick now) override
    {
        ++delivered;
        last = now;
        delete pkt;
    }
};

Packet *
makeReq(int flits = 5)
{
    Packet *p = new Packet;
    p->type = PacketType::ReadReq;
    p->flits = flits;
    return p;
}

TEST(LinkFaults, RetrainUnderLoadDeliversEveryPacket)
{
    EventQueue eq;
    RooConfig roo;
    CountSink sink;
    Link link(eq, 0, LinkType::Request, 0,
              &ModeTable::forMechanism(BwMechanism::None), &roo, 1.0,
              &sink);
    for (int i = 0; i < 200; ++i)
        link.enqueue(makeReq());
    // Three retrain windows land mid-stream; the middle pair overlaps.
    eq.schedule(ns(100), [&] { link.beginRetrain(ns(50)); });
    eq.schedule(ns(250), [&] { link.beginRetrain(ns(80)); });
    eq.schedule(ns(300), [&] { link.beginRetrain(ns(80)); });
    eq.run();

    EXPECT_EQ(sink.delivered, 200);
    EXPECT_EQ(link.stats().packets, 200u);
    // The overlapping pair merges into one retrain window.
    EXPECT_EQ(link.stats().retrains, 2u);
    EXPECT_GE(link.stats().replays, 1u);
    EXPECT_GT(link.stats().retrainSeconds, 0.0);
    EXPECT_FALSE(link.retraining());
}

TEST(LinkFaults, RetrainOnIdleRooLinkWakesAndResumesService)
{
    EventQueue eq;
    RooConfig roo;
    roo.enabled = true;
    CountSink sink;
    Link link(eq, 0, LinkType::Request, 0,
              &ModeTable::forMechanism(BwMechanism::None), &roo, 1.0,
              &sink);
    link.applyModes(0, 0); // 32 ns idle threshold

    // One packet, then a long quiet period: the link turns off.
    link.enqueue(makeReq());
    eq.schedule(us(10), [&] {
        ASSERT_EQ(link.power().rooState(), RooState::Off);
        link.beginRetrain(us(1));
    });
    // Traffic arriving mid-retrain waits and is served afterwards.
    eq.schedule(us(10) + ns(200), [&] { link.enqueue(makeReq()); });
    eq.run();

    EXPECT_EQ(sink.delivered, 2);
    EXPECT_GE(sink.last, us(11));
    // (The link legitimately dozes off again once the queue drains.)
    EXPECT_GT(link.stats().offSeconds, 0.0);
    EXPECT_GT(link.stats().retrainSeconds, 0.0);
}

TEST(LinkFaults, LaneFailureClampsModeSelection)
{
    EventQueue eq;
    RooConfig roo;
    CountSink sink;
    const ModeTable &vwl = ModeTable::forMechanism(BwMechanism::Vwl);
    Link link(eq, 0, LinkType::Request, 0, &vwl, &roo, 1.0, &sink);

    EXPECT_EQ(link.laneLimit(), 16);
    EXPECT_EQ(link.minUsableMode(), 0u);

    link.setLaneLimit(4);
    EXPECT_EQ(link.laneLimit(), 4);
    EXPECT_TRUE(link.power().degraded());
    // VWL modes are 16/8/4/1 lanes: first usable mode is index 2.
    EXPECT_EQ(link.minUsableMode(), 2u);
    EXPECT_LE(vwl.mode(link.minUsableMode()).lanes, 4);

    // Selecting a wider mode silently lands on the clamp.
    link.applyModes(0, 0);
    EXPECT_GE(link.power().modeIndex(), link.minUsableMode());

    // Widening is ignored; further narrowing sticks.
    link.setLaneLimit(8);
    EXPECT_EQ(link.laneLimit(), 4);
    link.setLaneLimit(1);
    EXPECT_EQ(link.laneLimit(), 1);
    EXPECT_EQ(link.minUsableMode(), 3u);
}

TEST(LinkFaults, DeratedWideModeMatchesEquivalentNarrowMode)
{
    // A 16-lane mode clamped to 4 lanes must serialize and draw power
    // exactly like the native 4-lane mode (dead lanes stop toggling).
    const ModeTable &vwl = ModeTable::forMechanism(BwMechanism::Vwl);
    RooConfig roo;
    LinkPowerState wide(&vwl, &roo);
    LinkPowerState narrow(&vwl, &roo);
    wide.setLaneClamp(4);
    narrow.setMode(0, 2); // native x4
    EXPECT_EQ(wide.flitTime(us(10)), narrow.flitTime(us(10)));
    EXPECT_DOUBLE_EQ(wide.onPowerFrac(us(10)),
                     narrow.onPowerFrac(us(10)));
}

// ---------------------------------------------------------------------
// Stalled-read watchdog
// ---------------------------------------------------------------------

/** Swallows every packet: the memory network equivalent of a dead link. */
struct BlackHole : public TrafficTarget
{
    void
    inject(Packet *pkt) override
    {
        disposePacket(pkt); // pkt came from the processor's pool
    }
};

TEST(Watchdog, AbortsWhenReadsStopCompleting)
{
    const ScopedFatalThrows scopedFatal;
    EventQueue eq;
    BlackHole hole;
    ProcessorParams pp;
    pp.watchdogTimeoutPs = us(10);
    Processor proc(eq, hole, workloadByName("ua.D"), pp);
    proc.start(0);
    EXPECT_THROW(eq.runUntil(us(1000)), std::runtime_error);
    EXPECT_GT(proc.outstandingReads(), 0);
}

TEST(Watchdog, StaysQuietOnAHealthyRun)
{
    SystemConfig cfg;
    cfg.workload = "ua.D";
    cfg.warmup = us(20);
    cfg.measure = us(100);
    cfg.watchdogTimeoutPs = us(50); // explicit opt-in, healthy network
    const RunResult r = runSimulation(cfg);
    EXPECT_GT(r.completedReads, 0u);
}

// ---------------------------------------------------------------------
// System-level fault scenarios
// ---------------------------------------------------------------------

SystemConfig
faultBase()
{
    SystemConfig cfg;
    cfg.workload = "mixC";
    cfg.topology = TopologyKind::DaisyChain;
    cfg.sizeClass = SizeClass::Big;
    cfg.warmup = us(50);
    cfg.measure = us(200);
    return cfg;
}

TEST(SystemFaults, CleanRunHasZeroReliabilityCounters)
{
    SystemConfig cfg = faultBase();
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg.policy = Policy::Aware;
    const RunResult r = runSimulation(cfg);
    EXPECT_FALSE(r.reliability.any());
    EXPECT_EQ(r.reliability.retries, 0u);
    EXPECT_EQ(r.reliability.faultEvents, 0u);
    EXPECT_EQ(r.reliability.degradedSeconds, 0.0);
}

TEST(SystemFaults, OutOfRangeLinkErrorRateIsFatal)
{
    // A rate of 1 or more retries every flit forever; a negative one
    // would silently run clean links.
    const ScopedFatalThrows scopedFatal;
    for (const double rate :
         {1.0, 1.5, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
        SystemConfig cfg = faultBase();
        cfg.linkFlitErrorRate = rate;
        EXPECT_THROW(runSimulation(cfg), std::runtime_error) << rate;
    }
}

TEST(SystemFaults, ErrorBurstRaisesRetriesAndActiveEnergy)
{
    SystemConfig cfg = faultBase();
    const RunResult clean = runSimulation(cfg);

    SystemConfig noisy = cfg;
    noisy.faults.events.push_back(
        {FaultKind::ErrorBurst, us(60), -1, us(150), 8, 0.02});
    const RunResult burst = runSimulation(noisy);

    EXPECT_GT(burst.reliability.retries, 100u);
    EXPECT_GT(burst.reliability.faultEvents, 0u);
    EXPECT_GT(burst.perHmc.activeIoW, clean.perHmc.activeIoW);
    EXPECT_GT(burst.avgReadLatencyNs, clean.avgReadLatencyNs);
    EXPECT_GT(burst.completedReads, 0u);
}

TEST(SystemFaults, RetrainStormCompletesWithoutStarvation)
{
    SystemConfig cfg = faultBase();
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg.policy = Policy::Aware;
    cfg.faults.flapMeanPeriodPs = us(50);
    cfg.faults.flapWindowPs = us(2);
    // The automatic watchdog is armed for fault runs: reaching the end
    // of the run proves no packet wedged anywhere.
    const RunResult r = runSimulation(cfg);
    EXPECT_GT(r.reliability.retrains, 0u);
    EXPECT_GT(r.reliability.retrainSeconds, 0.0);
    EXPECT_GT(r.completedReads, 0u);
}

TEST(SystemFaults, MultiChannelRunsThePlanOnEveryChannel)
{
    MultiChannelConfig mc;
    mc.base = faultBase();
    mc.base.measure = us(100);
    mc.channels = 2;
    mc.base.faults.flapMeanPeriodPs = us(50);
    mc.base.faults.flapWindowPs = us(2);
    // The watchdog is armed automatically for fault runs, so finishing
    // at all proves the retrain storm wedged nothing in either channel.
    const MultiChannelResult r = runMultiChannel(mc);
    EXPECT_GT(r.readsPerSec, 0.0);
    EXPECT_EQ(r.channelPower.size(), 2u);
}

TEST(SystemFaults, SameSeedSamePlanIsBitIdentical)
{
    SystemConfig cfg = faultBase();
    cfg.mechanism = BwMechanism::Vwl;
    cfg.policy = Policy::Unaware;
    cfg.faults.events.push_back(
        {FaultKind::LinkRetrain, us(100), 0, us(5), 8, 0.0});
    cfg.faults.events.push_back(
        {FaultKind::LaneFailure, us(120), 1, us(1), 4, 0.0});
    cfg.faults.events.push_back(
        {FaultKind::ErrorBurst, us(150), -1, us(40), 8, 0.01});
    cfg.faults.flapMeanPeriodPs = us(200);

    const RunResult a = runSimulation(cfg);
    const RunResult b = runSimulation(cfg);
    EXPECT_EQ(a.completedReads, b.completedReads);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.reliability.retries, b.reliability.retries);
    EXPECT_EQ(a.reliability.retrains, b.reliability.retrains);
    EXPECT_EQ(a.reliability.faultEvents, b.reliability.faultEvents);
    EXPECT_EQ(a.totalNetworkPowerW, b.totalNetworkPowerW);
    EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_EQ(a.reliability.degradedSeconds, b.reliability.degradedSeconds);
    EXPECT_GT(a.reliability.degradedSeconds, 0.0);
}

/**
 * Acceptance scenario: a daisy-chain aware run loses 12 of 16 lanes on
 * the root request link mid-measurement. The run must complete with
 * every read serviced (the watchdog guards starvation), the manager
 * must never select a mode wider than the surviving lanes, and the
 * violation feedback must settle rather than storm.
 */
struct LaneFailureRun
{
    std::uint64_t violations = 0;
    std::uint64_t epochs = 0;
    std::uint64_t completedReads = 0;
    int outstandingReads = 0;
    int samples = 0;
};

LaneFailureRun
runDaisyChainAware(bool inject_failure)
{
    const WorkloadProfile &w = workloadByName("mixC");
    Topology topo = Topology::build(TopologyKind::DaisyChain,
                                    w.modulesFor(1ULL << 30));
    EventQueue eq;
    DramParams dram;
    HmcPowerModel pm;
    RooConfig roo;
    roo.enabled = true;
    AddressMap amap;
    amap.chunkBytes = 1ULL << 30;
    Network net(eq, topo, dram, BwMechanism::Vwl, roo, pm, amap);
    ProcessorParams pp;
    pp.watchdogTimeoutPs = us(100);
    Processor proc(eq, net, w, pp);
    ManagerParams mp;
    mp.alphaPct = 5.0;
    AwareManager mgr(net, BwMechanism::Vwl, roo, mp);

    mgr.start(0);
    proc.start(0);

    // Fail the root request link down to 4 lanes mid-run.
    if (inject_failure)
        eq.schedule(us(250), [&] { net.injectLaneFailure(0, 4); });

    // Sample the manager's selections every 10 us after the failure has
    // been through at least one epoch boundary: no link may be selected
    // wider than its surviving lanes.
    LaneFailureRun out;
    for (Tick t = us(400); t <= us(800); t += us(10)) {
        eq.schedule(t, [&] {
            ++out.samples;
            for (int m = 0; m < net.numModules(); ++m) {
                const LinkMgmtState &rs = mgr.requestState(m);
                EXPECT_GE(rs.selected.bw, rs.minUsableBw());
                const Link &l = net.requestLink(m);
                EXPECT_GE(l.power().modeIndex(), l.minUsableMode());
            }
        });
    }

    eq.runUntil(us(800)); // watchdog would throw on starvation

    if (inject_failure) {
        const Link &failed = net.requestLink(0);
        EXPECT_EQ(failed.laneLimit(), 4);
        EXPECT_TRUE(failed.power().degraded());
        EXPECT_GE(failed.power().modeIndex(), failed.minUsableMode());
        EXPECT_EQ(mgr.requestState(0).minUsableBw(),
                  failed.minUsableMode());
        EXPECT_GT(failed.stats().degradedSeconds, 0.0);
    }

    out.violations = mgr.violations();
    out.epochs = mgr.epochs();
    out.completedReads = proc.completedReads();
    out.outstandingReads = proc.outstandingReads();
    return out;
}

TEST(LaneFailureAcceptance, AwareRunSurvivesMidRunLaneFailure)
{
    const LaneFailureRun clean = runDaisyChainAware(false);
    const LaneFailureRun faulty = runDaisyChainAware(true);

    EXPECT_GT(faulty.samples, 30);
    EXPECT_GE(faulty.epochs, 7u);

    // The violation feedback settles instead of storming: losing 3/4 of
    // the root link's lanes must not blow up the violation count
    // relative to this workload's fault-free baseline.
    EXPECT_LT(faulty.violations, 2 * clean.violations + 10);

    // Traffic kept flowing after the failure (degraded, not starved).
    EXPECT_GT(faulty.completedReads, clean.completedReads / 2);
    EXPECT_LE(faulty.outstandingReads, 16 * 12);
}

} // namespace
} // namespace memnet
