/**
 * @file
 * Unit tests for the unidirectional link controller: serialization
 * timing, read priority, ROO behavior, energy split, observer hooks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.hh"
#include "sim/event_queue.hh"

namespace memnet
{
namespace
{

/** Sink capturing delivered packets and their arrival times. */
struct CaptureSink : public PacketSink
{
    struct Item
    {
        Packet *pkt;
        Tick when;
    };
    std::vector<Item> items;

    void
    accept(Packet *pkt, Tick now) override
    {
        items.push_back({pkt, now});
    }
};

/** Observer recording hook invocations. */
struct RecordingObserver : public LinkObserver
{
    int enqueues = 0;
    int departs = 0;
    int wakes = 0;
    int sleeps = 0;
    std::vector<Tick> sleepTicks;
    std::vector<Tick> idleIntervals;
    bool allowSleep = true;

    void onEnqueue(Link &, Packet &, Tick) override { ++enqueues; }
    void onDepart(Link &, Packet &, Tick) override { ++departs; }
    void
    onIdleEnd(Link &, Tick start, Tick now) override
    {
        idleIntervals.push_back(now - start);
    }
    bool maySleep(Link &, Tick) override { return allowSleep; }
    void onWakeBegin(Link &, Tick) override { ++wakes; }
    void
    onSleep(Link &, Tick now) override
    {
        ++sleeps;
        sleepTicks.push_back(now);
    }
};

Packet *
makePacket(PacketType type, std::uint64_t id)
{
    Packet *p = new Packet;
    p->id = id;
    p->type = type;
    p->flits = flitsFor(type);
    return p;
}

class LinkTest : public ::testing::Test
{
  protected:
    void
    build(BwMechanism mech, bool roo_on,
          double power_w = 1.0)
    {
        roo.enabled = roo_on;
        link = std::make_unique<Link>(
            eq, 0, LinkType::Request, 0,
            &ModeTable::forMechanism(mech), &roo, power_w, &sink);
        link->setObserver(&obs);
    }

    void
    drainAndFree()
    {
        eq.run();
        for (auto &it : sink.items)
            delete it.pkt;
        sink.items.clear();
    }

    EventQueue eq;
    RooConfig roo;
    CaptureSink sink;
    RecordingObserver obs;
    std::unique_ptr<Link> link;
};

TEST_F(LinkTest, SinglePacketDeliveryTiming)
{
    build(BwMechanism::None, false);
    link->enqueue(makePacket(PacketType::ReadReq, 1));
    eq.run();
    ASSERT_EQ(sink.items.size(), 1u);
    // 1 flit * 0.64 ns + 3.2 ns SERDES + 2.56 ns router.
    EXPECT_EQ(sink.items[0].when,
              640 + LinkTiming::kSerdesPs + LinkTiming::kRouterPs);
    EXPECT_EQ(obs.enqueues, 1);
    EXPECT_EQ(obs.departs, 1);
    drainAndFree();
}

TEST_F(LinkTest, FiveFlitPacketTakesFiveSlots)
{
    build(BwMechanism::None, false);
    link->enqueue(makePacket(PacketType::ReadResp, 1));
    eq.run();
    ASSERT_EQ(sink.items.size(), 1u);
    EXPECT_EQ(sink.items[0].when,
              5 * 640 + LinkTiming::kSerdesPs + LinkTiming::kRouterPs);
    drainAndFree();
}

TEST_F(LinkTest, ReadsPreemptQueuedWrites)
{
    build(BwMechanism::None, false);
    link->enqueue(makePacket(PacketType::WriteReq, 1));
    link->enqueue(makePacket(PacketType::WriteReq, 2));
    link->enqueue(makePacket(PacketType::ReadReq, 3));
    eq.run();
    ASSERT_EQ(sink.items.size(), 3u);
    // Write 1 is already serializing; the read passes write 2.
    EXPECT_EQ(sink.items[0].pkt->id, 1u);
    EXPECT_EQ(sink.items[1].pkt->id, 3u);
    EXPECT_EQ(sink.items[2].pkt->id, 2u);
    drainAndFree();
}

TEST_F(LinkTest, SerializationPipelinesAheadOfSerdes)
{
    build(BwMechanism::None, false);
    link->enqueue(makePacket(PacketType::ReadReq, 1));
    link->enqueue(makePacket(PacketType::ReadReq, 2));
    eq.run();
    ASSERT_EQ(sink.items.size(), 2u);
    // Second starts serializing at 0.64 ns, not after delivery.
    EXPECT_EQ(sink.items[1].when - sink.items[0].when, 640);
    drainAndFree();
}

TEST_F(LinkTest, VwlModeSlowsSerialization)
{
    build(BwMechanism::Vwl, false);
    link->applyModes(2, 0); // 4 lanes
    eq.runUntil(us(2));     // let the transition finish
    link->enqueue(makePacket(PacketType::ReadReq, 1));
    eq.run();
    ASSERT_EQ(sink.items.size(), 1u);
    EXPECT_EQ(sink.items[0].when,
              us(2) + 4 * 640 + LinkTiming::kSerdesPs +
                  LinkTiming::kRouterPs);
    drainAndFree();
}

TEST_F(LinkTest, RooSleepsAfterIdleThreshold)
{
    build(BwMechanism::None, true);
    link->applyModes(0, 0); // 32 ns threshold
    eq.runUntil(ns(100));
    EXPECT_EQ(link->power().rooState(), RooState::Off);
    EXPECT_EQ(obs.sleeps, 1);
}

TEST_F(LinkTest, RooWakeAddsLatency)
{
    build(BwMechanism::None, true);
    link->applyModes(0, 0);
    eq.runUntil(ns(1000)); // asleep now
    link->enqueue(makePacket(PacketType::ReadReq, 1));
    eq.run();
    ASSERT_EQ(sink.items.size(), 1u);
    EXPECT_EQ(obs.wakes, 1);
    EXPECT_EQ(sink.items[0].when,
              ns(1000) + ns(14) + 640 + LinkTiming::kSerdesPs +
                  LinkTiming::kRouterPs);
    drainAndFree();
}

TEST_F(LinkTest, SleepGuardBlocksAndOpportunityRetries)
{
    build(BwMechanism::None, true);
    obs.allowSleep = false;
    link->applyModes(0, 0);
    eq.runUntil(us(1));
    EXPECT_EQ(link->power().rooState(), RooState::On);
    obs.allowSleep = true;
    link->noteSleepOpportunity();
    eq.runUntil(us(2));
    EXPECT_EQ(link->power().rooState(), RooState::Off);
}

TEST_F(LinkTest, ShorterThresholdAlreadyPastDueSleepsAtOnce)
{
    build(BwMechanism::None, true);
    link->applyModes(0, roo.fullModeIndex()); // 2,048 ns threshold
    eq.runUntil(ns(100));
    ASSERT_EQ(obs.sleeps, 0);
    // Idle since tick 0, so the 32 ns threshold passed long ago.
    link->applyModes(0, 0);
    eq.runUntil(ns(100));
    ASSERT_EQ(obs.sleepTicks.size(), 1u);
    EXPECT_EQ(obs.sleepTicks[0], ns(100));
    EXPECT_EQ(link->power().rooState(), RooState::Off);
}

TEST_F(LinkTest, LongerThresholdSleepsAtIdleStartPlusNewThreshold)
{
    build(BwMechanism::None, true);
    link->applyModes(0, 0); // 32 ns threshold
    link->enqueue(makePacket(PacketType::ReadReq, 1));
    // One flit: the link goes idle when serialization ends at 640 ps.
    eq.runUntil(ns(10));
    ASSERT_FALSE(link->transmitting());
    link->applyModes(0, 2); // 512 ns threshold
    drainAndFree();
    ASSERT_EQ(obs.sleepTicks.size(), 1u);
    EXPECT_EQ(obs.sleepTicks[0], 640 + ns(512));
}

TEST_F(LinkTest, SleepOpportunitySchedulesNothingUnlessIdleAndOn)
{
    const auto expectNothingScheduled = [this](const char *what) {
        const std::uint64_t scheduled = eq.scheduledTotal();
        const std::uint64_t pending = eq.pending();
        link->noteSleepOpportunity();
        EXPECT_EQ(eq.scheduledTotal(), scheduled) << what;
        EXPECT_EQ(eq.pending(), pending) << what;
    };

    build(BwMechanism::None, false);
    expectNothingScheduled("ROO off");

    build(BwMechanism::None, true);
    link->applyModes(0, 0);
    link->enqueue(makePacket(PacketType::ReadResp, 1));
    ASSERT_TRUE(link->transmitting());
    expectNothingScheduled("busy");
    drainAndFree();
    ASSERT_EQ(link->power().rooState(), RooState::Off);
    expectNothingScheduled("asleep");
    link->wakeNow();
    ASSERT_EQ(link->power().rooState(), RooState::Waking);
    expectNothingScheduled("waking");
    eq.runUntil(eq.now() + ns(14));
    ASSERT_EQ(link->power().rooState(), RooState::On);
    link->beginRetrain(us(1));
    expectNothingScheduled("retraining");
}

TEST_F(LinkTest, ExternalWakeIsHarmlessWhenIdle)
{
    build(BwMechanism::None, true);
    link->applyModes(0, 0);
    eq.runUntil(us(1));
    ASSERT_EQ(link->power().rooState(), RooState::Off);
    link->wakeNow();
    eq.runUntil(us(1) + ns(14));
    EXPECT_EQ(link->power().rooState(), RooState::On);
    // With nothing to send it goes back to sleep after the threshold.
    eq.runUntil(us(2));
    EXPECT_EQ(link->power().rooState(), RooState::Off);
}

TEST_F(LinkTest, IdleIntervalsReported)
{
    build(BwMechanism::None, false);
    link->enqueue(makePacket(PacketType::ReadReq, 1));
    eq.run();
    // Second packet after a gap; the idle interval spans from delivery
    // completion of serialization to the next enqueue.
    eq.runUntil(us(1));
    link->enqueue(makePacket(PacketType::ReadReq, 2));
    eq.run();
    // Two intervals: the initial one (0 -> first enqueue) and the gap.
    ASSERT_EQ(obs.idleIntervals.size(), 2u);
    EXPECT_EQ(obs.idleIntervals[0], 0);
    EXPECT_GT(obs.idleIntervals[1], ns(900));
    drainAndFree();
}

TEST_F(LinkTest, EnergySplitsIdleAndActive)
{
    build(BwMechanism::None, false, /*power_w=*/2.0);
    link->enqueue(makePacket(PacketType::ReadResp, 1)); // 5 flits
    eq.runUntil(us(1));
    link->finishAccounting(us(1));
    const LinkStats &s = link->stats();
    // Active: 3.2 ns of serialization at 2 W.
    EXPECT_NEAR(s.activeIoJ(), 2.0 * 3.2e-9, 1e-15);
    EXPECT_NEAR(s.idleIoJ(), 2.0 * (1e-6 - 3.2e-9), 1e-12);
    // Cause attribution: all active energy is serialization, all idle
    // energy is mode-0 floor (no ROO, no retrain).
    EXPECT_DOUBLE_EQ(s.txJ, s.activeIoJ());
    EXPECT_DOUBLE_EQ(s.idleFloorJ[0], s.idleIoJ());
    drainAndFree();
}

TEST_F(LinkTest, OffStateEnergyIsOnePercent)
{
    build(BwMechanism::None, true, /*power_w=*/2.0);
    link->applyModes(0, 0);
    eq.runUntil(us(1));
    link->finishAccounting(us(1));
    const LinkStats &s = link->stats();
    // 32 ns on + ~968 ns off at 1%.
    const double expected =
        2.0 * 32e-9 + 0.02 * (1e-6 - 32e-9);
    EXPECT_NEAR(s.idleIoJ() + s.activeIoJ(), expected, 1e-12);
    EXPECT_NEAR(s.offSeconds, 1e-6 - 32e-9, 1e-12);
    // The off-state residual is attributed to the sleep bucket.
    EXPECT_NEAR(s.sleepJ, 0.02 * (1e-6 - 32e-9), 1e-12);
    EXPECT_DOUBLE_EQ(s.txJ, 0.0);
}

TEST_F(LinkTest, EnergyIntegratesPiecewiseConstantAcrossModeChange)
{
    // Mode 0 over [0, 1 us); the 1 us VWL transition to mode 3 draws
    // the higher (mode-0) power over [1, 2 us); mode 3 over [2, 10 us).
    build(BwMechanism::Vwl, false, /*power_w=*/2.0);
    eq.runUntil(us(1));
    link->applyModes(3, 0);
    eq.runUntil(us(10));
    link->finishAccounting(us(10));
    const LinkStats &s = link->stats();
    const double pf3 = ModeTable::forMechanism(BwMechanism::Vwl)
                           .mode(3)
                           .powerFrac;
    EXPECT_NEAR(s.idleFloorJ[0], 2.0 * 1e-6, 1e-15);
    EXPECT_NEAR(s.idleFloorJ[3], 2.0 * (1e-6 + 8e-6 * pf3), 1e-15);
    EXPECT_NEAR(s.idleIoJ(), 2.0 * (2e-6 + 8e-6 * pf3), 1e-15);
    EXPECT_NEAR(s.powerFracSeconds, 2e-6 + 8e-6 * pf3, 1e-15);
    // Residency files the transition under the target mode.
    EXPECT_NEAR(s.modeSeconds[0], 1e-6, 1e-15);
    EXPECT_NEAR(s.modeSeconds[3], 9e-6, 1e-15);
}

TEST_F(LinkTest, RepeatedAccountingAtOneTickAddsNothing)
{
    build(BwMechanism::None, false, /*power_w=*/5.0);
    eq.runUntil(us(2));
    link->finishAccounting(us(2));
    const double j = link->stats().idleIoJ();
    EXPECT_NEAR(j, 5.0 * 2e-6, 1e-15);
    link->finishAccounting(us(2));
    EXPECT_DOUBLE_EQ(link->stats().idleIoJ(), j);
    // Accounting resumes at the same power after the repeat.
    eq.runUntil(us(3));
    link->finishAccounting(us(3));
    EXPECT_NEAR(link->stats().idleIoJ(), 5.0 * 3e-6, 1e-15);
}

TEST_F(LinkTest, ResetStatsRestartsIntegrationAtTheResetTick)
{
    build(BwMechanism::None, false, /*power_w=*/1.0);
    eq.runUntil(us(1));
    link->resetStats();
    eq.runUntil(us(2));
    link->finishAccounting(us(2));
    // Only [1 us, 2 us) counts: nothing from before the reset leaks in.
    EXPECT_NEAR(link->stats().idleIoJ(), 1e-6, 1e-15);
    EXPECT_NEAR(link->stats().modeSeconds[0], 1e-6, 1e-15);
}

TEST_F(LinkTest, ModeResidencyTracked)
{
    build(BwMechanism::Vwl, false);
    link->applyModes(3, 0); // 1 lane
    eq.runUntil(us(10));
    link->finishAccounting(us(10));
    const LinkStats &s = link->stats();
    EXPECT_NEAR(s.modeSeconds[3], 10e-6, 1e-12);
    EXPECT_NEAR(s.modeSeconds[0], 0.0, 1e-12);
}

TEST_F(LinkTest, UtilizationFromFlits)
{
    build(BwMechanism::None, false);
    for (int i = 0; i < 100; ++i)
        link->enqueue(makePacket(PacketType::ReadResp, i));
    eq.run();
    link->finishAccounting(eq.now());
    // 500 flits * 16 B over window.
    const double secs = 1e-5;
    EXPECT_NEAR(link->utilization(secs),
                500.0 * 16 / (Link::fullBytesPerSec() * secs), 1e-9);
    drainAndFree();
}

TEST_F(LinkTest, ResetStatsClearsCounters)
{
    build(BwMechanism::None, false);
    link->enqueue(makePacket(PacketType::ReadReq, 1));
    eq.run();
    link->resetStats();
    EXPECT_EQ(link->stats().packets, 0u);
    EXPECT_DOUBLE_EQ(link->stats().activeIoJ(), 0.0);
    drainAndFree();
}

TEST_F(LinkTest, ForceFullPowerRestoresMode)
{
    build(BwMechanism::Vwl, true);
    link->applyModes(3, 0);
    eq.runUntil(us(2));
    link->forceFullPower();
    EXPECT_EQ(link->power().modeIndex(), 0u);
    EXPECT_EQ(link->power().rooModeIndex(), roo.fullModeIndex());
}

} // namespace
} // namespace memnet
