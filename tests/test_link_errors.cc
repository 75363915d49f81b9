/**
 * @file
 * Tests for the link CRC/retry error model.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "memnet/simulator.hh"
#include "net/link.hh"
#include "sim/event_queue.hh"

namespace memnet
{
namespace
{

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
makeResp()
{
    Packet *p = new Packet;
    p->type = PacketType::ReadResp;
    p->flits = 5;
    return p;
}

class LinkErrorTest : public ::testing::Test
{
  protected:
    void
    build(double fer)
    {
        errors.flitErrorRate = fer;
        link = std::make_unique<Link>(
            eq, 0, LinkType::Request, 0,
            &ModeTable::forMechanism(BwMechanism::None), &roo, 1.0,
            &sink, &errors);
    }

    EventQueue eq;
    RooConfig roo;
    LinkErrorModel errors;
    CountSink sink;
    std::unique_ptr<Link> link;
};

TEST_F(LinkErrorTest, CleanLinkNeverRetries)
{
    build(0.0);
    for (int i = 0; i < 200; ++i)
        link->enqueue(makeResp());
    eq.run();
    EXPECT_EQ(sink.delivered, 200);
    EXPECT_EQ(link->stats().retries, 0u);
}

TEST_F(LinkErrorTest, NoisyLinkRetriesButDelivers)
{
    build(0.02); // ~10% packet error for 5 flits
    for (int i = 0; i < 500; ++i)
        link->enqueue(makeResp());
    eq.run();
    EXPECT_EQ(sink.delivered, 500);
    EXPECT_GT(link->stats().retries, 10u);
    EXPECT_LT(link->stats().retries, 200u);
    // Retransmitted flits count toward utilization/energy.
    EXPECT_EQ(link->stats().flits,
              5 * (500 + link->stats().retries));
}

TEST_F(LinkErrorTest, RetriesAddLatency)
{
    build(0.0);
    link->enqueue(makeResp());
    eq.run();
    const Tick clean = sink.last;

    // Same single packet on a very noisy link takes longer.
    EventQueue eq2;
    CountSink sink2;
    LinkErrorModel noisy;
    noisy.flitErrorRate = 0.2;
    Link link2(eq2, 0, LinkType::Request, 0,
               &ModeTable::forMechanism(BwMechanism::None), &roo, 1.0,
               &sink2, &noisy);
    int attempts = 0;
    while (sink2.delivered == 0 && attempts < 50) {
        // A fresh packet per attempt would skew stats; just run once —
        // the retry loop is internal.
        if (attempts++ == 0)
            link2.enqueue(makeResp());
        eq2.run();
    }
    ASSERT_EQ(sink2.delivered, 1);
    EXPECT_GE(sink2.last, clean);
}

/** Records every idle interval the link reports. */
struct IdleRecorder : public LinkObserver
{
    std::vector<std::pair<Tick, Tick>> intervals;
    void
    onIdleEnd(Link &, Tick idle_start, Tick now) override
    {
        intervals.emplace_back(idle_start, now);
    }
};

/**
 * Regression: a CRC retry lands after the NAK turnaround like a fresh
 * arrival. If the link went idle in between, the retry must close the
 * idle interval (otherwise the ROO histogram sees the retry's own
 * transmission as idleness). Fully deterministic: the first attempt
 * fails at rate 1.0, then the override drops the rate to zero.
 */
TEST_F(LinkErrorTest, RetryLandingOnIdleLinkClosesIdleInterval)
{
    errors.flitErrorRate = 1.0;
    errors.retryDelayPs = us(1);
    IdleRecorder rec;
    Link link2(eq, 0, LinkType::Request, 0,
               &ModeTable::forMechanism(BwMechanism::None), &roo, 1.0,
               &sink, &errors);
    link2.setObserver(&rec);

    link2.enqueue(makeResp()); // NAKed at t=3200
    eq.schedule(ns(4), [&] {
        link2.setErrorRateOverride(0.0);
        link2.enqueue(makeResp()); // clean, done at t=7200
    });
    eq.run();

    EXPECT_EQ(sink.delivered, 2);
    EXPECT_EQ(link2.stats().retries, 1u);
    EXPECT_EQ(link2.stats().packets, 2u);
    // Interval 1 is the trivial one ending at the first enqueue; the
    // retry landing at 3200 + retryDelay must close interval 2, which
    // started when the clean packet finished serializing.
    ASSERT_EQ(rec.intervals.size(), 2u);
    EXPECT_EQ(rec.intervals[1].first, Tick{7200});
    EXPECT_EQ(rec.intervals[1].second, us(1) + Tick{3200});
}

/**
 * Regression: a retry landing on a link that slept during the NAK
 * turnaround must wake it — re-queuing without the wake wedges the
 * packet forever (tryStart returns while the link is off and nothing
 * else will ever call it).
 */
TEST_F(LinkErrorTest, RetryLandingOnSleepingLinkWakesIt)
{
    RooConfig roo_on;
    roo_on.enabled = true;
    errors.flitErrorRate = 1.0;
    errors.retryDelayPs = us(1);
    Link link2(eq, 0, LinkType::Request, 0,
               &ModeTable::forMechanism(BwMechanism::None), &roo_on,
               1.0, &sink, &errors);
    link2.applyModes(0, 0); // 32 ns idle threshold

    link2.enqueue(makeResp());
    eq.schedule(ns(4), [&] {
        link2.setErrorRateOverride(0.0);
        link2.enqueue(makeResp());
    });
    // After the clean packet the link idles and turns off well before
    // the retry lands at ~1.003 us.
    eq.run();

    EXPECT_EQ(sink.delivered, 2);
    EXPECT_EQ(link2.stats().retries, 1u);
    EXPECT_GT(link2.stats().offSeconds, 0.0);
}

/** A retry landing mid-retrain waits for the window, nothing is lost. */
TEST_F(LinkErrorTest, RetryLandingDuringRetrainWaitsForTheWindow)
{
    errors.flitErrorRate = 1.0;
    errors.retryDelayPs = us(1);
    Link link2(eq, 0, LinkType::Request, 0,
               &ModeTable::forMechanism(BwMechanism::None), &roo, 1.0,
               &sink, &errors);

    link2.enqueue(makeResp());
    eq.schedule(ns(4), [&] { link2.setErrorRateOverride(0.0); });
    // Window spans the retry's landing tick (~1.003 us).
    eq.schedule(us(1), [&] { link2.beginRetrain(ns(100)); });
    eq.run();

    EXPECT_EQ(sink.delivered, 1);
    EXPECT_EQ(link2.stats().retrains, 1u);
    EXPECT_EQ(link2.stats().replays, 0u); // link was quiet at injection
    // Serialization restarts only after the retrain window closes.
    EXPECT_GE(sink.last, us(1) + ns(100) + ns(3));
}

TEST_F(LinkErrorTest, SystemLevelErrorsInflatePowerAndLatency)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.topology = TopologyKind::Star;
    cfg.sizeClass = SizeClass::Big;
    cfg.warmup = us(50);
    cfg.measure = us(200);
    const RunResult clean = runSimulation(cfg);
    cfg.linkFlitErrorRate = 0.02;
    const RunResult noisy = runSimulation(cfg);
    EXPECT_GT(noisy.avgReadLatencyNs, clean.avgReadLatencyNs);
    // Retransmissions burn extra active-I/O energy.
    EXPECT_GT(noisy.perHmc.activeIoW, clean.perHmc.activeIoW);
    EXPECT_EQ(noisy.completedReads + 0, noisy.completedReads); // sane
    EXPECT_GT(noisy.completedReads, 1000u);
}

} // namespace
} // namespace memnet
