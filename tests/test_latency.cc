/**
 * @file
 * End-to-end tests of the latency observatory: the per-access
 * decomposition is exact (components sum to the end-to-end latency),
 * the sketch mean reproduces the processor's independently-computed
 * average, stall components appear exactly when their causes (link
 * sleep, retrain windows) are configured, and multi-channel runs merge
 * every channel's sketches.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "memnet/multichannel.hh"
#include "memnet/simulator.hh"

namespace memnet
{
namespace
{

SystemConfig
latBase()
{
    SystemConfig cfg;
    cfg.workload = "mixC";
    cfg.topology = TopologyKind::DaisyChain;
    cfg.sizeClass = SizeClass::Big;
    cfg.warmup = us(50);
    cfg.measure = us(200);
    return cfg;
}

/** Exact per-sample identity, summed: the components partition the
 *  end-to-end latency with no gap and no overlap. */
void
expectExactDecomposition(const LatencyBreakdown &lat)
{
    ASSERT_TRUE(lat.enabled);
    EXPECT_EQ(lat.endToEnd.sumPs,
              lat.queue.sumPs + lat.wakeStall.sumPs +
                  lat.retrainStall.sumPs + lat.serialization.sumPs +
                  lat.dram.sumPs);
    for (const LatencyPercentiles *c :
         {&lat.queue, &lat.wakeStall, &lat.retrainStall,
          &lat.serialization, &lat.dram})
        EXPECT_EQ(c->samples, lat.endToEnd.samples);
}

void
expectMonotonePercentiles(const LatencyPercentiles &p)
{
    EXPECT_LE(p.p50Ps, p.p90Ps);
    EXPECT_LE(p.p90Ps, p.p99Ps);
    EXPECT_LE(p.p99Ps, p.p999Ps);
    EXPECT_LE(p.p999Ps, p.maxPs);
}

TEST(LatencyObservatory, FullPowerRunDecomposesExactly)
{
    const RunResult r = runSimulation(latBase());
    ASSERT_TRUE(r.latency.enabled);
    EXPECT_EQ(r.latency.endToEnd.samples, r.completedReads);
    EXPECT_GT(r.latency.endToEnd.samples, 0u);
    expectExactDecomposition(r.latency);
    expectMonotonePercentiles(r.latency.endToEnd);

    // Full power, no ROO, no faults: nothing can stall on a power
    // state, so those components are exactly zero...
    EXPECT_EQ(r.latency.wakeStall.sumPs, 0u);
    EXPECT_EQ(r.latency.retrainStall.sumPs, 0u);
    EXPECT_EQ(r.latency.wakeStallSeconds, 0.0);
    EXPECT_EQ(r.latency.retrainStallSeconds, 0.0);
    // ...while serialization and DRAM service are always present.
    EXPECT_GT(r.latency.serialization.sumPs, 0u);
    EXPECT_GT(r.latency.dram.sumPs, 0u);
}

TEST(LatencyObservatory, SketchMeanMatchesProcessorAverage)
{
    // The sketch's sum is exact (only quantiles are approximate), so
    // sum/samples must reproduce the processor's independently
    // accumulated average read latency to double precision.
    const RunResult r = runSimulation(latBase());
    ASSERT_GT(r.latency.endToEnd.samples, 0u);
    const double mean_ns =
        static_cast<double>(r.latency.endToEnd.sumPs) /
        static_cast<double>(r.latency.endToEnd.samples) / 1000.0;
    EXPECT_NEAR(mean_ns, r.avgReadLatencyNs,
                1e-9 * r.avgReadLatencyNs + 1e-9);
}

TEST(LatencyObservatory, SleepingLinksProduceWakeStall)
{
    // A power-unaware policy with ROO puts links to sleep in front of
    // traffic; the wake stalls it causes must show up in the
    // decomposition — this is the component the paper's Figure 15
    // latency penalty is made of.
    SystemConfig cfg = latBase();
    cfg.workload = "mixE"; // low utilization: links actually sleep
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg.policy = Policy::Unaware;
    const RunResult r = runSimulation(cfg);
    ASSERT_TRUE(r.latency.enabled);
    expectExactDecomposition(r.latency);
    EXPECT_GT(r.latency.wakeStall.sumPs, 0u);
    EXPECT_GT(r.latency.wakeStallSeconds, 0.0);
    EXPECT_EQ(r.latency.retrainStall.sumPs, 0u); // no faults configured
}

TEST(LatencyObservatory, RetrainWindowsProduceRetrainStall)
{
    SystemConfig cfg = latBase();
    // A 5 us retrain on the root request link mid-measurement: every
    // request issued during the window queues behind it.
    cfg.faults.events.push_back(
        {FaultKind::LinkRetrain, us(100), 0, us(5), 8, 0.0});
    const RunResult r = runSimulation(cfg);
    ASSERT_TRUE(r.latency.enabled);
    expectExactDecomposition(r.latency);
    EXPECT_GT(r.latency.retrainStall.sumPs, 0u);
    EXPECT_GT(r.latency.retrainStallSeconds, 0.0);
    EXPECT_GT(r.reliability.retrains, 0u);
}

TEST(LatencyObservatory, QueuePeakIsObservedOnCongestedRuns)
{
    SystemConfig cfg = latBase();
    cfg.workload = "mixA"; // heavy enough that links queue
    const RunResult r = runSimulation(cfg);
    ASSERT_TRUE(r.latency.enabled);
    EXPECT_GE(r.latency.queuePeak, 1u);
}

TEST(LatencyObservatory, MultiChannelMergesAcrossChannels)
{
    MultiChannelConfig mc;
    mc.base = latBase();
    mc.base.topology = TopologyKind::Star;
    mc.channels = 2;
    mc.spread = ChannelSpread::InterleaveLines;
    const MultiChannelResult r = runMultiChannel(mc);
    ASSERT_TRUE(r.latency.enabled);
    EXPECT_GT(r.latency.endToEnd.samples, 0u);
    expectExactDecomposition(r.latency);
    expectMonotonePercentiles(r.latency.endToEnd);

    // And the merged sample count is the union of both channels'
    // completed reads (reads/s times the measured window): every read
    // lands in exactly one channel's sketch.
    const double secs = toSeconds(effectiveMeasure(mc.base));
    EXPECT_NEAR(static_cast<double>(r.latency.endToEnd.samples),
                r.readsPerSec * secs, 1.0);
}

} // namespace
} // namespace memnet
