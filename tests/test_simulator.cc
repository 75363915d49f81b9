/**
 * @file
 * End-to-end tests of the Simulator facade.
 */

#include <gtest/gtest.h>

#include <string>

#include "memnet/simulator.hh"

namespace memnet
{
namespace
{

SystemConfig
quickConfig()
{
    SystemConfig cfg;
    cfg.workload = "mixE"; // 8 GB -> 2 (small) / 8 (big) modules
    cfg.topology = TopologyKind::Star;
    cfg.sizeClass = SizeClass::Big;
    cfg.warmup = us(50);
    cfg.measure = us(200);
    return cfg;
}

TEST(Simulator, FullPowerRunProducesSaneBreakdown)
{
    const RunResult r = runSimulation(quickConfig());
    EXPECT_EQ(r.numModules, 8);
    EXPECT_GT(r.completedReads, 100u);
    EXPECT_GT(r.perHmc.totalW(), 1.0);
    EXPECT_LT(r.perHmc.totalW(), 13.4);
    // All six components present and non-negative.
    EXPECT_GT(r.perHmc.idleIoW, 0.0);
    EXPECT_GE(r.perHmc.activeIoW, 0.0);
    EXPECT_GT(r.perHmc.logicLeakW, 0.0);
    EXPECT_GE(r.perHmc.logicDynW, 0.0);
    EXPECT_GT(r.perHmc.dramLeakW, 0.0);
    EXPECT_GE(r.perHmc.dramDynW, 0.0);
    const double sum = r.perHmc.totalW() * r.numModules;
    EXPECT_NEAR(sum, r.totalNetworkPowerW, 1e-6);
}

TEST(Simulator, IdleIoDominatesAtFullPower)
{
    // The paper's headline: idle I/O is the top power contributor.
    const RunResult r = runSimulation(quickConfig());
    EXPECT_GT(r.idleIoFrac, 0.35);
    EXPECT_GT(r.perHmc.idleIoW, r.perHmc.dramLeakW);
    EXPECT_GT(r.perHmc.idleIoW, r.perHmc.logicLeakW);
}

TEST(Simulator, DeterministicForSameSeed)
{
    const RunResult a = runSimulation(quickConfig());
    const RunResult b = runSimulation(quickConfig());
    EXPECT_EQ(a.completedReads, b.completedReads);
    EXPECT_DOUBLE_EQ(a.totalNetworkPowerW, b.totalNetworkPowerW);
    EXPECT_DOUBLE_EQ(a.channelUtil, b.channelUtil);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
}

TEST(Simulator, SeedChangesChangeOutcome)
{
    SystemConfig cfg = quickConfig();
    const RunResult a = runSimulation(cfg);
    cfg.seed = 999;
    const RunResult b = runSimulation(cfg);
    EXPECT_NE(a.completedReads, b.completedReads);
}

TEST(Simulator, SmallNetworkHasFewerModules)
{
    SystemConfig cfg = quickConfig();
    cfg.sizeClass = SizeClass::Small;
    const RunResult r = runSimulation(cfg);
    EXPECT_EQ(r.numModules, 2);
}

TEST(Simulator, EveryPolicyRuns)
{
    for (Policy p : {Policy::FullPower, Policy::Unaware, Policy::Aware,
                     Policy::StaticTaper}) {
        SystemConfig cfg = quickConfig();
        cfg.policy = p;
        if (p != Policy::FullPower) {
            cfg.mechanism = BwMechanism::Vwl;
            cfg.roo = p != Policy::StaticTaper;
        }
        if (p == Policy::StaticTaper)
            cfg.interleavePages = true;
        const RunResult r = runSimulation(cfg);
        EXPECT_GT(r.completedReads, 50u) << policyName(p);
    }
}

TEST(Simulator, ManagedPowerNeverExceedsFullPowerMuch)
{
    SystemConfig fp = quickConfig();
    const RunResult base = runSimulation(fp);

    SystemConfig cfg = quickConfig();
    cfg.policy = Policy::Aware;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    const RunResult r = runSimulation(cfg);
    EXPECT_LT(r.totalNetworkPowerW, base.totalNetworkPowerW * 1.01);
}

TEST(Simulator, LinkHoursSumToLinkSeconds)
{
    SystemConfig cfg = quickConfig();
    cfg.policy = Policy::Unaware;
    cfg.mechanism = BwMechanism::Vwl;
    const RunResult r = runSimulation(cfg);
    double total = 0;
    for (const auto &row : r.linkHours)
        for (double v : row)
            total += v;
    // 2 links per module for the measured window.
    const double expect = 2.0 * r.numModules * toSeconds(cfg.measure);
    EXPECT_NEAR(total, expect, expect * 0.01);
}

TEST(Simulator, ChannelUtilTracksWorkloadTarget)
{
    SystemConfig cfg = quickConfig();
    cfg.workload = "lu.D";
    cfg.measure = us(400);
    const RunResult r = runSimulation(cfg);
    EXPECT_NEAR(r.channelUtil, 0.55, 0.12);
}

TEST(Simulator, AvgLinkUtilBelowChannelUtil)
{
    // Traffic attenuates across the network (Figure 9): the average
    // over all links is below the channel utilization.
    SystemConfig cfg = quickConfig();
    cfg.workload = "mixA"; // hot head, cold tail
    const RunResult r = runSimulation(cfg);
    EXPECT_LT(r.avgLinkUtil, r.channelUtil);
}

} // namespace
} // namespace memnet
