/**
 * @file
 * Unit tests for the [12]-derived HMC power model.
 */

#include <gtest/gtest.h>

#include "power/hmc_power_model.hh"
#include "power/power_breakdown.hh"

namespace memnet
{
namespace
{

TEST(HmcPowerModel, HighRadixPeakSplitsPerPaper)
{
    HmcPowerModel pm;
    const HmcPowerParams &p = pm.params(Radix::High);
    EXPECT_DOUBLE_EQ(p.peakTotalW, 13.4);
    EXPECT_NEAR(p.peakDramW, 13.4 * 0.43, 1e-9);
    EXPECT_NEAR(p.peakLogicW, 13.4 * 0.22, 1e-9);
    EXPECT_NEAR(p.peakIoW, 13.4 * 0.35, 1e-9);
    EXPECT_NEAR(p.peakDramW + p.peakLogicW + p.peakIoW, 13.4, 1e-9);
}

TEST(HmcPowerModel, LowRadixIsHalfOfHighRadix)
{
    HmcPowerModel pm;
    const HmcPowerParams &hi = pm.params(Radix::High);
    const HmcPowerParams &lo = pm.params(Radix::Low);
    EXPECT_NEAR(lo.peakTotalW, hi.peakTotalW / 2, 1e-9);
    EXPECT_NEAR(lo.peakIoW, hi.peakIoW / 2, 1e-9);
    EXPECT_NEAR(lo.idleDramW, hi.idleDramW / 2, 1e-9);
}

TEST(HmcPowerModel, IdleFractionsPerPaper)
{
    HmcPowerModel pm;
    const HmcPowerParams &p = pm.params(Radix::High);
    EXPECT_NEAR(p.idleDramW, 0.10 * p.peakDramW, 1e-9);
    EXPECT_NEAR(p.idleLogicW, 0.25 * p.peakLogicW, 1e-9);
}

TEST(HmcPowerModel, LinkEndPowerEqualAcrossRadix)
{
    // 35% of 13.4 W over 8 ends == 35% of 6.7 W over 4 ends.
    HmcPowerModel pm;
    EXPECT_NEAR(pm.params(Radix::High).linkEndW,
                pm.params(Radix::Low).linkEndW, 1e-9);
    EXPECT_NEAR(pm.params(Radix::High).linkEndW, 0.35 * 13.4 / 8.0,
                1e-9);
}

TEST(HmcPowerModel, FullLinkPowerIsTwoEnds)
{
    HmcPowerModel pm;
    EXPECT_EQ(pm.attribution(), IoAttribution::PerEnd);
    EXPECT_NEAR(pm.linkFullPowerW(),
                2.0 * pm.params(Radix::High).linkEndW, 1e-12);
}

TEST(HmcPowerModel, PerLinkAttributionHalvesLinkPower)
{
    HmcPowerModel per_end(IoAttribution::PerEnd);
    HmcPowerModel per_link(IoAttribution::PerLink);
    EXPECT_NEAR(per_link.linkFullPowerW(),
                per_end.linkFullPowerW() / 2.0, 1e-12);
    // Module-level parameters are unaffected by the attribution.
    EXPECT_NEAR(per_link.params(Radix::High).peakIoW,
                per_end.params(Radix::High).peakIoW, 1e-12);
}

TEST(HmcPowerModel, DramDynamicEnergyRecoversPeakPower)
{
    // Accessing at the peak internal rate must burn exactly the
    // non-leakage DRAM power.
    HmcPowerModel pm;
    const HmcPowerParams &p = pm.params(Radix::High);
    const double peak_rate =
        HmcPowerModel::kDramPeakBytesPerSec / 64.0; // accesses/s
    EXPECT_NEAR(p.dramAccessJ * peak_rate + p.idleDramW, p.peakDramW,
                1e-9);
}

TEST(HmcPowerModel, LogicDynamicEnergyRecoversPeakPower)
{
    HmcPowerModel pm;
    const HmcPowerParams &p = pm.params(Radix::High);
    const double peak_flits = HmcPowerModel::kPeakFlitsPerSecPerEnd * 8;
    EXPECT_NEAR(p.flitHopJ * peak_flits + p.idleLogicW, p.peakLogicW,
                1e-9);
}

TEST(PowerBreakdown, EnergyToPowerConversion)
{
    EnergyAttribution e;
    e.idleIoJ = 2.0;
    e.activeIoJ = 1.0;
    e.serdesLeakJ = 0.5;
    const PowerBreakdown p = PowerBreakdown::fromEnergy(e, 2.0);
    EXPECT_DOUBLE_EQ(p.idleIoW, 1.0);
    EXPECT_DOUBLE_EQ(p.activeIoW, 0.5);
    EXPECT_DOUBLE_EQ(p.logicLeakW, 0.25);
    EXPECT_DOUBLE_EQ(p.totalW(), 1.75);
    EXPECT_DOUBLE_EQ(p.ioW(), 1.5);
    EXPECT_DOUBLE_EQ(e.anchorsJ(), 3.5);
}

TEST(PowerBreakdown, ScaledDividesUniformly)
{
    PowerBreakdown p;
    p.idleIoW = 4.0;
    p.dramDynW = 2.0;
    const PowerBreakdown s = p.scaled(0.5);
    EXPECT_DOUBLE_EQ(s.idleIoW, 2.0);
    EXPECT_DOUBLE_EQ(s.dramDynW, 1.0);
}

TEST(PowerBreakdown, ZeroWindowYieldsZeroPower)
{
    EnergyAttribution e;
    e.idleIoJ = 5.0;
    const PowerBreakdown p = PowerBreakdown::fromEnergy(e, 0.0);
    EXPECT_DOUBLE_EQ(p.totalW(), 0.0);
}

} // namespace
} // namespace memnet
