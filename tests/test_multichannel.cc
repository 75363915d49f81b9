/**
 * @file
 * Tests for the multi-channel extension.
 */

#include <gtest/gtest.h>

#include "memnet/multichannel.hh"

namespace memnet
{
namespace
{

MultiChannelConfig
baseConfig(int channels, ChannelSpread spread)
{
    MultiChannelConfig mc;
    mc.base.workload = "mixC"; // 13 GB, hot head / cold tail
    mc.base.topology = TopologyKind::Star;
    mc.base.sizeClass = SizeClass::Big;
    mc.base.warmup = us(50);
    mc.base.measure = us(200);
    mc.channels = channels;
    mc.spread = spread;
    return mc;
}

TEST(MultiChannel, SingleChannelMatchesModuleCount)
{
    const MultiChannelResult r =
        runMultiChannel(baseConfig(1, ChannelSpread::InterleaveLines));
    EXPECT_EQ(r.totalModules, 13);
    EXPECT_EQ(r.channelPower.size(), 1u);
    EXPECT_GT(r.readsPerSec, 0.0);
}

TEST(MultiChannel, ChannelsSplitTheFootprint)
{
    const MultiChannelResult r =
        runMultiChannel(baseConfig(4, ChannelSpread::InterleaveLines));
    ASSERT_EQ(r.channelModules.size(), 4u);
    for (int m : r.channelModules)
        EXPECT_EQ(m, 4); // ceil(13/4 GB) at 1 GB per module
}

TEST(MultiChannel, InterleaveBalancesChannelUtilization)
{
    const MultiChannelResult r =
        runMultiChannel(baseConfig(4, ChannelSpread::InterleaveLines));
    double umin = 1.0, umax = 0.0;
    for (double u : r.channelUtil) {
        umin = std::min(umin, u);
        umax = std::max(umax, u);
    }
    EXPECT_GT(umin, 0.0);
    EXPECT_LT(umax - umin, 0.10);
}

TEST(MultiChannel, PartitionSkewsChannelUtilization)
{
    const MultiChannelResult r =
        runMultiChannel(baseConfig(4, ChannelSpread::Partition));
    // mixC's CDF puts ~60% of accesses in the first ~35% of space, so
    // channel 0 must be far busier than channel 3.
    ASSERT_EQ(r.channelUtil.size(), 4u);
    EXPECT_GT(r.channelUtil[0], 2.0 * r.channelUtil[3]);
}

TEST(MultiChannel, ScalingChannelsScalesThroughput)
{
    const MultiChannelResult one =
        runMultiChannel(baseConfig(1, ChannelSpread::InterleaveLines));
    const MultiChannelResult four =
        runMultiChannel(baseConfig(4, ChannelSpread::InterleaveLines));
    // rateScale = channels: aggregate throughput should grow
    // substantially (not necessarily 4x — cores saturate).
    EXPECT_GT(four.readsPerSec, 2.0 * one.readsPerSec);
}

TEST(MultiChannel, ManagementSavesMoreWithPartitionSpread)
{
    MultiChannelConfig fp = baseConfig(4, ChannelSpread::Partition);
    MultiChannelConfig managed = fp;
    managed.base.policy = Policy::Aware;
    managed.base.mechanism = BwMechanism::Vwl;
    managed.base.roo = true;

    MultiChannelConfig fp_il =
        baseConfig(4, ChannelSpread::InterleaveLines);
    MultiChannelConfig managed_il = fp_il;
    managed_il.base.policy = Policy::Aware;
    managed_il.base.mechanism = BwMechanism::Vwl;
    managed_il.base.roo = true;

    const double save_part =
        1.0 - runMultiChannel(managed).totalPowerW /
                  runMultiChannel(fp).totalPowerW;
    const double save_il =
        1.0 - runMultiChannel(managed_il).totalPowerW /
                  runMultiChannel(fp_il).totalPowerW;
    EXPECT_GT(save_part, 0.0);
    EXPECT_GT(save_il, 0.0);
    // Partitioning concentrates idleness -> at least as much saving.
    EXPECT_GE(save_part, save_il - 0.03);
}

TEST(MultiChannel, InvalidChannelCountDies)
{
    MultiChannelConfig mc =
        baseConfig(0, ChannelSpread::InterleaveLines);
    EXPECT_DEATH(runMultiChannel(mc), "at least one channel");
}

} // namespace
} // namespace memnet
