/**
 * @file
 * The three names the event kernel keeps only so benchmark/ builds:
 * SystemConfig::partitions, PartitionLane and
 * RunProfile::partitionLanes. Each must stay inert: a partition count
 * changes no simulated result, no memoization key and no journal
 * byte, and the lanes stay empty. The benchmark's multichannel
 * workload relies on this when it checks its 4-partition repetitions
 * against a 1-partition reference. ROADMAP item 1's benchmark PR
 * removes the names, and this file with them.
 */

#include <gtest/gtest.h>

#include <string>

#include "audit/differential.hh"
#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/multichannel.hh"
#include "memnet/simulator.hh"

namespace memnet
{
namespace
{

SystemConfig
shortConfig(TopologyKind topo)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.topology = topo;
    cfg.policy = Policy::Aware;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg.warmup = us(30);
    cfg.measure = us(100);
    cfg.epochLen = us(30);
    return cfg;
}

TEST(InertPartitionNames, PartitionsFieldChangesNoSingleNetworkResult)
{
    for (TopologyKind t :
         {TopologyKind::DaisyChain, TopologyKind::TernaryTree,
          TopologyKind::Star, TopologyKind::DdrxLike}) {
        const SystemConfig one = shortConfig(t);
        SystemConfig four = one;
        four.partitions = 4;
        const RunResult r1 = runSimulation(one);
        const RunResult r4 = runSimulation(four);
        // Every journaled scalar, kernel counters included.
        const auto diffs = audit::diffRunResults(r1, r4);
        EXPECT_TRUE(diffs.empty())
            << topologyName(t) << "\n" << audit::describeDiffs(diffs);
        EXPECT_TRUE(r1.profile.partitionLanes.empty()) << topologyName(t);
        EXPECT_TRUE(r4.profile.partitionLanes.empty()) << topologyName(t);
    }
}

TEST(InertPartitionNames, PartitionsFieldChangesNoMultiChannelResult)
{
    MultiChannelConfig one;
    one.base = shortConfig(TopologyKind::Star);
    one.channels = 4;
    MultiChannelConfig four = one;
    four.base.partitions = 4;
    const MultiChannelResult m1 = runMultiChannel(one);
    const MultiChannelResult m4 = runMultiChannel(four);
    EXPECT_EQ(m1.totalPowerW, m4.totalPowerW);
    EXPECT_EQ(m1.readsPerSec, m4.readsPerSec);
    EXPECT_EQ(m1.idleIoFrac, m4.idleIoFrac);
    EXPECT_EQ(m1.channelUtil, m4.channelUtil);
    EXPECT_EQ(m1.latency.endToEnd.samples, m4.latency.endToEnd.samples);
    EXPECT_EQ(m1.latency.endToEnd.p99Ps, m4.latency.endToEnd.p99Ps);
    EXPECT_EQ(m1.energy.attribution.totalJ(),
              m4.energy.attribution.totalJ());
    EXPECT_EQ(m1.energy.occupancy.samples, m4.energy.occupancy.samples);
}

TEST(InertPartitionNames, PartitionsFieldIsInNoKeyAndNoJournalByte)
{
    SystemConfig four = shortConfig(TopologyKind::TernaryTree);
    four.partitions = 4;
    SystemConfig one = four;
    one.partitions = 1;
    EXPECT_EQ(Runner::key(four), Runner::key(one));

    // The journal writes a partition count of 1 whatever the field
    // holds, so both records are the same line.
    RunResult r;
    r.config = four;
    const std::string line4 = journalRecordLine(Runner::key(four), r);
    r.config = one;
    EXPECT_EQ(line4, journalRecordLine(Runner::key(one), r));
    EXPECT_NE(line4.find("\"partitions\":\"1\""), std::string::npos);
}

} // namespace
} // namespace memnet
