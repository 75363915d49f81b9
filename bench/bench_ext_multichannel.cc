/**
 * @file
 * Extension experiment (the paper's declared future work, Section
 * III-C): power implications of multi-channel memory networks.
 *
 * Compares line-interleaved vs. partitioned address spreading across
 * 1/2/4 channels, full power and network-aware managed. Partitioning
 * concentrates hot data in few channels, so management can idle the
 * cold channels almost entirely — the channel-scale analogue of the
 * consolidation argument in Section VII-A.
 *
 * Takes the shared bench flags (bench_common.hh), so `--partitions N`
 * shards every run. Each cell is one
 * runMultiChannel() call rather than a Runner lookup, so `--jobs`,
 * `--journal`, `--resume` and `--json` have no runs to act on.
 */

#include <cstdio>

#include "bench_common.hh"
#include "memnet/multichannel.hh"

int
main(int argc, char **argv)
{
    using namespace memnet;
    using namespace memnet::bench;

    BenchIo io("ext_multichannel", argc, argv);
    Runner runner;
    return io.run(runner, [&] {
        if (runner.isCollecting())
            return; // nothing to prefetch: cells bypass the Runner

        printBanner(
            "Extension — multi-channel memory networks",
            "Workload mixC (hot head, cold tail), star topology, big-study "
            "mapping,\nVWL+ROO, alpha = 5%. Power in W for the whole "
            "system.");

        TextTable t({"channels", "spread", "policy", "modules", "power (W)",
                     "idle I/O", "Mreads/s", "min/max chan util"});

        for (int channels : {1, 2, 4}) {
            for (ChannelSpread spread :
                 {ChannelSpread::InterleaveLines, ChannelSpread::Partition}) {
                if (channels == 1 &&
                    spread == ChannelSpread::Partition) {
                    continue; // identical to interleave with one channel
                }
                for (Policy policy : {Policy::FullPower, Policy::Aware}) {
                    MultiChannelConfig mc;
                    mc.base = makeConfig("mixC", TopologyKind::Star,
                                         SizeClass::Big, BwMechanism::Vwl,
                                         true, policy, 5.0);
                    if (policy == Policy::FullPower) {
                        mc.base.mechanism = BwMechanism::None;
                        mc.base.roo = false;
                    }
                    mc.channels = channels;
                    mc.spread = spread;
                    const MultiChannelResult r = runMultiChannel(mc);
                    double umin = 1.0, umax = 0.0;
                    for (double u : r.channelUtil) {
                        umin = std::min(umin, u);
                        umax = std::max(umax, u);
                    }
                    t.addRow({std::to_string(channels),
                              channelSpreadName(spread),
                              policyName(policy),
                              std::to_string(r.totalModules),
                              TextTable::fmt(r.totalPowerW),
                              TextTable::pct(r.idleIoFrac),
                              TextTable::fmt(r.readsPerSec / 1e6, 0),
                              TextTable::pct(umin, 0) + "/" +
                                  TextTable::pct(umax, 0)});
                }
            }
        }
        t.print();

        std::printf(
            "\nExpected reading: interleaving equalizes channel "
            "utilization (min~max);\npartitioning skews it, and managed "
            "partitioned systems save the most\npower because whole cold "
            "channels drop to the lowest link modes.\n");
    });
}
