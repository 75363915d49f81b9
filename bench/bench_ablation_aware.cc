/**
 * @file
 * Ablation study of the network-aware manager's design choices (not a
 * paper figure; backs the DESIGN.md discussion). Each row disables one
 * Section-VI ingredient and reports power and performance deltas on
 * big networks at alpha = 5% with VWL+ROO links.
 */

#include <cstdio>

#include "bench_common.hh"

namespace
{

using namespace memnet;
using namespace memnet::bench;

struct Variant
{
    const char *name;
    AwareOptions features;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchIo io("ablation_aware", argc, argv);

    printBanner(
        "Ablation — network-aware management ingredients",
        "Big networks, VWL+ROO, alpha = 5%; averaged over 14 workloads "
        "x 4 topologies.\nEach variant disables one Section-VI "
        "mechanism.");

    std::vector<Variant> variants;
    variants.push_back({"full scheme", {}});
    {
        AwareOptions f;
        f.ispIterations = 1;
        variants.push_back({"1 ISP iteration", f});
    }
    {
        AwareOptions f;
        f.ispIterations = 2;
        variants.push_back({"2 ISP iterations", f});
    }
    {
        AwareOptions f;
        f.congestionDiscount = false;
        variants.push_back({"no congestion discount", f});
    }
    {
        AwareOptions f;
        f.wakeCoordination = false;
        variants.push_back({"no wakeup coordination", f});
    }
    {
        AwareOptions f;
        f.grantPool = false;
        variants.push_back({"no AMS grant pool", f});
    }

    Runner runner;

    return io.run(runner, [&] {
        TextTable t({"variant", "power reduction vs FP",
                     "avg perf degradation", "max perf degradation"});
        for (const Variant &v : variants) {
            double pr = 0.0, deg = 0.0, mx = -1.0;
            int n = 0;
            for (TopologyKind topo : allTopologies()) {
                for (const std::string &wl : workloadNames()) {
                    SystemConfig cfg =
                        makeConfig(wl, topo, SizeClass::Big,
                                   BwMechanism::Vwl, true, Policy::Aware,
                                   5.0);
                    cfg.aware = v.features;
                    pr += runner.powerReduction(cfg);
                    const double d = runner.degradation(cfg);
                    deg += d;
                    mx = std::max(mx, d);
                    ++n;
                }
            }
            t.addRow({v.name, TextTable::pct(pr / n),
                      TextTable::pct(deg / n), TextTable::pct(mx)});
        }
        t.print();

        std::printf(
            "\nExpected reading: fewer ISP iterations leave AMS stranded "
            "at busy links;\ndisabling wakeup coordination exposes "
            "response-link wake latency (worse\nperformance or less ROO "
            "saving); the grant pool mainly trims the tail.\n");
    });
}
