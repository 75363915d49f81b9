/**
 * @file
 * Topology planner: given a memory capacity requirement, compare the
 * four network shapes on hop distance, radix mix, full-power draw and
 * managed power draw — the "which network should I build?" question a
 * system architect would ask this library.
 *
 *   ./topology_planner [capacity_gb] [workload]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "memnet/simulator.hh"
#include "net/topology.hh"
#include "sim/log.hh"

int
main(int argc, char **argv)
{
    using namespace memnet;

    const int capacity_gb = argc > 1 ? std::atoi(argv[1]) : 16;
    const std::string workload = argc > 2 ? argv[2] : "mixA";
    const int modules = std::max(1, (capacity_gb + 3) / 4); // 4 GB HMCs
    SystemConfig proto;
    proto.workload = workload;
    proto.sizeClass = SizeClass::Small;
    try {
        applyRunEnvironment(std::getenv("MEMNET_SIM_US"),
                            std::getenv("MEMNET_AUDIT"), {&proto, 1});
    } catch (const std::invalid_argument &e) {
        memnet_warn(e.what());
        return 1;
    }

    std::printf("Planning a %d GB memory network (%d x 4 GB HMCs), "
                "evaluated with workload %s\n\n",
                capacity_gb, modules, workload.c_str());

    // Static shape properties.
    {
        TextTable t({"topology", "max hops", "avg hops", "high-radix",
                     "low-radix"});
        for (TopologyKind k : allTopologies()) {
            Topology topo = Topology::build(k, modules);
            int maxd = 0, high = 0;
            double avgd = 0;
            for (int m = 0; m < modules; ++m) {
                maxd = std::max(maxd, topo.hopDistance(m));
                avgd += topo.hopDistance(m);
                high += topo.radix(m) == Radix::High;
            }
            t.addRow({topologyName(k), std::to_string(maxd),
                      TextTable::fmt(avgd / modules, 2),
                      std::to_string(high),
                      std::to_string(modules - high)});
        }
        std::printf("-- shape --\n");
        t.print();
    }

    // Simulated power/performance, full power vs managed.
    Runner runner;
    runner.verbose = false;
    std::printf("\n-- simulated with %s (small study mapping) --\n",
                workload.c_str());
    TextTable t({"topology", "FP W/HMC", "managed W/HMC", "saving",
                 "perf loss", "avg latency"});
    for (TopologyKind k : allTopologies()) {
        SystemConfig cfg = proto;
        cfg.topology = k;
        const RunResult &fp = runner.get(cfg);

        SystemConfig managed = cfg;
        managed.policy = Policy::Aware;
        managed.mechanism = BwMechanism::Vwl;
        managed.roo = true;
        const RunResult &mg = runner.get(managed);

        t.addRow({topologyName(k), TextTable::fmt(fp.perHmc.totalW()),
                  TextTable::fmt(mg.perHmc.totalW()),
                  TextTable::pct(1 - mg.totalNetworkPowerW /
                                         fp.totalNetworkPowerW),
                  TextTable::pct(runner.degradation(managed)),
                  TextTable::fmt(mg.avgReadLatencyNs, 0) + "ns"});
    }
    t.print();

    std::printf(
        "\nReading the table: trees minimize hops (latency) but pay "
        "high-radix\nleakage on every module; chains are cheap but "
        "deep; star/DDRx-like\nbalance the two and respond best to "
        "power management.\n");
    return 0;
}
