/**
 * @file
 * Trace-driven power report: synthesize (or load) a memory access
 * trace, replay it open-loop through a chosen network, and print the
 * power report — the workflow a user with real application traces
 * would follow.
 *
 *   ./trace_power_report                    # synthesize from mixD
 *   ./trace_power_report my.trace 24        # load a trace, 24 GB space
 *
 * The synthesized trace spans the default 400 us measurement window,
 * or MEMNET_SIM_US microseconds when that is set.
 *
 * Trace format: "<time_ns> <R|W> <hex_address> <core>" per line.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "memnet/simulator.hh"
#include "net/network.hh"
#include "sim/log.hh"
#include "workload/trace.hh"

int
main(int argc, char **argv)
{
    using namespace memnet;

    SystemConfig window;
    try {
        applyRunEnvironment(std::getenv("MEMNET_SIM_US"),
                            std::getenv("MEMNET_AUDIT"), {&window, 1});
    } catch (const std::invalid_argument &e) {
        memnet_warn(e.what());
        return 1;
    }

    std::vector<TraceRecord> trace;
    std::uint64_t space_bytes;

    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        trace = readTrace(in);
        const double gb = argc > 2 ? std::atof(argv[2]) : 16.0;
        space_bytes = static_cast<std::uint64_t>(gb * (1ULL << 30));
        std::printf("Loaded %zu records from %s (%.0f GB space)\n\n",
                    trace.size(), argv[1], gb);
    } else {
        const WorkloadProfile &w = workloadByName("mixD");
        trace = generateTrace(w, window.measure, /*seed=*/42);
        space_bytes = w.footprintBytes();
        std::printf("Synthesized %zu records from profile %s "
                    "(%.0f us window)\n",
                    trace.size(), w.name.c_str(),
                    toSeconds(window.measure) * 1e6);

        // Round-trip through the text format to demonstrate it.
        std::stringstream ss;
        writeTrace(ss, trace);
        trace = readTrace(ss);
        std::printf("Round-tripped through the text format: %zu "
                    "records\n\n",
                    trace.size());
    }

    // Build a big-study star network sized for the address space.
    const int modules = static_cast<int>(
        (space_bytes + (1ULL << 30) - 1) >> 30);
    Topology topo = Topology::build(TopologyKind::Star, modules);
    topo.validate();

    EventQueue eq;
    DramParams dram;
    HmcPowerModel pm;
    RooConfig roo;
    AddressMap amap;
    amap.chunkBytes = 1ULL << 30;
    Network net(eq, topo, dram, BwMechanism::None, roo, pm, amap);

    TracePlayer player(eq, net, std::move(trace));
    player.start(0);
    net.resetStats();
    eq.run();
    const Tick end = eq.now();

    const EnergyAttribution e = net.energyAttribution(end);
    const double secs = toSeconds(end);

    std::printf("Replay finished at %.1f us simulated time "
                "(drained: %s)\n\n",
                secs * 1e6, player.drained() ? "yes" : "no");

    TextTable t({"metric", "value"});
    t.addRow({"modules", std::to_string(modules)});
    t.addRow({"reads completed",
              std::to_string(player.completedReads())});
    t.addRow({"writes retired",
              std::to_string(player.retiredWrites())});
    t.addRow({"avg read latency",
              TextTable::fmt(player.avgReadLatencyNs(), 0) + " ns"});
    t.addRow({"network energy", TextTable::fmt(e.anchorsJ() * 1e3, 2) +
                                    " mJ"});
    t.addRow({"avg network power",
              TextTable::fmt(e.anchorsJ() / secs, 2) + " W"});
    t.addRow({"idle I/O share",
              TextTable::pct(e.idleIoJ / e.anchorsJ())});
    t.addRow({"modules traversed/access",
              TextTable::fmt(net.avgModulesTraversed(), 2)});
    t.print();

    std::printf("\nTip: wrap this network in a PowerManager (see "
                "policy_tuner) to see\nhow much of that idle I/O "
                "energy management would recover.\n");
    return 0;
}
