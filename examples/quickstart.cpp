/**
 * @file
 * Quickstart: build a small memory network, run one workload under
 * three policies, and print the power/performance summary.
 *
 *   ./quickstart [workload] [topology]
 *
 * topology: daisychain | ternary | star | ddrx   (default star)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "memnet/simulator.hh"
#include "sim/log.hh"

namespace
{

memnet::TopologyKind
parseTopology(const std::string &s)
{
    using memnet::TopologyKind;
    if (s == "daisychain")
        return TopologyKind::DaisyChain;
    if (s == "ternary")
        return TopologyKind::TernaryTree;
    if (s == "ddrx")
        return TopologyKind::DdrxLike;
    return TopologyKind::Star;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "mixB";
    const memnet::TopologyKind topo =
        parseTopology(argc > 2 ? argv[2] : "star");

    memnet::SystemConfig cfg;
    cfg.workload = workload;
    cfg.topology = topo;
    cfg.sizeClass = memnet::SizeClass::Big;
    cfg.mechanism = memnet::BwMechanism::Vwl;
    cfg.roo = true;
    cfg.alphaPct = 5.0;
    try {
        memnet::applyRunEnvironment(std::getenv("MEMNET_SIM_US"),
                                    std::getenv("MEMNET_AUDIT"), {&cfg, 1});
    } catch (const std::invalid_argument &e) {
        memnet_warn(e.what());
        return 1;
    }

    memnet::Runner runner;
    runner.verbose = false;

    std::printf("memnet quickstart: %s on a %s network (big study)\n\n",
                workload.c_str(), memnet::topologyName(topo));

    memnet::TextTable t({"policy", "modules", "power/HMC (W)",
                         "idle I/O %", "reads/s", "perf loss"});

    for (memnet::Policy p :
         {memnet::Policy::FullPower, memnet::Policy::Unaware,
          memnet::Policy::Aware}) {
        memnet::SystemConfig c = cfg;
        c.policy = p;
        if (p == memnet::Policy::FullPower) {
            c.mechanism = memnet::BwMechanism::None;
            c.roo = false;
        }
        const memnet::RunResult &r = runner.get(c);
        t.addRow({memnet::policyName(p), std::to_string(r.numModules),
                  memnet::TextTable::fmt(r.perHmc.totalW()),
                  memnet::TextTable::pct(r.idleIoFrac),
                  memnet::TextTable::fmt(r.readsPerSec / 1e6, 1) + "M",
                  memnet::TextTable::pct(runner.degradation(c))});
    }
    t.print();

    std::printf(
        "\nVWL+ROO links under management: idle links drop to narrow\n"
        "widths or turn off entirely; network-aware management shifts\n"
        "slack toward the quiet edge of the network (see DESIGN.md).\n");
    return 0;
}
