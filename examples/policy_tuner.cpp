/**
 * @file
 * Policy tuner: sweep the allowable-memory-slowdown factor (alpha) for
 * one workload/topology and print the resulting power/performance
 * frontier for unaware and aware management — how an operator would
 * pick alpha for a deployment.
 *
 *   ./policy_tuner [workload] [small|big]
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"
#include "memnet/simulator.hh"
#include "sim/log.hh"

int
main(int argc, char **argv)
{
    using namespace memnet;

    const std::string workload = argc > 1 ? argv[1] : "mixC";
    const SizeClass size = (argc > 2 && std::string(argv[2]) == "small")
                               ? SizeClass::Small
                               : SizeClass::Big;
    SystemConfig proto;
    proto.workload = workload;
    proto.topology = TopologyKind::Star;
    proto.sizeClass = size;
    proto.mechanism = BwMechanism::Vwl;
    proto.roo = true;
    try {
        applyRunEnvironment(std::getenv("MEMNET_SIM_US"),
                            std::getenv("MEMNET_AUDIT"), {&proto, 1});
    } catch (const std::invalid_argument &e) {
        memnet_warn(e.what());
        return 1;
    }

    std::printf("Alpha sweep for %s on a star network (%s study), "
                "VWL+ROO links\n\n",
                workload.c_str(), sizeClassName(size));

    Runner runner;
    runner.verbose = false;

    auto base = [&](Policy p, double alpha) {
        SystemConfig cfg = proto;
        cfg.policy = p;
        cfg.alphaPct = alpha;
        return cfg;
    };

    const double alphas[] = {1.0, 2.5, 5.0, 10.0, 20.0, 30.0};

    TextTable t({"alpha", "unaware: saving", "unaware: perf loss",
                 "aware: saving", "aware: perf loss"});
    for (double a : alphas) {
        const SystemConfig un = base(Policy::Unaware, a);
        const SystemConfig aw = base(Policy::Aware, a);
        t.addRow({TextTable::pct(a / 100, 1),
                  TextTable::pct(runner.powerReduction(un)),
                  TextTable::pct(runner.degradation(un)),
                  TextTable::pct(runner.powerReduction(aw)),
                  TextTable::pct(runner.degradation(aw))});
    }
    t.print();

    std::printf("\nDetailed run report at alpha = 5%% (aware):\n\n");
    const RunResult &r = runner.get(base(Policy::Aware, 5.0));
    printRunSummary(r);
    std::printf("\nPower breakdown:\n");
    printPowerBreakdown(r);
    std::printf("\nLink hours by utilization and mode:\n");
    printLinkHours(r);
    std::printf("\nPer-module detail:\n");
    printModuleReport(r);
    return 0;
}
