/**
 * @file
 * Fault sweep — power, performance, and reliability counters as link
 * faults grow more frequent (robustness extension; not a paper figure).
 *
 * Two sweeps on the daisy chain, mixC, big network, VWL+ROO:
 *  1. retrain flapping with shrinking MTBF (transient outages), and
 *  2. steady error bursts with rising flit error rate (CRC retries).
 * Each row compares full-power against aware management: managed runs
 * must degrade gracefully — keep their power advantage while the
 * watchdog guards that no packet ever starves.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "memnet/report.hh"

namespace
{

using namespace memnet;
using namespace memnet::bench;

SystemConfig
faultConfig(Policy policy)
{
    SystemConfig cfg = makeConfig("mixC", TopologyKind::DaisyChain,
                                  SizeClass::Big, BwMechanism::Vwl,
                                  true, policy);
    return cfg;
}

std::string
num(double v, int prec = 2)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchIo io("fault_sweep", argc, argv);
    Runner runner;

    return io.run(runner, [&] {
        printBanner(
            "Fault sweep — graceful degradation under link faults",
            "Daisy chain, mixC, big network, VWL+ROO. Transient retrain\n"
            "flapping (MTBF sweep) and error-rate bursts (CRC retries).\n"
            "Aware management must keep its power advantage as faults\n"
            "grow; the stalled-read watchdog aborts on any wedged packet.");

        std::printf("\nRetrain flapping (2 us windows, per-link MTBF):\n");
        TextTable flap({"MTBF", "policy", "W/HMC", "reads/s (M)",
                        "lat (ns)", "retrains", "retrain us"});
        for (Tick mtbf : {Tick{0}, us(500), us(200), us(50)}) {
            for (Policy p : {Policy::FullPower, Policy::Aware}) {
                SystemConfig cfg = faultConfig(p);
                cfg.faults.flapMeanPeriodPs = mtbf;
                cfg.faults.flapWindowPs = us(2);
                const RunResult &r = runner.get(cfg);
                flap.addRow(
                    {mtbf ? num(toSeconds(mtbf) * 1e6, 0) + " us" : "none",
                     policyName(p), num(r.perHmc.totalW()),
                     num(r.readsPerSec / 1e6, 1), num(r.avgReadLatencyNs, 0),
                     std::to_string(r.reliability.retrains),
                     num(r.reliability.retrainSeconds * 1e6, 1)});
            }
        }
        flap.print();

        std::printf("\nError bursts (whole measurement window, all links):\n");
        TextTable burst({"flit error rate", "policy", "W/HMC",
                         "reads/s (M)", "lat (ns)", "CRC retries"});
        for (double fer : {0.0, 0.005, 0.02, 0.05}) {
            for (Policy p : {Policy::FullPower, Policy::Aware}) {
                SystemConfig cfg = faultConfig(p);
                if (fer > 0.0) {
                    cfg.faults.events.push_back({FaultKind::ErrorBurst, 0,
                                                 -1, cfg.warmup + cfg.measure,
                                                 16, fer});
                }
                const RunResult &r = runner.get(cfg);
                burst.addRow({num(fer, 3), policyName(p),
                              num(r.perHmc.totalW()),
                              num(r.readsPerSec / 1e6, 1),
                              num(r.avgReadLatencyNs, 0),
                              std::to_string(r.reliability.retries)});
            }
        }
        burst.print();

        std::printf("\nOne permanent lane failure (root request link -> x4"
                    " mid-measurement):\n");
        TextTable lane({"policy", "W/HMC", "reads/s (M)", "lat (ns)",
                        "degraded us", "violations"});
        for (Policy p : {Policy::FullPower, Policy::Aware}) {
            SystemConfig cfg = faultConfig(p);
            // Shortly after warmup, so the failure lands inside the window
            // even when MEMNET_SIM_US has shortened cfg.measure.
            cfg.faults.events.push_back(
                {FaultKind::LaneFailure, cfg.warmup + us(20), 0, us(1), 4,
                 0.0});
            const RunResult &r = runner.get(cfg);
            lane.addRow({policyName(p), num(r.perHmc.totalW()),
                         num(r.readsPerSec / 1e6, 1),
                         num(r.avgReadLatencyNs, 0),
                         num(r.reliability.degradedSeconds * 1e6, 1),
                         std::to_string(r.violations)});
        }
        lane.print();
    });
}
