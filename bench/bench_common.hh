/**
 * @file
 * Shared helpers for the per-figure bench binaries: the command line
 * and sweep passes (BenchIo, a thin layer over memnet::SweepFrontEnd)
 * and the standard sweep cells.
 */

#ifndef MEMNET_BENCH_BENCH_COMMON_HH
#define MEMNET_BENCH_BENCH_COMMON_HH

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"
#include "sim/log.hh"

namespace memnet
{
namespace bench
{

/**
 * Sweep-wide event-kernel partition count, installed by BenchIo from
 * --partitions and applied by makeConfig so every cell of a bench
 * sweep shards the same way. The default matches SystemConfig (serial
 * kernel).
 */
inline int &
sweepPartitions()
{
    static int partitions = 1;
    return partitions;
}

/**
 * Command line and sweep passes of the bench binaries. Every bench
 * takes the shared sweep flags (memnet::SweepOptions: --jobs,
 * --profile, --journal, --resume, --failure-policy, --config-timeout,
 * --failure-manifest; docs/ROBUSTNESS.md) plus two of its own:
 *
 *   --json <path>      dump every run as machine-readable JSON
 *                      (schema: ci/bench_schema.json) after the tables
 *   --partitions <n>   shard every run across n event-queue
 *                      partitions (1 = serial kernel; see
 *                      docs/PERFORMANCE.md)
 *
 * Usage:
 *   int main(int argc, char **argv) {
 *       bench::BenchIo io("fig5_power_breakdown", argc, argv);
 *       Runner runner;
 *       return io.run(runner, [&] {
 *           ...sweep + print tables...
 *       });
 *   }
 *
 * The constructor parses the flags and preflights every output path,
 * so a bad command line exits 2 and an unwritable path exits 1 before
 * the bench prints anything. run() executes the bench body twice: a
 * silent collect pass records every config the body requests (Runner
 * returns zeroed placeholders), the shared memnet::SweepFrontEnd
 * simulates them on --jobs threads, and a replay pass re-runs the body
 * against the warm cache to print real numbers. Results are
 * bit-identical at any --jobs because each run owns its EventQueue and
 * seeded RNGs; only wall-clock differs.
 */
class BenchIo
{
  public:
    BenchIo(const std::string &bench, int argc, char **argv)
        : bench(bench), sweep(bench, parseArgs(argc, argv))
    {
        if (!sweep.preflight({{"--json", jsonPath}}))
            std::exit(1);
    }

    /**
     * Collect, simulate and replay the bench body, then write the
     * JSON dump. Returns the exit code.
     */
    int
    run(Runner &runner, const std::function<void()> &body)
    {
        if (!sweep.run(runner, collectPass(runner, body)))
            return 1;
        body();
        const int rc = sweep.finish(runner);
        if (jsonPath.empty())
            return rc;
        std::ofstream os(jsonPath);
        if (!os) {
            memnet_warn("cannot open --json output file: ", jsonPath);
            return 1;
        }
        writeBenchResultsJson(os, bench, runner.results());
        return os ? rc : 1;
    }

  private:
    /**
     * Parse the command line into jsonPath and sweepPartitions(),
     * returning the shared flags; exits 2 on a bad flag or value. Runs
     * from the member initializers, after jsonPath is constructed.
     */
    SweepOptions
    parseArgs(int argc, char **argv)
    {
        SweepOptions opts;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string err;
            if (opts.parseFlag(argc, argv, i, &err)) {
                // a shared flag; err says what was wrong with it
            } else if ((arg == "--json" || arg == "--partitions") &&
                       i + 1 >= argc) {
                err = "missing value for " + arg;
            } else if (arg == "--json") {
                jsonPath = argv[++i];
            } else if (arg == "--partitions") {
                const std::string v = argv[++i];
                if (!parseNumber(v, &sweepPartitions()) ||
                    sweepPartitions() < 1)
                    err = "--partitions must be a whole number >= 1 "
                          "(got '" + v + "')";
            } else {
                err = "unknown flag: " + arg;
            }
            if (!err.empty()) {
                std::fprintf(stderr,
                             "%s: %s\nusage: %s [--json <path>] %s "
                             "[--partitions <n>]\n",
                             argv[0], err.c_str(), argv[0],
                             SweepOptions::usage());
                std::exit(2);
            }
        }
        return opts;
    }

    /**
     * Run the body in collect mode with stdout pointed at /dev/null and
     * warnings muted, so the pass that only discovers configs produces
     * no visible output (tables full of placeholder zeros, duplicated
     * warnings). Returns the configs the body requested.
     */
    static std::vector<SystemConfig>
    collectPass(Runner &runner, const std::function<void()> &body)
    {
        std::fflush(stdout);
        const int saved = ::dup(STDOUT_FILENO);
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::close(devnull);
        }
        LogSink prev = setLogSink([](LogLevel, const std::string &) {});

        runner.beginCollect();
        body();
        std::vector<SystemConfig> configs = runner.endCollect();

        setLogSink(std::move(prev));
        std::fflush(stdout);
        if (saved >= 0) {
            ::dup2(saved, STDOUT_FILENO);
            ::close(saved);
        }
        return configs;
    }

    std::string bench;
    std::string jsonPath;
    SweepFrontEnd sweep;
};

/** Construct the standard evaluation config for one cell of a sweep. */
inline SystemConfig
makeConfig(const std::string &workload, TopologyKind topo,
           SizeClass size, BwMechanism mech, bool roo, Policy policy,
           double alpha_pct = 5.0)
{
    SystemConfig cfg;
    cfg.workload = workload;
    cfg.topology = topo;
    cfg.sizeClass = size;
    cfg.mechanism = mech;
    cfg.roo = roo;
    cfg.policy = policy;
    cfg.alphaPct = alpha_pct;
    cfg.warmup = us(100);
    // Three epochs of measurement keep the full sweep tractable on one
    // core; MEMNET_SIM_US raises fidelity when desired.
    cfg.measure = us(300);
    cfg.partitions = sweepPartitions();
    return cfg;
}

/** Mechanism+ROO combinations of the main evaluation (Figures 11-17). */
struct Scheme
{
    const char *name;
    BwMechanism mech;
    bool roo;
};

inline const std::vector<Scheme> &
mainSchemes()
{
    static const std::vector<Scheme> v = {
        {"VWL", BwMechanism::Vwl, false},
        {"ROO", BwMechanism::None, true},
        {"VWL+ROO", BwMechanism::Vwl, true},
    };
    return v;
}

/** Per-HMC power averaged over workloads for one configured scheme. */
inline double
avgPerHmcPower(Runner &runner, TopologyKind topo, SizeClass size,
               BwMechanism mech, bool roo, Policy policy, double alpha)
{
    double sum = 0.0;
    for (const std::string &wl : workloadNames())
        sum += runner
                   .get(makeConfig(wl, topo, size, mech, roo, policy,
                                   alpha))
                   .perHmc.totalW();
    return sum / static_cast<double>(workloadNames().size());
}

} // namespace bench
} // namespace memnet

#endif // MEMNET_BENCH_BENCH_COMMON_HH
