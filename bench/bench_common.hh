/**
 * @file
 * Shared helpers for the per-figure bench binaries.
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
#include "memnet/journal.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"
#include "obs/prof.hh"
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
 * Shared command-line handling for the bench binaries:
 *
 *   --json <path>      dump every run as machine-readable JSON
 *                      (schema: ci/bench_schema.json) after the tables
 *   --jobs <n>         simulate the sweep on n worker threads
 *                      (0 = all hardware threads; default 1 = serial)
 *   --profile <path>   enable the host-side profiler and dump the
 *                      merged phase tree of the whole sweep (".json"
 *                      = JSON tree, else FlameGraph collapsed stacks)
 *   --partitions <n>   shard every run across n event-queue
 *                      partitions (1 = serial kernel; see
 *                      docs/PERFORMANCE.md)
 *
 * Crash-safety flags (docs/ROBUSTNESS.md):
 *
 *   --journal <path>   append every freshly executed run to a
 *                      checksummed JSONL journal, flushed per record
 *                      (schema: ci/journal_schema.json)
 *   --resume <path>    pre-load results from a journal; only configs
 *                      without a valid record re-simulate, and the
 *                      final output is byte-identical to an
 *                      uninterrupted run
 *   --failure-policy <abort|isolate>
 *                      abort (default): rethrow the first sweep
 *                      failure after the pool drains; isolate: record
 *                      failing configs, finish the sweep, exit 1 with
 *                      partial results
 *   --config-timeout <seconds>
 *                      hang watchdog: per-config wall-clock budget,
 *                      enforced by cooperative cancellation; expiry is
 *                      routed through the failure policy
 *   --failure-manifest <path>
 *                      where the isolate policy writes its
 *                      machine-readable failure report (schema:
 *                      ci/failure_manifest_schema.json)
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
 * run() executes the bench body twice when --jobs > 1: a silent
 * collect pass records every config the body requests (Runner returns
 * zeroed placeholders), a ParallelRunner simulates them concurrently,
 * and a replay pass re-runs the body against the warm cache to print
 * real numbers. Results are bit-identical to serial because each run
 * owns its EventQueue and seeded RNGs — only wall-clock differs.
 */
class BenchIo
{
  public:
    BenchIo(const std::string &bench, int argc, char **argv)
        : bench(bench)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json" && i + 1 < argc) {
                jsonPath = argv[++i];
            } else if (arg == "--jobs" && i + 1 < argc) {
                jobs = std::atoi(argv[++i]);
            } else if (arg == "--profile" && i + 1 < argc) {
                profilePath = argv[++i];
            } else if (arg == "--journal" && i + 1 < argc) {
                journalPath = argv[++i];
            } else if (arg == "--resume" && i + 1 < argc) {
                resumePath = argv[++i];
            } else if (arg == "--failure-policy" && i + 1 < argc) {
                if (!parseFailurePolicy(argv[++i], &policy)) {
                    std::fprintf(stderr,
                                 "%s: --failure-policy must be "
                                 "'abort' or 'isolate' (got '%s')\n",
                                 argv[0], argv[i]);
                    std::exit(2);
                }
            } else if (arg == "--config-timeout" && i + 1 < argc) {
                configTimeoutSec = std::atof(argv[++i]);
            } else if (arg == "--failure-manifest" && i + 1 < argc) {
                manifestPath = argv[++i];
            } else if (arg == "--partitions" && i + 1 < argc) {
                sweepPartitions() = std::atoi(argv[++i]);
                if (sweepPartitions() < 1) {
                    std::fprintf(stderr,
                                 "%s: --partitions must be >= 1\n",
                                 argv[0]);
                    std::exit(2);
                }
            } else {
                std::fprintf(
                    stderr,
                    "usage: %s [--json <path>] [--jobs <n>] "
                    "[--profile <path>] [--journal <path>] "
                    "[--resume <path>] "
                    "[--failure-policy <abort|isolate>] "
                    "[--config-timeout <seconds>] "
                    "[--failure-manifest <path>] "
                    "[--partitions <n>]\n",
                    argv[0]);
                std::exit(2);
            }
        }
    }

    /**
     * Execute the bench body (serially, or collect/execute/replay when
     * --jobs > 1) and then write the JSON dump. Returns the exit code.
     */
    int
    run(Runner &runner, const std::function<void()> &body) const
    {
        if (!profilePath.empty())
            prof::setEnabled(true);

        if (!resumePath.empty()) {
            std::map<std::string, RunResult> pool;
            JournalLoadStats stats;
            std::string err;
            if (!loadJournal(resumePath, &pool, &stats, &err)) {
                memnet_warn("--resume failed: ", err);
                return 1;
            }
            memnet_inform("resume: loaded ", stats.loaded,
                          " result(s) from ", resumePath, " (",
                          stats.corrupt, " damaged record(s) skipped)");
            runner.addResumePool(std::move(pool));
        }

        RunJournal journal(journalPath);
        if (!journalPath.empty()) {
            if (!journal.open())
                return 1;
            runner.setJournal(&journal);
        }

        int rc = 0;
        // Journal/resume work through Runner hooks alone; the engine
        // (collect/execute/replay) is needed for parallelism, failure
        // isolation, and the watchdog's monitor thread.
        const bool needEngine = resolveJobs(jobs) > 1 ||
                                policy == FailurePolicy::Isolate ||
                                configTimeoutSec > 0.0;
        if (!needEngine) {
            body();
        } else {
            ParallelRunner engine(runner, jobs);
            engine.setFailurePolicy(policy);
            engine.setConfigTimeout(configTimeoutSec);
            engine.run(collectPass(runner, body));
            body();
            rc = reportFailures(engine);
        }
        runner.setJournal(nullptr);
        if (!journalPath.empty())
            memnet_inform("journal: appended ", journal.appended(),
                          " record(s) to ", journal.path());
        const int frc = finish(runner);
        return rc != 0 ? rc : frc;
    }

    /** Write the JSON dump (if requested); returns the exit code. */
    int
    finish(const Runner &runner) const
    {
        // The profiler snapshot merges the whole sweep — worker
        // threads included, their trees are retained past the join.
        if (!profilePath.empty() && !prof::writeSnapshotFile(profilePath))
            return 1;
        if (jsonPath.empty())
            return 0;
        std::ofstream os(jsonPath);
        if (!os) {
            memnet_warn("cannot open --json output file: ", jsonPath);
            return 1;
        }
        writeBenchResultsJson(os, bench, runner.results());
        return os ? 0 : 1;
    }

  private:
    /**
     * Isolate-policy epilogue: summarize the casualties and write the
     * failure manifest when a path was given. Returns 1 when anything
     * failed, so the sweep exits non-zero alongside partial results.
     */
    int
    reportFailures(const ParallelRunner &engine) const
    {
        const std::vector<RunFailure> &failures = engine.failures();
        if (failures.empty())
            return 0;
        memnet_warn("sweep finished with ", failures.size(),
                    " failed config(s); their rows report zeros and "
                    "they are absent from --json output");
        for (const RunFailure &f : failures)
            memnet_warn("  failed: ", f.config.describe(),
                        f.timeout ? " [watchdog]" : "", ": ",
                        f.message);
        if (!manifestPath.empty()) {
            std::ofstream os(manifestPath);
            if (!os) {
                memnet_warn(
                    "cannot open --failure-manifest output file: ",
                    manifestPath);
                return 1;
            }
            writeFailureManifest(os, bench,
                                 failurePolicyName(
                                     engine.failurePolicy()),
                                 engine.configTimeout(), failures);
        }
        return 1;
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
    std::string profilePath;
    std::string journalPath;
    std::string resumePath;
    std::string manifestPath;
    FailurePolicy policy = FailurePolicy::Abort;
    double configTimeoutSec = 0.0;
    int jobs = 1;
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

/** Average a per-workload metric over all fourteen workloads. */
inline double
averageOverWorkloads(
    Runner &runner,
    const std::function<double(Runner &, const std::string &)> &metric)
{
    double sum = 0.0;
    for (const std::string &wl : workloadNames())
        sum += metric(runner, wl);
    return sum / static_cast<double>(workloadNames().size());
}

/** Maximum of a per-workload metric over all fourteen workloads. */
inline double
maxOverWorkloads(
    Runner &runner,
    const std::function<double(Runner &, const std::string &)> &metric)
{
    double best = -1e300;
    for (const std::string &wl : workloadNames()) {
        const double v = metric(runner, wl);
        if (v > best)
            best = v;
    }
    return best;
}

/** Per-HMC power averaged over workloads for one configured scheme. */
inline double
avgPerHmcPower(Runner &runner, TopologyKind topo, SizeClass size,
               BwMechanism mech, bool roo, Policy policy, double alpha)
{
    return averageOverWorkloads(
        runner, [&](Runner &r, const std::string &wl) {
            return r
                .get(makeConfig(wl, topo, size, mech, roo, policy,
                                alpha))
                .perHmc.totalW();
        });
}

} // namespace bench
} // namespace memnet

#endif // MEMNET_BENCH_BENCH_COMMON_HH
