/**
 * @file
 * memnet_run — command-line front end for single simulation runs.
 *
 *   ./memnet_run --workload mixB --topology star --size big \
 *                --mech vwl --roo --policy aware --alpha 5 \
 *                --report summary,power,modules
 *
 * Flags (all optional):
 *   --workload <name>      one of the 14 profiles        [mixA]
 *   --topology <t>         daisychain|ternary|star|ddrx  [star]
 *   --size <s>             small|big                     [small]
 *   --mech <m>             none|vwl|dvfs                 [none]
 *   --roo                  enable rapid on/off           [off]
 *   --wakeup-ns <n>        ROO wakeup latency            [14]
 *   --policy <p>           fp|unaware|aware|static       [fp]
 *   --alpha <pct>          allowable memory slowdown     [5]
 *   --measure-us <n>       measurement window            [400]
 *   --seed <n>             run seed                      [1]
 *   --seeds <k>            replicate over k seeds        [1]
 *   --jobs <n>             threads for the seed sweep
 *                          (0 = all hardware threads)    [1]
 *   --fer <p>              flit error rate (CRC retry)   [0]
 *   --audit                run the invariant auditor     [Debug: always]
 *   --report <list>        summary,power,modules,links   [summary]
 *   --partitions <n>       shard the run across n event-queue
 *                          partitions, bit-identical to the serial
 *                          kernel (docs/PERFORMANCE.md)   [1]
 *   --profile <path>       host-side profiler dump; ".json" gets the
 *                          phase tree, anything else FlameGraph
 *                          collapsed stacks (docs/PERFORMANCE.md)
 *
 * Numeric values must be whole numbers (decimals for --alpha, --fer and
 * --config-timeout); --measure-us and --seeds must be positive. A bad
 * value, like an unknown flag or name, exits 2 with a one-line usage
 * message.
 *
 * Crash-safety flags (docs/ROBUSTNESS.md; same semantics as the bench
 * binaries):
 *   --journal <path>          append completed runs to a checksummed
 *                             JSONL journal, flushed per record
 *   --resume <path>           pre-load results from a journal; only
 *                             missing configs re-simulate
 *   --failure-policy <p>      abort|isolate                 [abort]
 *   --config-timeout <sec>    per-run wall-clock budget (hang
 *                             watchdog); 0 disables          [0]
 *   --failure-manifest <path> isolate-policy failure report (JSON)
 *
 * With --seeds k > 1 the run is replicated over seeds seed..seed+k-1
 * (concurrently when --jobs > 1; results are identical to serial) and
 * a per-seed summary table plus the mean replaces the single-run
 * report.
 *
 * Every run records the latency and energy observatories (per-access
 * latency decomposition, per-joule attribution); they reach the
 * summary, the stats dump and the journal. Observability outputs
 * (see docs/OBSERVABILITY.md; all off by default and guaranteed not to
 * change the simulation):
 *   --stats-json <path>    the run's bench JSON record plus its
 *                          end-of-run link, module, manager and
 *                          event-queue counters
 *   --epoch-jsonl <path>   per-epoch time-series (JSON Lines)
 *   --chrome-trace <path>  Chrome/Perfetto trace of link power states
 *   --debug-trace <spec>   MEMNET_TRACE filter, e.g. "LinkPM:2,ISP"
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"
#include "memnet/simulator.hh"
#include "obs/prof.hh"
#include "sim/log.hh"

namespace
{

using namespace memnet;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "memnet_run: %s (see the header comment for "
                         "flags)\n",
                 msg);
    std::exit(2);
}

/** All of @p v as a T, or a usage error naming @p flag. */
template <typename T>
T
parseNumber(const std::string &v, const char *flag)
{
    T out{};
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (v.empty() || ec != std::errc() || ptr != end)
        usage((std::string("bad ") + flag + " value: '" + v + "'").c_str());
    return out;
}

SizeClass
parseSize(const std::string &v)
{
    if (v == "small")
        return SizeClass::Small;
    if (v == "big")
        return SizeClass::Big;
    usage("unknown size");
}

TopologyKind
parseTopology(const std::string &v)
{
    if (v == "daisychain")
        return TopologyKind::DaisyChain;
    if (v == "ternary")
        return TopologyKind::TernaryTree;
    if (v == "star")
        return TopologyKind::Star;
    if (v == "ddrx")
        return TopologyKind::DdrxLike;
    usage("unknown topology");
}

BwMechanism
parseMech(const std::string &v)
{
    if (v == "none")
        return BwMechanism::None;
    if (v == "vwl")
        return BwMechanism::Vwl;
    if (v == "dvfs")
        return BwMechanism::Dvfs;
    usage("unknown mechanism");
}

Policy
parsePolicy(const std::string &v)
{
    if (v == "fp")
        return Policy::FullPower;
    if (v == "unaware")
        return Policy::Unaware;
    if (v == "aware")
        return Policy::Aware;
    if (v == "static")
        return Policy::StaticTaper;
    usage("unknown policy");
}

/**
 * Fail fast on an unwritable output path instead of simulating for
 * minutes and then only warning. Opened for append, so an existing
 * file's contents survive the probe.
 */
bool
preflightWritable(const std::string &path, const char *flag)
{
    if (path.empty())
        return true;
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        std::fprintf(stderr, "memnet_run: cannot open %s output file: %s\n",
                     flag, path.c_str());
        return false;
    }
    return true;
}

/** Crash-safety options shared by the single-run and --seeds paths. */
struct RobustnessOpts
{
    std::string journalPath;
    std::string resumePath;
    std::string manifestPath;
    FailurePolicy policy = FailurePolicy::Abort;
    double configTimeoutSec = 0.0;

    /** Does the single-run path need the Runner/engine machinery? */
    bool
    engaged() const
    {
        return !journalPath.empty() || !resumePath.empty() ||
               policy == FailurePolicy::Isolate || configTimeoutSec > 0.0;
    }
};

/** --resume load + --journal attach; false = exit 1. */
bool
attachRunner(Runner &runner, RunJournal &journal,
             const RobustnessOpts &opts)
{
    if (!opts.resumePath.empty()) {
        std::map<std::string, RunResult> pool;
        JournalLoadStats stats;
        std::string err;
        if (!loadJournal(opts.resumePath, &pool, &stats, &err)) {
            std::fprintf(stderr, "memnet_run: --resume failed: %s\n",
                         err.c_str());
            return false;
        }
        memnet_inform("resume: loaded ", stats.loaded, " result(s) from ",
                      opts.resumePath, " (", stats.corrupt,
                      " damaged record(s) skipped)");
        runner.addResumePool(std::move(pool));
    }
    if (!opts.journalPath.empty()) {
        if (!journal.open())
            return false;
        runner.setJournal(&journal);
    }
    return true;
}

/** Warn + write the failure manifest; 1 when anything failed. */
int
reportFailures(const ParallelRunner &engine, const RobustnessOpts &opts)
{
    const std::vector<RunFailure> &failures = engine.failures();
    if (failures.empty())
        return 0;
    for (const RunFailure &f : failures)
        memnet_warn("failed: ", f.config.describe(),
                    f.timeout ? " [watchdog]" : "", ": ", f.message);
    if (!opts.manifestPath.empty()) {
        std::ofstream os(opts.manifestPath);
        if (!os) {
            memnet_warn("cannot open --failure-manifest output file: ",
                        opts.manifestPath);
            return 1;
        }
        writeFailureManifest(os, "memnet_run",
                             failurePolicyName(engine.failurePolicy()),
                             engine.configTimeout(), failures);
    }
    return 1;
}

/**
 * One-line crash-safety accounting, printed whenever --journal or
 * --resume is active: how many runs this process actually simulated
 * versus how many were served from the resume pool. Makes a resumed
 * sweep's "did it skip the finished work?" question answerable from
 * the console instead of by diffing journals.
 */
void
printCrashSafetySummary(const Runner &runner, const RobustnessOpts &opts)
{
    if (opts.journalPath.empty() && opts.resumePath.empty())
        return;
    std::printf("crash-safety: %d run(s) executed, %llu resumed from "
                "journal%s%s\n",
                runner.runsExecuted(),
                static_cast<unsigned long long>(runner.resumedHits()),
                opts.journalPath.empty() ? "" : "; journaling to ",
                opts.journalPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    cfg.workload = "mixA";
    cfg.topology = TopologyKind::Star;
    std::string report = "summary";
    std::string profilePath;
    RobustnessOpts ropts;
    int seeds = 1;
    int jobs = 1;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage("missing flag value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload") {
            cfg.workload = need(i);
        } else if (a == "--topology") {
            cfg.topology = parseTopology(need(i));
        } else if (a == "--size") {
            cfg.sizeClass = parseSize(need(i));
        } else if (a == "--mech") {
            cfg.mechanism = parseMech(need(i));
        } else if (a == "--roo") {
            cfg.roo = true;
        } else if (a == "--wakeup-ns") {
            cfg.rooWakeupPs = ns(parseNumber<long>(need(i), "--wakeup-ns"));
        } else if (a == "--policy") {
            cfg.policy = parsePolicy(need(i));
        } else if (a == "--alpha") {
            cfg.alphaPct = parseNumber<double>(need(i), "--alpha");
        } else if (a == "--measure-us") {
            const long v = parseNumber<long>(need(i), "--measure-us");
            if (v <= 0)
                usage("--measure-us must be positive");
            cfg.measure = us(v);
        } else if (a == "--seed") {
            cfg.seed = parseNumber<std::uint64_t>(need(i), "--seed");
        } else if (a == "--seeds") {
            seeds = parseNumber<int>(need(i), "--seeds");
            if (seeds <= 0)
                usage("--seeds must be positive");
        } else if (a == "--jobs") {
            jobs = parseNumber<int>(need(i), "--jobs");
        } else if (a == "--fer") {
            cfg.linkFlitErrorRate = parseNumber<double>(need(i), "--fer");
        } else if (a == "--interleave") {
            cfg.interleavePages = true;
        } else if (a == "--audit") {
            cfg.audit = true;
        } else if (a == "--partitions") {
            cfg.partitions = parseNumber<int>(need(i), "--partitions");
            if (cfg.partitions < 1)
                usage("--partitions must be >= 1");
        } else if (a == "--report") {
            report = need(i);
        } else if (a == "--profile") {
            profilePath = need(i);
        } else if (a == "--journal") {
            ropts.journalPath = need(i);
        } else if (a == "--resume") {
            ropts.resumePath = need(i);
        } else if (a == "--failure-policy") {
            if (!parseFailurePolicy(need(i), &ropts.policy))
                usage("--failure-policy must be 'abort' or 'isolate'");
        } else if (a == "--config-timeout") {
            ropts.configTimeoutSec =
                parseNumber<double>(need(i), "--config-timeout");
        } else if (a == "--failure-manifest") {
            ropts.manifestPath = need(i);
        } else if (a == "--stats-json") {
            cfg.obs.statsJsonPath = need(i);
        } else if (a == "--epoch-jsonl") {
            cfg.obs.epochJsonlPath = need(i);
        } else if (a == "--chrome-trace") {
            cfg.obs.chromeTracePath = need(i);
        } else if (a == "--debug-trace") {
            cfg.obs.traceSpec = need(i);
        } else if (a == "--help" || a == "-h") {
            usage("help requested");
        } else {
            usage(("unknown flag: " + a).c_str());
        }
    }
    if (cfg.policy == Policy::StaticTaper)
        cfg.interleavePages = true;

    // Fail before simulating, not after: a typo'd output directory used
    // to cost the whole run and exit 0 with only a warning.
    if (!preflightWritable(cfg.obs.statsJsonPath, "--stats-json") ||
        !preflightWritable(cfg.obs.epochJsonlPath, "--epoch-jsonl") ||
        !preflightWritable(cfg.obs.chromeTracePath, "--chrome-trace"))
        return 1;

    if (!profilePath.empty())
        prof::setEnabled(true);

    RunJournal journal(ropts.journalPath);

    if (seeds > 1) {
        if (!cfg.obs.statsJsonPath.empty() ||
            !cfg.obs.epochJsonlPath.empty() ||
            !cfg.obs.chromeTracePath.empty()) {
            usage("observability outputs would collide across seed "
                  "replicas; use --seeds 1");
        }
        std::vector<SystemConfig> replicas;
        for (int s = 0; s < seeds; ++s) {
            SystemConfig c = cfg;
            c.seed = cfg.seed + static_cast<std::uint64_t>(s);
            replicas.push_back(c);
        }
        Runner runner;
        if (!attachRunner(runner, journal, ropts))
            return 1;
        ParallelRunner engine(runner, jobs);
        engine.setFailurePolicy(ropts.policy);
        engine.setConfigTimeout(ropts.configTimeoutSec);
        try {
            engine.run(replicas);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "memnet_run: sweep failed: %s\n",
                         e.what());
            return 1;
        }
        const int failRc = reportFailures(engine, ropts);

        TextTable t({"seed", "reads/s", "net power (W)", "per-HMC (W)"});
        double sumReads = 0.0, sumPower = 0.0, sumHmc = 0.0;
        std::vector<const RunResult *> runs;
        for (const SystemConfig &c : replicas) {
            const RunResult &r = runner.get(c);
            runs.push_back(&r);
            t.addRow({std::to_string(c.seed),
                      TextTable::fmt(r.readsPerSec, 0),
                      TextTable::fmt(r.totalNetworkPowerW),
                      TextTable::fmt(r.perHmc.totalW())});
            sumReads += r.readsPerSec;
            sumPower += r.totalNetworkPowerW;
            sumHmc += r.perHmc.totalW();
        }
        const double n = seeds;
        t.addRow({"mean", TextTable::fmt(sumReads / n, 0),
                  TextTable::fmt(sumPower / n),
                  TextTable::fmt(sumHmc / n)});
        std::printf("%s x%d seeds (%d thread%s)\n", cfg.describe().c_str(),
                    seeds, resolveJobs(jobs),
                    resolveJobs(jobs) == 1 ? "" : "s");
        t.print();
        printCrashSafetySummary(runner, ropts);
        printSeedProfileSummary(summarizeSeedProfiles(runs));
        // The snapshot merges every seed replica's phases, including
        // worker threads already joined (their trees are retained).
        if (!profilePath.empty() && !prof::writeSnapshotFile(profilePath))
            return 1;
        return failRc;
    }

    RunResult r;
    if (ropts.engaged()) {
        // Route the single run through a Runner so the journal, resume
        // pool, watchdog, and failure policy all apply to it.
        Runner runner;
        if (!attachRunner(runner, journal, ropts))
            return 1;
        ParallelRunner engine(runner, 1);
        engine.setFailurePolicy(ropts.policy);
        engine.setConfigTimeout(ropts.configTimeoutSec);
        try {
            engine.run({cfg});
        } catch (const std::exception &e) {
            std::fprintf(stderr, "memnet_run: run failed: %s\n",
                         e.what());
            return 1;
        }
        if (reportFailures(engine, ropts) != 0)
            return 1;
        r = runner.get(cfg);
        printCrashSafetySummary(runner, ropts);
    } else {
        r = runSimulation(cfg);
    }
    if (!profilePath.empty() && !prof::writeSnapshotFile(profilePath))
        return 1;

    const bool all = report.find("all") != std::string::npos;
    if (all || report.find("summary") != std::string::npos)
        printRunSummary(r);
    if (all || report.find("power") != std::string::npos) {
        std::printf("\n");
        printPowerBreakdown(r);
    }
    if (all || report.find("modules") != std::string::npos) {
        std::printf("\n");
        printModuleReport(r);
    }
    if (all || report.find("links") != std::string::npos) {
        std::printf("\n");
        printLinkHours(r);
    }
    return 0;
}
