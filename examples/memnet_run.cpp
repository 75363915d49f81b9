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
 *   --fer <p>              flit error rate (CRC retry)   [0]
 *   --audit                run the invariant auditor     [Debug: always]
 *   --report <list>        summary,power,modules,links   [summary]
 *   --partitions <n>       shard the run across n event-queue
 *                          partitions, bit-identical to the serial
 *                          kernel (docs/PERFORMANCE.md)   [1]
 *
 * Sweep flags, shared with the bench binaries (memnet::SweepOptions;
 * docs/ROBUSTNESS.md):
 *   --jobs <n>                threads for the seed sweep
 *                             (0 = all hardware threads)    [1]
 *   --profile <path>          host-side profiler dump; ".json" gets
 *                             the phase tree, anything else FlameGraph
 *                             collapsed stacks (docs/PERFORMANCE.md)
 *   --journal <path>          append completed runs to a checksummed
 *                             JSONL journal, flushed per record
 *   --resume <path>           pre-load results from a journal; only
 *                             missing configs re-simulate
 *   --failure-policy <p>      abort|isolate                 [abort]
 *   --config-timeout <sec>    per-run wall-clock budget (hang
 *                             watchdog); 0 disables          [0]
 *   --failure-manifest <path> isolate-policy failure report (JSON)
 *
 * Numeric values must be whole numbers (finite decimals for --alpha,
 * --fer and --config-timeout); --measure-us and --seeds must be
 * positive, --config-timeout not negative. A bad value, like an unknown
 * flag or name, exits 2 with a one-line usage message. An unwritable
 * output path exits 1 before anything simulates.
 *
 * The run goes through the same sweep front end as a bench
 * (memnet::SweepFrontEnd): one run is a one-config sweep, and with
 * --seeds k > 1 the run is replicated over seeds seed..seed+k-1
 * (concurrently when --jobs > 1; results are identical to serial) and
 * a per-seed summary table plus the mean replaces the single-run
 * report. With --journal or --resume, a `crash-safety:` line on stderr
 * counts the runs executed and resumed.
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
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"

namespace
{

using namespace memnet;

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "memnet_run: %s (see the header comment for "
                         "flags)\n",
                 msg.c_str());
    std::exit(2);
}

/** All of @p v as a finite T, or a usage error naming @p flag. */
template <typename T>
T
number(const std::string &v, const char *flag)
{
    T out{};
    if (!parseNumber(v, &out))
        usage(std::string("bad ") + flag + " value: '" + v + "'");
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

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    cfg.workload = "mixA";
    cfg.topology = TopologyKind::Star;
    std::string report = "summary";
    SweepOptions sopts;
    int seeds = 1;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage("missing flag value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        std::string err;
        if (sopts.parseFlag(argc, argv, i, &err)) {
            if (!err.empty())
                usage(err);
        } else if (a == "--workload") {
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
            cfg.rooWakeupPs = ns(number<long>(need(i), "--wakeup-ns"));
        } else if (a == "--policy") {
            cfg.policy = parsePolicy(need(i));
        } else if (a == "--alpha") {
            cfg.alphaPct = number<double>(need(i), "--alpha");
        } else if (a == "--measure-us") {
            const long v = number<long>(need(i), "--measure-us");
            if (v <= 0)
                usage("--measure-us must be positive");
            cfg.measure = us(v);
        } else if (a == "--seed") {
            cfg.seed = number<std::uint64_t>(need(i), "--seed");
        } else if (a == "--seeds") {
            seeds = number<int>(need(i), "--seeds");
            if (seeds <= 0)
                usage("--seeds must be positive");
        } else if (a == "--fer") {
            cfg.linkFlitErrorRate = number<double>(need(i), "--fer");
        } else if (a == "--interleave") {
            cfg.interleavePages = true;
        } else if (a == "--audit") {
            cfg.audit = true;
        } else if (a == "--partitions") {
            cfg.partitions = number<int>(need(i), "--partitions");
            if (cfg.partitions < 1)
                usage("--partitions must be >= 1");
        } else if (a == "--report") {
            report = need(i);
        } else if (a == "--stats-json") {
            cfg.obs.statsJsonPath = need(i);
        } else if (a == "--epoch-jsonl") {
            cfg.obs.epochJsonlPath = need(i);
        } else if (a == "--chrome-trace") {
            cfg.obs.chromeTracePath = need(i);
        } else if (a == "--help" || a == "-h") {
            usage("help requested");
        } else {
            usage("unknown flag: " + a);
        }
    }
    if (cfg.policy == Policy::StaticTaper)
        cfg.interleavePages = true;
    if (seeds > 1 &&
        (!cfg.obs.statsJsonPath.empty() || !cfg.obs.epochJsonlPath.empty() ||
         !cfg.obs.chromeTracePath.empty())) {
        usage("observability outputs would collide across seed "
              "replicas; use --seeds 1");
    }

    // Fail before simulating, not after: a typo'd output directory used
    // to cost the whole run and exit 0 with only a warning.
    SweepFrontEnd sweep("memnet_run", sopts);
    if (!sweep.preflight({{"--stats-json", cfg.obs.statsJsonPath},
                          {"--epoch-jsonl", cfg.obs.epochJsonlPath},
                          {"--chrome-trace", cfg.obs.chromeTracePath}}))
        return 1;

    std::vector<SystemConfig> replicas;
    for (int s = 0; s < seeds; ++s) {
        SystemConfig c = cfg;
        c.seed = cfg.seed + static_cast<std::uint64_t>(s);
        replicas.push_back(c);
    }
    Runner runner;
    if (!sweep.run(runner, replicas))
        return 1;

    if (seeds > 1) {
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
        const int threads = resolveJobs(sopts.jobs);
        std::printf("%s x%d seeds (%d thread%s)\n", cfg.describe().c_str(),
                    seeds, threads, threads == 1 ? "" : "s");
        t.print();
        printSeedProfileSummary(summarizeSeedProfiles(runs));
        return sweep.finish(runner);
    }

    if (!sweep.failures().empty())
        return sweep.finish(runner); // nothing to report
    const RunResult &r = runner.get(cfg);
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
    return sweep.finish(runner);
}
