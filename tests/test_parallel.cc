/**
 * @file
 * Tests for the parallel sweep engine: bit-identical results versus
 * serial execution, concurrent cache deduplication, collect mode,
 * thread-safe logging under worker contention, and the shared sweep
 * front end (flag parser, output preflight, journal and resume).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/parallel.hh"
#include "sim/log.hh"

namespace memnet
{
namespace
{

/** A small but heterogeneous sweep (3 workloads x 2 topologies). */
std::vector<SystemConfig>
sweepConfigs()
{
    std::vector<SystemConfig> v;
    for (const char *wl : {"mixA", "mixB", "mixE"}) {
        for (TopologyKind topo :
             {TopologyKind::Star, TopologyKind::DaisyChain}) {
            SystemConfig cfg;
            cfg.workload = wl;
            cfg.topology = topo;
            cfg.policy = Policy::Unaware;
            cfg.mechanism = BwMechanism::Vwl;
            cfg.warmup = us(10);
            cfg.measure = us(50);
            v.push_back(cfg);
        }
    }
    return v;
}

/**
 * Full bench JSON with wall_s (the one documented nondeterministic
 * field) masked out, so byte comparison checks everything else.
 */
std::string
jsonWithoutWallClock(const Runner &runner)
{
    std::ostringstream os;
    writeBenchResultsJson(os, "parallel_test", runner.results());
    return std::regex_replace(os.str(),
                              std::regex("\"wall_s\":[^,}]+"),
                              "\"wall_s\":0");
}

TEST(ResolveJobs, ClampsAndExpandsZero)
{
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_EQ(resolveJobs(-3), 1);
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
}

TEST(ParallelRunner, MatchesSerialByteForByte)
{
    const std::vector<SystemConfig> configs = sweepConfigs();

    Runner serial;
    for (const SystemConfig &cfg : configs)
        serial.get(cfg);

    Runner parallel;
    ParallelRunner(parallel, 8).run(configs);

    EXPECT_EQ(serial.runsExecuted(), parallel.runsExecuted());
    EXPECT_EQ(jsonWithoutWallClock(serial),
              jsonWithoutWallClock(parallel));
}

TEST(ParallelRunner, DeduplicatesRepeatedConfigs)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.warmup = us(10);
    cfg.measure = us(50);

    std::vector<SystemConfig> batch(16, cfg);
    Runner runner;
    ParallelRunner(runner, 8).run(batch);
    EXPECT_EQ(runner.runsExecuted(), 1);
    EXPECT_EQ(runner.results().size(), 1u);
}

TEST(Runner, ConcurrentSameConfigRunsOnce)
{
    SystemConfig cfg;
    cfg.workload = "mixA";
    cfg.warmup = us(10);
    cfg.measure = us(50);

    Runner runner;
    std::vector<const RunResult *> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back(
            [&runner, &cfg, &seen, t] { seen[t] = &runner.get(cfg); });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(runner.runsExecuted(), 1);
    for (const RunResult *r : seen)
        EXPECT_EQ(r, seen[0]); // all callers share the cached slot
}

TEST(Runner, CollectModeRecordsInsteadOfRunning)
{
    const std::vector<SystemConfig> configs = sweepConfigs();

    Runner runner;
    runner.beginCollect();
    for (const SystemConfig &cfg : configs) {
        const RunResult &r = runner.get(cfg);
        EXPECT_EQ(r.completedReads, 0u); // zeroed placeholder
    }
    runner.get(configs.front()); // duplicate: must not record twice
    const std::vector<SystemConfig> pending = runner.endCollect();

    EXPECT_EQ(pending.size(), configs.size());
    EXPECT_EQ(runner.runsExecuted(), 0);
    for (std::size_t i = 0; i < pending.size(); ++i)
        EXPECT_EQ(Runner::key(pending[i]), Runner::key(configs[i]));

    // Replays after the parallel pass hit the warm cache.
    ParallelRunner(runner, 4).run(pending);
    EXPECT_EQ(runner.runsExecuted(),
              static_cast<int>(configs.size()));
    const RunResult &real = runner.get(configs.front());
    EXPECT_GT(real.completedReads, 0u);
    EXPECT_EQ(runner.runsExecuted(),
              static_cast<int>(configs.size()));
}

TEST(Runner, CollectedConfigsAreSkippedWhenAlreadyCached)
{
    const std::vector<SystemConfig> configs = sweepConfigs();

    Runner runner;
    runner.get(configs.front()); // pre-warm one config

    runner.beginCollect();
    for (const SystemConfig &cfg : configs)
        runner.get(cfg);
    const std::vector<SystemConfig> pending = runner.endCollect();
    EXPECT_EQ(pending.size(), configs.size() - 1);
}

/** Scoped log capture for asserting on warn/inform output. */
class CapturedLog
{
  public:
    CapturedLog()
        : prev(setLogSink([this](LogLevel, const std::string &msg) {
              std::lock_guard<std::mutex> lock(mu);
              lines.push_back(msg);
          }))
    {
    }

    ~CapturedLog() { setLogSink(std::move(prev)); }

    bool
    contains(const std::string &needle) const
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const std::string &l : lines)
            if (l.find(needle) != std::string::npos)
                return true;
        return false;
    }

  private:
    mutable std::mutex mu;
    std::vector<std::string> lines;
    LogSink prev;
};

/** RAII: memnet_fatal throws instead of exiting, for failure tests. */
struct ScopedThrowOnError
{
    ScopedThrowOnError() { detail::setThrowOnError(true); }
    ~ScopedThrowOnError() { detail::setThrowOnError(false); }
};

/** An invalid config: the unknown workload makes runSimulation fatal. */
SystemConfig
badConfig(std::uint64_t seed = 1)
{
    SystemConfig cfg;
    cfg.workload = "no-such-workload";
    cfg.warmup = us(10);
    cfg.measure = us(50);
    cfg.seed = seed;
    return cfg;
}

TEST(ForEachChunk, OneThreadRunsEveryChunkOnTheCaller)
{
    std::vector<std::thread::id> ran(5);
    forEachChunk(ran.size(), 1, [&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : ran)
        EXPECT_EQ(id, std::this_thread::get_id());

    // More threads: still every chunk exactly once.
    std::vector<std::atomic<int>> calls(64);
    forEachChunk(calls.size(), 4, [&](std::size_t i) { ++calls[i]; });
    for (const std::atomic<int> &c : calls)
        EXPECT_EQ(c.load(), 1);
}

TEST(ParallelRunner, IsolatePolicyFinishesSweepAroundFailures)
{
    const ScopedThrowOnError guard;
    std::vector<SystemConfig> configs = sweepConfigs();
    configs.insert(configs.begin() + 2, badConfig());

    Runner runner;
    ParallelRunner engine(runner, 4);
    EXPECT_NO_THROW(engine.run(configs));

    ASSERT_EQ(engine.failures().size(), 1u);
    const RunFailure &f = engine.failures()[0];
    EXPECT_EQ(f.key, Runner::key(badConfig()));
    EXPECT_FALSE(f.timeout);
    EXPECT_NE(f.message.find("no-such-workload"), std::string::npos)
        << f.message;

    // Every healthy config completed; the failed key is poisoned, not
    // cached, so partial results stay clean and replays don't re-run.
    EXPECT_EQ(runner.results().size(), configs.size() - 1);
    EXPECT_FALSE(runner.results().count(Runner::key(badConfig())));
    const int executed = runner.runsExecuted();
    const RunResult &placeholder = runner.get(badConfig());
    EXPECT_EQ(placeholder.completedReads, 0u);
    EXPECT_EQ(runner.runsExecuted(), executed);
}

TEST(ParallelRunner, IsolatePolicyWorksSingleThreaded)
{
    const ScopedThrowOnError guard;
    Runner runner;
    ParallelRunner engine(runner, 1);
    SystemConfig good;
    good.warmup = us(10);
    good.measure = us(50);
    EXPECT_NO_THROW(engine.run({badConfig(), good}));
    EXPECT_EQ(engine.failures().size(), 1u);
    EXPECT_EQ(runner.results().size(), 1u);
}

TEST(ParallelRunner, WatchdogCancelsOverBudgetConfig)
{
    // A measure window far beyond what a tiny budget allows; the
    // watchdog must cancel it and record diagnostics.
    SystemConfig hog;
    hog.workload = "mixA";
    hog.warmup = us(10);
    hog.measure = us(400000);

    Runner runner;
    ParallelRunner engine(runner, 1);
    engine.setConfigTimeout(0.05);
    engine.run({hog});

    ASSERT_EQ(engine.failures().size(), 1u);
    const RunFailure &f = engine.failures()[0];
    EXPECT_TRUE(f.timeout);
    EXPECT_GE(f.wallSeconds, 0.05);
    EXPECT_NE(f.message.find("cancelled by watchdog"),
              std::string::npos)
        << f.message;
    EXPECT_NE(f.message.find("fired="), std::string::npos) << f.message;
    EXPECT_TRUE(runner.results().empty());
}

TEST(ParallelRunner, WatchdogKillReachesOnlyItsOwnConfig)
{
    // One thread runs the hog, then a fast config: the flag raised for
    // the hog must not cancel the next config on the same thread. The
    // budget leaves the fast config room under the sanitizers too.
    SystemConfig hog;
    hog.workload = "mixA";
    hog.warmup = us(10);
    hog.measure = us(400000);
    const SystemConfig fast = sweepConfigs()[0];

    Runner runner;
    ParallelRunner engine(runner, 1);
    engine.setConfigTimeout(1.0);
    engine.run({hog, fast});

    ASSERT_EQ(engine.failures().size(), 1u);
    EXPECT_EQ(engine.failures()[0].key, Runner::key(hog));
    EXPECT_TRUE(runner.results().count(Runner::key(fast)));
}

TEST(ParallelRunner, WatchdogLeavesFastConfigsAlone)
{
    // Generous budget: the sweep completes normally and results match
    // a run with no watchdog at all, byte for byte.
    const std::vector<SystemConfig> configs = sweepConfigs();
    Runner plain;
    ParallelRunner(plain, 2).run(configs);

    Runner watched;
    ParallelRunner engine(watched, 2);
    engine.setConfigTimeout(300.0);
    engine.run(configs);

    EXPECT_TRUE(engine.failures().empty());
    EXPECT_EQ(jsonWithoutWallClock(plain), jsonWithoutWallClock(watched));
}

TEST(ParallelRunner, HugeWatchdogBudgetNeverExpires)
{
    // 1e300 s overflows any nanosecond tick count; the deadline must
    // saturate rather than wrap into the past and kill every config.
    // The runs outlast the monitor's longest poll interval (100 ms), so
    // a deadline in the past cannot go unnoticed.
    std::vector<SystemConfig> configs = {sweepConfigs()[0],
                                         sweepConfigs()[1]};
    for (SystemConfig &cfg : configs)
        cfg.measure = us(1000);
    Runner runner;
    ParallelRunner engine(runner, 2);
    engine.setConfigTimeout(1e300);
    engine.run(configs);
    EXPECT_TRUE(engine.failures().empty());
    EXPECT_EQ(runner.results().size(), 2u);
}

TEST(ParseNumber, TakesWholeFiniteValuesOnly)
{
    int i = 7;
    EXPECT_TRUE(parseNumber("42", &i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseNumber("-3", &i));
    EXPECT_EQ(i, -3);
    for (const char *bad : {"", "abc", "2x", "1.5", " 4", "4 ", "+4",
                            "99999999999"}) {
        EXPECT_FALSE(parseNumber(bad, &i)) << bad;
    }
    EXPECT_EQ(i, -3); // refusals leave the target alone

    double d = 0.0;
    EXPECT_TRUE(parseNumber("2.5e-3", &d));
    EXPECT_EQ(d, 2.5e-3);
    EXPECT_TRUE(parseNumber("1e300", &d));
    for (const char *bad : {"nan", "NaN", "inf", "-inf", "infinity",
                            "1e999", "soon", "0.5s"}) {
        EXPECT_FALSE(parseNumber(bad, &d)) << bad;
    }
}

TEST(ApplyRunEnvironment, SetsWindowAndAuditOnEveryConfig)
{
    std::vector<SystemConfig> cfgs(2);
    cfgs[1].audit = true;
    const Tick configured = cfgs[0].measure;

    // Unset and empty both leave every config as it is.
    for (const char *unset : {static_cast<const char *>(nullptr), ""}) {
        applyRunEnvironment(unset, unset, cfgs);
        EXPECT_EQ(cfgs[0].measure, configured);
        EXPECT_FALSE(cfgs[0].audit);
        EXPECT_TRUE(cfgs[1].audit);
    }
    // MEMNET_AUDIT=0 adds no opt-in and takes none away.
    applyRunEnvironment(nullptr, "0", cfgs);
    EXPECT_FALSE(cfgs[0].audit);
    EXPECT_TRUE(cfgs[1].audit);

    applyRunEnvironment("100", "1", cfgs);
    for (const SystemConfig &c : cfgs) {
        EXPECT_EQ(c.measure, us(100));
        EXPECT_TRUE(c.audit);
    }
    // The longest window: half the Tick range.
    applyRunEnvironment("4611686018427", nullptr, cfgs);
    EXPECT_EQ(cfgs[0].measure, us(4611686018427));
}

TEST(ApplyRunEnvironment, RefusesMalformedValuesNamingTheVariable)
{
    const auto expectRefused = [](const char *simUs, const char *audit,
                                  const std::string &named) {
        std::vector<SystemConfig> cfgs(1);
        const SystemConfig before = cfgs[0];
        try {
            applyRunEnvironment(simUs, audit, cfgs);
            ADD_FAILURE() << named << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
                << e.what();
        }
        // A refusal touches no config, not even with the other
        // variable well formed.
        EXPECT_EQ(cfgs[0].measure, before.measure);
        EXPECT_EQ(cfgs[0].audit, before.audit);
    };
    // Anything but a positive whole number of microseconds, up to half
    // the Tick range.
    for (const char *bad :
         {"5e1", "abc", "0", "-5", "50us", "4611686018428"})
        expectRefused(bad, "1",
                      std::string("MEMNET_SIM_US='") + bad + "'");
    // Anything but 0 or 1, words that read as "off" included.
    for (const char *bad : {"false", "no", "off", "true", "2", " 1"})
        expectRefused("100", bad,
                      std::string("MEMNET_AUDIT='") + bad + "'");
}

/** Run SweepOptions::parseFlag over one command line; "" = all ok. */
std::string
parseSweepArgs(std::vector<std::string> args, SweepOptions *opts)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 1; i < argc; ++i) {
        std::string err;
        if (!opts->parseFlag(argc, argv.data(), i, &err))
            return "not a sweep flag: " + std::string(argv[i]);
        if (!err.empty())
            return err;
    }
    return "";
}

TEST(SweepOptions, AcceptsEverySharedFlag)
{
    SweepOptions o;
    EXPECT_EQ(parseSweepArgs({"--jobs", "3", "--profile", "p.folded",
                              "--journal", "j.jsonl", "--resume",
                              "r.jsonl", "--config-timeout", "2.5",
                              "--failure-manifest", "m.json"},
                             &o),
              "");
    EXPECT_EQ(o.jobs, 3);
    EXPECT_EQ(o.profilePath, "p.folded");
    EXPECT_EQ(o.journalPath, "j.jsonl");
    EXPECT_EQ(o.resumePath, "r.jsonl");
    EXPECT_EQ(o.configTimeoutSec, 2.5);
    EXPECT_EQ(o.manifestPath, "m.json");

    SweepOptions zero;
    EXPECT_EQ(parseSweepArgs({"--jobs", "0", "--config-timeout", "0"},
                             &zero),
              "");
    EXPECT_EQ(zero.jobs, 0);
    EXPECT_EQ(zero.configTimeoutSec, 0.0);
}

TEST(SweepOptions, RefusesBadValuesWithAMessage)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"--jobs", "abc"}, "bad --jobs value: 'abc'"},
            {{"--jobs", "2x"}, "bad --jobs value: '2x'"},
            {{"--jobs", "1.5"}, "bad --jobs value: '1.5'"},
            {{"--config-timeout", "soon"},
             "--config-timeout must be finite seconds >= 0 (got 'soon')"},
            {{"--config-timeout", "-1"},
             "--config-timeout must be finite seconds >= 0 (got '-1')"},
            {{"--config-timeout", "inf"},
             "--config-timeout must be finite seconds >= 0 (got 'inf')"},
            {{"--config-timeout", "nan"},
             "--config-timeout must be finite seconds >= 0 (got 'nan')"},
            {{"--journal"}, "missing value for --journal"},
            {{"--jobs"}, "missing value for --jobs"},
        };
    for (const auto &[args, message] : cases) {
        SweepOptions o;
        EXPECT_EQ(parseSweepArgs(args, &o), message) << args[0];
    }
}

TEST(SweepOptions, LeavesOtherFlagsToTheCaller)
{
    SweepOptions o;
    EXPECT_EQ(parseSweepArgs({"--json", "x.json"}, &o),
              "not a sweep flag: --json");
    EXPECT_EQ(parseSweepArgs({"--partitions", "2"}, &o),
              "not a sweep flag: --partitions");
}

/** A fresh, empty directory under the system temp dir. */
std::filesystem::path
freshTempDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("memnet_test_parallel_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(SweepFrontEnd, PreflightRefusesUnwritablePathsAndLeavesNoProbe)
{
    const std::filesystem::path dir = freshTempDir("preflight");
    const std::string fresh = (dir / "fresh.json").string();
    const std::string kept = (dir / "kept.json").string();
    std::ofstream(kept) << "old contents";

    SweepOptions o;
    o.manifestPath = fresh;
    const SweepFrontEnd ok("test", o);
    EXPECT_TRUE(ok.preflight({{"--json", kept}}));
    EXPECT_FALSE(std::filesystem::exists(fresh));
    std::ifstream in(kept);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "old contents");

    const CapturedLog log;
    const std::string missing = (dir / "no-such-dir" / "x.json").string();
    EXPECT_FALSE(ok.preflight({{"--json", missing}}));
    EXPECT_TRUE(log.contains("cannot open --json output file"));
    o.profilePath = missing;
    EXPECT_FALSE(SweepFrontEnd("test", o).preflight());
    std::filesystem::remove_all(dir);
}

TEST(SweepFrontEnd, JournalThenResumeSkipsFinishedRuns)
{
    const std::filesystem::path dir = freshTempDir("resume");
    const std::vector<SystemConfig> configs = {sweepConfigs()[0],
                                               sweepConfigs()[3]};
    SweepOptions o;
    o.journalPath = (dir / "j.jsonl").string();

    std::string firstJson;
    {
        SweepFrontEnd sweep("test", o);
        Runner runner;
        ASSERT_TRUE(sweep.run(runner, configs));
        const CapturedLog log;
        EXPECT_EQ(sweep.finish(runner), 0);
        EXPECT_TRUE(log.contains("crash-safety: 2 run(s) executed, 0 "
                                 "resumed from journal; appended 2"));
        firstJson = jsonWithoutWallClock(runner);
    }

    o.resumePath = o.journalPath;
    o.journalPath.clear();
    SweepFrontEnd sweep("test", o);
    Runner runner;
    ASSERT_TRUE(sweep.run(runner, configs));
    const CapturedLog log;
    EXPECT_EQ(sweep.finish(runner), 0);
    EXPECT_TRUE(log.contains(
        "crash-safety: 0 run(s) executed, 2 resumed from journal"));
    EXPECT_EQ(runner.runsExecuted(), 0);
    EXPECT_EQ(jsonWithoutWallClock(runner), firstJson);
    std::filesystem::remove_all(dir);
}

/** All of the file at @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(SweepFrontEnd, IsolatedFailuresExitOneAndWriteTheManifest)
{
    const ScopedThrowOnError guard;
    const std::filesystem::path dir = freshTempDir("manifest");
    SweepOptions o;
    o.manifestPath = (dir / "manifest.json").string();
    SweepFrontEnd sweep("test", o);
    Runner runner;
    SystemConfig good;
    good.warmup = us(10);
    good.measure = us(50);
    ASSERT_TRUE(sweep.run(runner, {badConfig(), good}));
    ASSERT_EQ(sweep.failures().size(), 1u);
    EXPECT_EQ(sweep.finish(runner), 1);
    EXPECT_NE(slurp(o.manifestPath).find("no-such-workload"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepFrontEnd, FailedConfigIsReportedTheSameAtAnyJobs)
{
    const ScopedThrowOnError guard;
    const std::filesystem::path dir = freshTempDir("jobs");
    const std::vector<SystemConfig> configs = {
        sweepConfigs()[0], badConfig(), sweepConfigs()[1]};

    struct Outcome
    {
        std::vector<std::string> failures; ///< key: message
        std::vector<std::string> results;  ///< keys
        std::string manifest;
        int rc = -1;
    };
    const auto sweepAt = [&](int jobs) {
        SweepOptions o;
        o.jobs = jobs;
        o.manifestPath =
            (dir / ("manifest" + std::to_string(jobs) + ".json")).string();
        SweepFrontEnd sweep("test", o);
        Runner runner;
        Outcome out;
        EXPECT_TRUE(sweep.run(runner, configs)) << "--jobs " << jobs;
        for (const RunFailure &f : sweep.failures())
            out.failures.push_back(f.key + ": " + f.message);
        for (const auto &kv : runner.results())
            out.results.push_back(kv.first);
        out.rc = sweep.finish(runner);
        // wall_s is the one member that varies between identical runs.
        out.manifest = std::regex_replace(slurp(o.manifestPath),
                                          std::regex("\"wall_s\":[^,}]+"),
                                          "\"wall_s\":0");
        return out;
    };

    const Outcome serial = sweepAt(1);
    const Outcome parallel = sweepAt(4);
    ASSERT_EQ(serial.failures.size(), 1u);
    EXPECT_EQ(serial.failures, parallel.failures);
    EXPECT_EQ(serial.results.size(), 2u);
    EXPECT_EQ(serial.results, parallel.results);
    EXPECT_NE(serial.manifest.find("no-such-workload"), std::string::npos);
    EXPECT_EQ(serial.manifest, parallel.manifest);
    EXPECT_EQ(serial.rc, 1);
    EXPECT_EQ(parallel.rc, 1);
    std::filesystem::remove_all(dir);
}

TEST(LogSink, ConcurrentWarningsStayIntact)
{
    std::vector<std::string> lines;
    LogSink prev = setLogSink(
        // Deliberately unsynchronized: delivery itself must serialize.
        [&lines](LogLevel, const std::string &msg) {
            lines.push_back(msg);
        });

    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                memnet_warn("thread ", t, " line ", i, " end");
        });
    }
    for (std::thread &th : threads)
        th.join();
    setLogSink(std::move(prev));

    ASSERT_EQ(lines.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    const std::regex shape("thread [0-7] line [0-9]+ end");
    for (const std::string &l : lines)
        EXPECT_TRUE(std::regex_match(l, shape)) << "mangled: " << l;
}

} // namespace
} // namespace memnet
