/**
 * @file
 * Parallel sweep engine.
 *
 * Every figure in the paper is a sweep over independent simulations
 * (topologies x workloads x size classes x mechanisms), yet runs used
 * to execute strictly serially. ParallelRunner executes a batch of
 * SystemConfigs on up to --jobs threads, filling a shared Runner cache
 * with results that are bit-identical to serial execution: each run
 * owns its EventQueue and seeded RNGs, the Runner cache and the
 * process-wide log sink are thread-safe, and Runner::results() iterates
 * in sorted key order regardless of completion order.
 *
 * A failing config is isolated: it is recorded in failures() — config,
 * canonical key, exception text, watchdog verdict — and poisoned in
 * the Runner (markFailed) so replay passes don't re-crash; the rest of
 * the sweep completes, and the front end reports partial results, a
 * machine-readable failure manifest (memnet/journal.hh) and exit
 * status 1. The same happens at any --jobs.
 *
 * The hang watchdog (`--config-timeout`) gives each config a
 * wall-clock budget: a monitor thread arms a per-config deadline and
 * sets the config's cooperative stop flag (sim/cancel.hh) when it
 * expires; the event-dispatch loop observes the flag and throws
 * CancelledError carrying an event-queue/profiler diagnostics
 * snapshot, which is recorded like any other failure. The budget
 * covers the whole Runner::get() call, time spent blocked on a peer's
 * in-flight run of the same key included.
 *
 * Both sweep front ends, the bench binaries and memnet_run, drive this
 * class through SweepFrontEnd below. Configs run on forEachChunk; with
 * one job no thread starts and run() is a serial loop on the caller.
 */

#ifndef MEMNET_MEMNET_PARALLEL_HH
#define MEMNET_MEMNET_PARALLEL_HH

#include <charconv>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"

namespace memnet
{

/**
 * Resolve a --jobs style request: 0 means "all hardware threads",
 * anything else is clamped to at least 1.
 */
int resolveJobs(int jobs);

/**
 * Call @p fn(0) .. @p fn(chunks - 1), each exactly once, on up to
 * min(resolveJobs(@p threads), chunks) threads, the calling thread
 * included; with one, no helper starts. Chunks are claimed in index
 * order from one shared counter, so a chunk is only ever claimed after
 * every lower one. A helper thread that cannot be started leaves its
 * share to the threads that did start. Blocks until every chunk is
 * done; then rethrows the first exception @p fn threw (the remaining
 * chunks still run).
 */
void forEachChunk(std::size_t chunks, int threads,
                  const std::function<void(std::size_t)> &fn);

/** One failed config of a sweep (see ParallelRunner::failures()). */
struct RunFailure
{
    /** The config that failed, as submitted. */
    SystemConfig config;
    /** Its canonical Runner key. */
    std::string key;
    /**
     * Exception text. Watchdog kills carry the CancelledError
     * diagnostics snapshot (event-queue health counters, hottest
     * profiler phases).
     */
    std::string message;
    /** True when the hang watchdog cancelled it (vs. an exception). */
    bool timeout = false;
    /** Wall-clock seconds spent on the config before it failed. */
    double wallSeconds = 0.0;
};

/**
 * Sweep executor over a shared memoizing Runner.
 */
class ParallelRunner
{
  public:
    /**
     * @param runner shared result cache (thread-safe).
     * @param jobs threads, the caller included; 0 = hardware concurrency.
     */
    explicit ParallelRunner(Runner &runner, int jobs = 0);

    /**
     * Execute every config in @p configs, blocking until all finish.
     * Duplicate configs (and configs already cached) are simulated only
     * once. A config that throws or trips the watchdog does not stop
     * the others: failures() reports it and the Runner poisons its key.
     */
    void run(const std::vector<SystemConfig> &configs);

    /** Per-config wall-clock budget in seconds; <= 0 disables. */
    void setConfigTimeout(double seconds) { configTimeoutSec_ = seconds; }

    /**
     * Failures accumulated across run() calls, sorted by canonical key
     * (so manifests are deterministically ordered).
     */
    const std::vector<RunFailure> &failures() const { return failures_; }

  private:
    Runner &runner_;
    int jobs_;
    double configTimeoutSec_ = 0.0;
    std::vector<RunFailure> failures_;
};

/**
 * Parse all of @p text as a T: no blanks, no trailing junk, nothing
 * out of T's range, and for floating point no nan or inf (which
 * std::from_chars accepts). @return false, leaving @p out alone, for
 * anything else.
 */
template <typename T>
bool
parseNumber(const std::string &text, T *out)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    *out = v;
    return true;
}

/**
 * Apply the two run inputs the front ends take from the environment
 * to @p configs, before any Runner key is built, so keys, journals and
 * reports state what each run simulates. Callers pass each variable's
 * text from the process environment; null or empty means unset.
 *  - MEMNET_SIM_US, a positive whole number of microseconds, replaces
 *    every config's measure window, even one set by a flag.
 *  - MEMNET_AUDIT is "0" or "1"; "1" sets every config's audit.
 * @throw std::invalid_argument naming the variable and its value when
 * either is malformed; no config is touched then.
 */
void applyRunEnvironment(const char *simUs, const char *audit,
                         std::span<SystemConfig> configs);

/** The command-line flags every sweep front end shares. */
struct SweepOptions
{
    /** --jobs: worker threads (0 = all hardware threads). */
    int jobs = 1;
    /** --profile: host profiler dump (FlameGraph collapsed stacks). */
    std::string profilePath;
    /** --journal: append every executed run to this journal. */
    std::string journalPath;
    /** --resume: pre-load results from this journal. */
    std::string resumePath;
    /** --config-timeout: per-config wall-clock budget; 0 disables. */
    double configTimeoutSec = 0.0;
    /** --failure-manifest: where the failure report goes. */
    std::string manifestPath;

    /** The shared flags, spelled as a usage-line fragment. */
    static const char *usage();

    /**
     * Parse argv[i] when it is one of the shared flags: store its value
     * and advance @p i past it. A missing or malformed value sets
     * *err to a one-line message. @return false, touching nothing,
     * when argv[i] is not a shared flag.
     */
    bool parseFlag(int argc, char **argv, int &i, std::string *err);
};

/**
 * The sweep front end of the bench binaries and memnet_run: output
 * preflight, --resume and --journal, the ParallelRunner run, the
 * failure report and manifest, and the accounting line. In order:
 * preflight(), run(), print from the Runner, finish().
 */
class SweepFrontEnd
{
  public:
    /** @param tool names the sweep in the failure manifest. */
    SweepFrontEnd(std::string tool, SweepOptions opts);

    /**
     * Probe every output path — --profile, --journal,
     * --failure-manifest and the caller's (flag, path) pairs — so an
     * unwritable path fails before anything simulates. A probe leaves
     * no file behind that was not there before. @return false, with a
     * warning naming the first unwritable path.
     */
    bool preflight(const std::vector<std::pair<const char *, std::string>>
                       &extra = {}) const;

    /**
     * Enable the profiler, load --resume, attach --journal (kept until
     * finish(), so a replay that simulates is journaled too) and run
     * @p configs on a ParallelRunner. @return false, with a warning,
     * when the sweep cannot start: the resume journal does not load or
     * the journal does not open. Failed configs return true; finish()
     * reports them.
     */
    bool run(Runner &runner, const std::vector<SystemConfig> &configs);

    /** Configs that failed, by key. */
    const std::vector<RunFailure> &failures() const { return failures_; }

    /**
     * Detach the journal, warn about failed configs and write the
     * failure manifest, log the accounting line (with --journal or
     * --resume) and write the profile. @return the exit code: 1 when
     * a config failed or a file could not be written, else 0.
     */
    int finish(Runner &runner);

  private:
    std::string tool_;
    SweepOptions opts_;
    RunJournal journal_;
    std::vector<RunFailure> failures_;
};

} // namespace memnet

#endif // MEMNET_MEMNET_PARALLEL_HH
