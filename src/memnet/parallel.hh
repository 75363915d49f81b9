/**
 * @file
 * Parallel sweep engine.
 *
 * Every figure in the paper is a sweep over independent simulations
 * (topologies x workloads x size classes x mechanisms), yet runs used
 * to execute strictly serially. ParallelRunner executes a batch of
 * SystemConfigs on a thread pool, filling a shared Runner cache with
 * results that are bit-identical to serial execution: each run owns
 * its EventQueue and seeded RNGs, the Runner cache and the process-wide
 * log sink are thread-safe, and Runner::results() iterates in sorted
 * key order regardless of completion order.
 *
 * Failure handling is policy-selectable (`--failure-policy`):
 *
 *  - Abort (default, the historical behavior): the pool drains, the
 *    first exception is rethrown, and any further failures are logged
 *    as suppressed so multi-failure sweeps don't hide evidence.
 *  - Isolate: a failing config is recorded in failures() — config,
 *    canonical key, exception text, watchdog verdict — and poisoned in
 *    the Runner (markFailed) so replay passes don't re-crash; the rest
 *    of the sweep completes and the caller reports partial results
 *    plus a machine-readable failure manifest (memnet/journal.hh).
 *
 * The hang watchdog (`--config-timeout`) gives each config a
 * wall-clock budget: a monitor thread arms a per-worker deadline and
 * sets the worker's cooperative stop flag (sim/cancel.hh) when it
 * expires; the event-dispatch loop observes the flag and throws
 * CancelledError carrying an event-queue/profiler diagnostics
 * snapshot, which is routed through the failure policy like any other
 * exception. The budget covers the whole Runner::get() call — a
 * worker that spends its budget blocked on a peer's in-flight result
 * re-runs the config itself afterwards with a fresh budget.
 *
 * Both sweep front ends, the bench binaries and memnet_run, drive this
 * class through SweepFrontEnd below. With one job, no watchdog and the
 * abort policy, run() is a plain serial loop.
 */

#ifndef MEMNET_MEMNET_PARALLEL_HH
#define MEMNET_MEMNET_PARALLEL_HH

#include <charconv>
#include <cmath>
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

/** What run() does when a config throws or trips the hang watchdog. */
enum class FailurePolicy
{
    Abort,   ///< drain the pool, then rethrow the first failure
    Isolate, ///< record + poison the config, finish the sweep
};

/** Canonical flag spelling ("abort" / "isolate"). */
const char *failurePolicyName(FailurePolicy p);

/** Parse a --failure-policy value; false on unknown spelling. */
bool parseFailurePolicy(const std::string &s, FailurePolicy *out);

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
 * Thread-pool executor over a shared memoizing Runner.
 */
class ParallelRunner
{
  public:
    /**
     * @param runner shared result cache (thread-safe).
     * @param jobs worker threads; 0 = hardware concurrency.
     */
    explicit ParallelRunner(Runner &runner, int jobs = 0);

    /**
     * Execute every config in @p configs, blocking until all finish.
     * Duplicate configs (and configs already cached) are simulated only
     * once. Failures follow the configured policy: under Abort the
     * first exception is rethrown here after the pool drains (with a
     * suppressed-failure log line when there were more); under Isolate
     * nothing throws and failures() reports the casualties.
     */
    void run(const std::vector<SystemConfig> &configs);

    /** Worker threads this engine uses. */
    int jobs() const { return jobs_; }

    void setFailurePolicy(FailurePolicy p) { policy_ = p; }

    /** Per-config wall-clock budget in seconds; <= 0 disables. */
    void setConfigTimeout(double seconds) { configTimeoutSec_ = seconds; }

    /**
     * Failures accumulated across run() calls, sorted by canonical key
     * (so manifests are deterministically ordered). Under Abort this
     * still fills — it is what the suppressed-failure log reports.
     */
    const std::vector<RunFailure> &failures() const { return failures_; }

  private:
    Runner &runner_;
    int jobs_;
    FailurePolicy policy_ = FailurePolicy::Abort;
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

/** The command-line flags every sweep front end shares. */
struct SweepOptions
{
    /** --jobs: worker threads (0 = all hardware threads). */
    int jobs = 1;
    /** --profile: host profiler dump (".json" = tree, else stacks). */
    std::string profilePath;
    /** --journal: append every executed run to this journal. */
    std::string journalPath;
    /** --resume: pre-load results from this journal. */
    std::string resumePath;
    /** --failure-policy. */
    FailurePolicy policy = FailurePolicy::Abort;
    /** --config-timeout: per-config wall-clock budget; 0 disables. */
    double configTimeoutSec = 0.0;
    /** --failure-manifest: where isolate writes its failure report. */
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
     * unwritable one fails before anything simulates. A probe leaves
     * no file behind that was not there before. @return false, with a
     * warning naming the first unwritable path.
     */
    bool preflight(const std::vector<std::pair<const char *, std::string>>
                       &extra = {}) const;

    /**
     * Enable the profiler, load --resume, attach --journal (kept until
     * finish(), so a replay that simulates is journaled too) and run
     * @p configs on a ParallelRunner. @return false, with a warning,
     * when the sweep cannot go on: the resume journal does not load,
     * the journal does not open, or a config failed under the abort
     * policy. Isolated failures return true; finish() reports them.
     */
    bool run(Runner &runner, const std::vector<SystemConfig> &configs);

    /** Configs that failed under the isolate policy, by key. */
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
