/**
 * @file
 * Experiment sweep utilities shared by the bench binaries: a memoizing
 * runner (full-power baselines are reused across figures), standard
 * sweep lists, and an aligned-column table printer.
 */

#ifndef MEMNET_MEMNET_EXPERIMENT_HH
#define MEMNET_MEMNET_EXPERIMENT_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "memnet/config.hh"
#include "memnet/simulator.hh"

namespace memnet
{

class RunJournal;

/** The four evaluated topologies, in the paper's order. */
const std::vector<TopologyKind> &allTopologies();

/** The fourteen workload names, in the paper's order. */
const std::vector<std::string> &workloadNames();

/**
 * Memoizing simulation runner. Results are cached per canonical config
 * key for the lifetime of the process, so a bench can freely re-request
 * baselines.
 *
 * get() is thread-safe: the ParallelRunner (memnet/parallel.hh) calls
 * it from worker threads, which share one cache. Concurrent requests
 * for the same config run it once — later callers block until the
 * first finishes. Results (and the sorted iteration order of
 * results()) are independent of thread count because every run owns
 * its EventQueue and seeded RNGs.
 */
class Runner
{
  public:
    /** Run (or fetch) the simulation for @p cfg. */
    const RunResult &get(const SystemConfig &cfg);

    /** Canonical cache key. */
    static std::string key(const SystemConfig &cfg);

    /** Same config with management and mechanisms stripped. */
    static SystemConfig fullPowerBaseline(SystemConfig cfg);

    /**
     * Throughput degradation of @p cfg versus its full-power baseline
     * (positive = slower).
     */
    double degradation(const SystemConfig &cfg);

    /** Network power reduction of @p cfg versus its baseline. */
    double powerReduction(const SystemConfig &cfg);

    /** Runs executed so far (not counting cache hits). */
    int
    runsExecuted() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return executed;
    }

    /**
     * Every cached result keyed by canonical config key (sorted map,
     * so iteration — and bench --json output — is deterministic).
     * Not synchronized: call only while no worker threads are active.
     */
    const std::map<std::string, RunResult> &results() const
    {
        return cache;
    }

    /**
     * Sweep collection, the first pass of a `--jobs N` bench run: while
     * collecting, get() records each distinct uncached config instead
     * of simulating it and returns a zeroed placeholder result. The
     * recorded list is then executed concurrently by a ParallelRunner,
     * after which the bench body replays against the warm cache.
     */
    void beginCollect();

    /** Stop collecting; returns the recorded configs (first-seen order). */
    std::vector<SystemConfig> endCollect();

    /**
     * True between beginCollect() and endCollect(). A bench body that
     * simulates outside get() skips that work in the collect pass.
     */
    bool
    isCollecting() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return collecting;
    }

    /**
     * Attach a run journal (nullptr detaches): every freshly executed
     * run is appended and flushed before get() returns it. Cache hits,
     * resumed results, and collect-mode placeholders are not journaled
     * — the journal records exactly the work this process performed.
     */
    void
    setJournal(RunJournal *j)
    {
        std::lock_guard<std::mutex> lock(mu);
        journal = j;
    }

    /**
     * Pre-warm from journal records (--resume): merged into a lazy side
     * pool, promoted into the cache only when a key is actually
     * requested. results() therefore still lists exactly the sweep's
     * own configs — a journal carrying extra runs cannot leak foreign
     * results into a bench's JSON output. Last call wins per key.
     */
    void addResumePool(std::map<std::string, RunResult> pool);

    /** Requests served from the resume pool instead of simulating. */
    std::uint64_t
    resumedHits() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return resumed;
    }

    /**
     * Poison @p cfg after a failure (ParallelRunner): later get() calls
     * return a zeroed placeholder instead of re-running a config known
     * to crash or hang, and results() never includes it. A waiter
     * already blocked on the failing in-flight key can slip past the
     * marker and re-simulate once; the second failure is deterministic
     * and the failure manifest dedups by key, so this only costs time.
     */
    void markFailed(const SystemConfig &cfg);

    /** Emit one progress line per fresh run to stderr. */
    bool verbose = false;

  private:
    mutable std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, RunResult> cache;
    /** Keys being simulated right now (dedups concurrent requests). */
    std::set<std::string> inflight;
    /** Journal attached via setJournal() (not owned). */
    RunJournal *journal = nullptr;
    /** Loaded journal records not yet requested (see addResumePool). */
    std::map<std::string, RunResult> resumePool;
    /** Keys poisoned by markFailed(). */
    std::set<std::string> failedKeys;
    std::uint64_t resumed = 0;

    /** Collect-mode state (single-threaded first pass). */
    bool collecting = false;
    std::vector<SystemConfig> pendingConfigs;
    std::set<std::string> pendingKeys;
    RunResult placeholder;

    int executed = 0;
};

/** Simple aligned-column text table, matching the paper's figures. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Format helpers. */
    static std::string fmt(double v, int precision = 2);
    static std::string pct(double v, int precision = 1);

    /** Render to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a section banner for a bench. */
void printBanner(const std::string &title, const std::string &subtitle);

} // namespace memnet

#endif // MEMNET_MEMNET_EXPERIMENT_HH
