/**
 * @file
 * Host-side hierarchical profiler: where does the *simulator itself*
 * spend wall-clock time?
 *
 * The rest of src/obs observes the simulated network; this observes
 * the simulation process, the way gem5's stats/profiling framework
 * does for real simulators. Call sites mark phases with an RAII scope:
 *
 *   void PowerManager::epochTick() {
 *       MEMNET_PROF_SCOPE("mgmt/epoch");
 *       ...
 *   }
 *
 * Scopes nest into a phase tree ("sim/run" > "eq/dispatch" >
 * "mgmt/epoch"), recorded into per-thread collectors so the parallel
 * sweep engine profiles without contention: the hot path touches only
 * thread_local state, and trees merge at snapshot time. Merging by
 * phase name keeps the tree stable across thread counts.
 *
 * Cost model (the contract the perf-baseline CI job guards):
 *  - profiling disabled (the default): one relaxed atomic load and
 *    branch per scope;
 *  - enabled: two steady_clock reads plus a child lookup per scope.
 * So scopes belong on phases entered a few times per run (runUntil,
 * an epoch, an ISP round): on per-event or per-hop code the clock
 * reads cost more than the code they time.
 * Profiling never touches the EventQueue or any simulated state, so a
 * profiled run's RunResult is bit-identical to an unprofiled one in
 * every simulation-determined field (tests/test_differential.cc).
 *
 * Export: FlameGraph/speedscope collapsed stacks ("a;b;c <self-ns>"
 * per line). Wired into the `--profile` flag
 * that memnet_run and every bench share (memnet::SweepFrontEnd,
 * memnet/parallel.hh).
 */

#ifndef MEMNET_OBS_PROF_HH
#define MEMNET_OBS_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace memnet
{
namespace prof
{

/** One phase of a flattened profile; path components join with ';'. */
struct ProfPhase
{
    std::string path;
    std::uint64_t ns = 0;    ///< inclusive wall time
    std::uint64_t count = 0; ///< times the scope was entered
};

/**
 * Value-type phase tree, the snapshot/merge/export currency. Plain and
 * publicly constructible so exporter tests can build golden inputs.
 */
struct PhaseTree
{
    std::string name;
    std::uint64_t ns = 0;    ///< inclusive wall time
    std::uint64_t count = 0; ///< times the scope was entered
    std::vector<PhaseTree> children;

    /** Inclusive time minus the children's (what FlameGraph plots). */
    std::uint64_t selfNs() const;

    /** Child by name, or null. */
    const PhaseTree *child(const std::string &name) const;
};

/** Globally enable/disable recording (off by default). */
void setEnabled(bool on);
bool enabled();

/**
 * Merge every collector — live threads and already-exited ones — into
 * one tree rooted at "all". Call with worker threads quiescent (after
 * ParallelRunner::run returned); exited threads' data is retained, so
 * helper threads show up after join.
 */
PhaseTree snapshot();

/** Drop all recorded data (live and retained). */
void reset();

/** Collapsed-stack export: one "a;b;c <self-ns>" line per phase. */
void writeCollapsed(std::ostream &os, const PhaseTree &tree);

/** Flatten into ProfPhase rows (depth-first, root excluded). */
std::vector<ProfPhase> flatten(const PhaseTree &tree);

/**
 * Write a snapshot to @p path as collapsed stacks.
 * @return false (with a warning) when the file cannot be opened.
 */
bool writeSnapshotFile(const std::string &path);

namespace detail
{

/** Node of a per-thread (or retained) tree; owned by its collector. */
struct Node
{
    const char *name;
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
    Node *parent = nullptr;
    std::vector<Node *> children; // few per node; linear scan

    explicit Node(const char *name) : name(name) {}
};

extern std::atomic<bool> g_enabled;

/** Enter a child scope of the calling thread's current node. */
Node *enterScope(const char *name);

/** Leave @p node, accumulating @p ns of inclusive time. */
void exitScope(Node *node, std::uint64_t ns);

} // namespace detail

/**
 * RAII phase scope. @p name must outlive the program (string literal).
 * Near-free while profiling is disabled.
 */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        if (detail::g_enabled.load(std::memory_order_relaxed)) {
            node_ = detail::enterScope(name);
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~Scope() { close(); }

    /**
     * Exit the scope before the end of the block (idempotent; the
     * destructor becomes a no-op). For phases that can't live in their
     * own block because what they build outlives them.
     */
    void
    close()
    {
        if (node_) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            detail::exitScope(node_,
                              static_cast<std::uint64_t>(ns));
            node_ = nullptr;
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    detail::Node *node_ = nullptr;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Captures the calling thread's phases recorded between construction
 * and finish() as a flat delta, rooted at its own named scope. The
 * simulator uses one per run to attribute phases to that RunResult
 * even when several runs share a thread (Runner) or run concurrently
 * (ParallelRunner — each capture only reads its own thread's tree).
 */
class ScopedCapture
{
  public:
    explicit ScopedCapture(const char *name);
    ~ScopedCapture();

    ScopedCapture(const ScopedCapture &) = delete;
    ScopedCapture &operator=(const ScopedCapture &) = delete;

    /**
     * Close the scope and return the phases recorded under it during
     * this capture (empty when profiling is disabled). Paths are
     * relative to the capture's scope, which is included as the first
     * row. Idempotent; the destructor closes the scope if needed.
     */
    std::vector<ProfPhase> finish();

  private:
    detail::Node *node_ = nullptr;
    std::chrono::steady_clock::time_point start_;
    std::vector<ProfPhase> before_;
    bool done_ = false;
};

#define MEMNET_PROF_CONCAT2(a, b) a##b
#define MEMNET_PROF_CONCAT(a, b) MEMNET_PROF_CONCAT2(a, b)

/** Time the enclosing block as phase @p name (a string literal). */
#define MEMNET_PROF_SCOPE(name)                                        \
    ::memnet::prof::Scope MEMNET_PROF_CONCAT(memnet_prof_scope_,       \
                                             __LINE__)(name)

} // namespace prof
} // namespace memnet

#endif // MEMNET_OBS_PROF_HH
