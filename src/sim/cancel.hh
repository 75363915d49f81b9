/**
 * @file
 * Cooperative cancellation for long-running simulations.
 *
 * A monitor thread (the ParallelRunner hang watchdog) cannot safely
 * interrupt a simulation from outside — the kernel has no preemption
 * points and killing a worker thread would leak the run's whole object
 * graph. Instead the watchdog sets a per-worker atomic stop flag, and
 * the event-dispatch loop (EventQueue::runUntil) polls it every few
 * thousand events. On observation the loop throws CancelledError with
 * a diagnostics snapshot (event-queue health counters plus the hottest
 * host-profiler phases when profiling is on), which unwinds the run
 * cleanly through Simulator's normal destructors.
 *
 * The flag is installed per thread (thread_local), so concurrent
 * ParallelRunner workers are cancellable independently and a run with
 * no flag installed pays a single pointer test per runUntil call —
 * behavior and results are bit-identical to a build without this
 * header unless a cancellation actually fires.
 */

#ifndef MEMNET_SIM_CANCEL_HH
#define MEMNET_SIM_CANCEL_HH

#include <atomic>
#include <stdexcept>
#include <string>

namespace memnet
{

/**
 * Events dispatched between polls of the cooperative stop flag. At the
 * kernel's ~10M events/s this is a cancellation latency well under a
 * millisecond while keeping the poll off the per-event hot path.
 */
constexpr std::uint64_t kCancelPollInterval = 4096;

/** Poll predicate mask: poll when (dispatchCount & mask) == 0. */
constexpr std::uint64_t kCancelPollMask = kCancelPollInterval - 1;

/**
 * Thrown by the dispatch loop when the installed stop flag is set.
 * what() carries the diagnostics captured at the cancellation point.
 */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &diagnostics)
        : std::runtime_error(diagnostics)
    {
    }
};

/**
 * Install @p flag as the calling thread's cooperative stop flag
 * (nullptr uninstalls). Returns the previously installed flag so
 * scoped users can restore it.
 */
const std::atomic<bool> *setCancelFlag(const std::atomic<bool> *flag);

/** The calling thread's stop flag (nullptr when none installed). */
const std::atomic<bool> *cancelFlag();

/** RAII installer: sets the thread's stop flag, restores on exit. */
class ScopedCancelFlag
{
  public:
    explicit ScopedCancelFlag(const std::atomic<bool> *flag)
        : prev(setCancelFlag(flag))
    {
    }

    ~ScopedCancelFlag() { setCancelFlag(prev); }

    ScopedCancelFlag(const ScopedCancelFlag &) = delete;
    ScopedCancelFlag &operator=(const ScopedCancelFlag &) = delete;

  private:
    const std::atomic<bool> *prev;
};

} // namespace memnet

#endif // MEMNET_SIM_CANCEL_HH
