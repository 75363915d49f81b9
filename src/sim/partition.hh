/**
 * @file
 * Partitioned parallel event kernel: conservative-lookahead windowed
 * execution of several EventQueues on a worker pool.
 *
 * A partitioned run shards the simulated machine into P partitions,
 * each owning one EventQueue and the components scheduled on it.
 * Partitions interact only through boundary messages posted to a
 * mutex-guarded mailbox matrix; every cross-partition edge (src, dst)
 * declares a strictly positive lookahead L[src][dst]: a lower bound,
 * in ticks, on how far in the future any message sent by src can be
 * due at dst. For this simulator the lookahead comes from physical
 * pipeline delays — the host-interface SERDES on the processor ->
 * channel edge and the response SERDES + router stage on the channel
 * -> processor edge (docs/PERFORMANCE.md) — so it is never zero and
 * never requires null messages.
 *
 * Synchronization is windowed conservative execution. Each
 * iteration, every rank drains its inbox and parks at a barrier; the
 * coordinator (rank 0, the calling thread) computes per-queue
 * earliest-effect bounds E[q] = min(next[q], min over incoming edges
 * of E[src] + L[src][dst]) as a fixed point — the Chandy-Misra lower
 * bound on any future firing, including firings induced by messages
 * still to be relayed through other partitions — and grants each
 * destination a horizon H[dst] = min over incoming edges of
 * (E[src] + L[src][dst]), clamped to the next sync point; after a
 * second barrier every rank dispatches events strictly before its
 * horizon. Events *at* a sync point (management epochs, phase limits)
 * are executed by the coordinator alone in a merged tick-step, in
 * global compound-key order across all queues, which serializes
 * same-tick cross-partition couplings exactly as the serial kernel
 * would. Combined with cross-partition messages carrying the event
 * keys their serial counterparts would have (net/boundary.hh), a
 * partitioned run is bit-identical to the serial kernel (enforced by
 * tests/test_partition.cc).
 *
 * The runner itself is model-agnostic: payloads are opaque pointers
 * and message application is delegated to an ApplyFn installed by the
 * model layer (memnet/simulator.cc wires packets, pipes, and write
 * promises through it).
 */

#ifndef MEMNET_SIM_PARTITION_HH
#define MEMNET_SIM_PARTITION_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace memnet
{

/**
 * One cross-partition handoff. The sim layer treats payload/channel/
 * kind as opaque routing data for the model layer's ApplyFn; key is
 * the compound event key the receiver schedules the message with —
 * the sender computes the exact key the corresponding serial event
 * would have carried.
 */
struct BoundaryMessage
{
    EventKey key;
    void *payload = nullptr;
    std::int32_t channel = -1;
    std::uint8_t kind = 0;
};

/**
 * P x P mutex-guarded MPSC mailboxes. send() stamps the message ctr
 * with EventKey::kRemoteCtrBit | src-rank | per-box counter, so remote
 * ties sort after local events, deterministically, and uniquely across
 * sources. Boxes preserve per-source program order, which the model
 * layer's FIFO pipes rely on.
 */
class MailboxMatrix
{
  public:
    explicit MailboxMatrix(int parts);

    /** Post @p msg on the src -> dst edge (thread-safe). */
    void send(int src, int dst, BoundaryMessage msg);

    /**
     * Move every pending message for @p dst into @p out (appended;
     * sources in rank order, program order within a source).
     */
    void drain(int dst, std::vector<BoundaryMessage> &out);

  private:
    struct Box
    {
        std::mutex mu;
        std::vector<BoundaryMessage> msgs;
        std::uint64_t nextCtr = 0;
    };

    Box &box(int src, int dst) { return boxes_[src * parts_ + dst]; }

    int parts_;
    std::vector<Box> boxes_;
};

/**
 * Spinning generation barrier for the window loop. Reusable across
 * iterations; polls an abort flag so a failed or cancelled worker
 * releases everyone within microseconds. Wait wall-clock is
 * accumulated per caller for the run summary's stall attribution.
 */
class SpinBarrier
{
  public:
    SpinBarrier(int parties, const std::atomic<bool> &abort)
        : parties_(parties), abort_(&abort)
    {
    }

    /** @return false when the abort flag was observed. */
    bool wait(std::uint64_t *waitNs);

  private:
    int parties_;
    const std::atomic<bool> *abort_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

/** Per-partition execution counters, accumulated across phases. */
struct PartitionLaneStats
{
    std::uint64_t windows = 0;      ///< dispatch windows executed
    std::uint64_t barrierWaitNs = 0; ///< wall-clock spent in barriers
};

/**
 * Drives P EventQueues to a common time limit. runUntil() spawns
 * P - 1 worker threads and runs rank 0 on the calling thread, so
 * phase-boundary work before and after each call (resetStats,
 * auditor checkpoints, energy collection) stays single-threaded.
 */
class PartitionRunner
{
  public:
    /** Applies one drained message to partition @p dst's model. */
    using ApplyFn = std::function<void(int dst, BoundaryMessage &msg)>;

    /**
     * @param queues      one EventQueue per partition (>= 2)
     * @param lookaheadPs row-major P x P edge lookaheads; kTickMax
     *                    marks "no edge", every real edge must be > 0
     * @param apply       model-layer message application
     */
    PartitionRunner(std::vector<EventQueue *> queues,
                    std::vector<Tick> lookaheadPs, ApplyFn apply);

    /**
     * Run every partition to @p limit (events at the limit included,
     * as EventQueue::runUntil). @p epochGridPs > 0 additionally
     * serializes every multiple of the grid as a merged tick-step,
     * which any run with management epochs needs so epoch work
     * observes a globally consistent machine. Callable repeatedly
     * (warmup then measure); counters accumulate.
     */
    void runUntil(Tick limit, Tick epochGridPs);

    /** The mailbox matrix boundary components send through. */
    MailboxMatrix &mail() { return mail_; }

    int partitions() const { return static_cast<int>(queues_.size()); }

    const std::vector<PartitionLaneStats> &
    laneStats() const
    {
        return lane_;
    }

  private:
    Tick lookahead(int src, int dst) const
    {
        return look_[static_cast<std::size_t>(src) * queues_.size() +
                     static_cast<std::size_t>(dst)];
    }

    Tick nextSyncPoint(Tick after, Tick limit, Tick grid) const;

    void workerBody(int rank, Tick limit, Tick grid);

    /** Rank 0 between the barriers: merged steps + horizon grants. */
    void coordinate(Tick limit, Tick grid);

    /** Fire every event at exactly @p s across all queues, in key
     *  order, then advance every queue to @p s and apply the step's
     *  own boundary messages. */
    void mergedStep(Tick s);

    /** Apply dst's pending messages. */
    void drainInbox(int dst);

    std::vector<EventQueue *> queues_;
    std::vector<Tick> look_;
    ApplyFn apply_;

    MailboxMatrix mail_;
    std::atomic<bool> abort_{false};
    SpinBarrier barrier_;
    std::unique_ptr<std::atomic<Tick>[]> horizons_;
    std::atomic<bool> done_{false};
    /** Coordinator-only sync-point cursor (rank 0 touches it while
     *  the workers are parked, so a plain member is race-free). */
    Tick syncPoint_ = 0;
    /** Coordinator scratch: per-partition earliest-effect bounds. */
    std::vector<Tick> eff_;
    std::vector<std::vector<BoundaryMessage>> scratch_;
    std::vector<std::exception_ptr> errors_;
    std::vector<PartitionLaneStats> lane_;
};

} // namespace memnet

#endif // MEMNET_SIM_PARTITION_HH
