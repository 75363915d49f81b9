/**
 * @file
 * Partitioned parallel event kernel: conservative-lookahead windowed
 * execution of several EventQueues on a worker pool.
 *
 * A partitioned run shards the simulated machine into P partitions,
 * each owning one EventQueue and the components scheduled on it, and
 * runs each partition on its own lane (thread). Partitions interact
 * only through boundary messages posted to a single-writer mailbox
 * matrix; every cross-partition edge (src, dst) declares a strictly
 * positive lookahead L[src][dst]: a lower bound, in ticks, on how far
 * in the future any message sent by src can be due at dst. For this
 * simulator the lookahead comes from physical pipeline delays — the
 * host-interface SERDES on the processor -> channel edge and the
 * response SERDES + router stage on the channel -> processor edge
 * (docs/PERFORMANCE.md) — so it is never zero and never requires null
 * messages.
 *
 * Synchronization is windowed conservative execution with one barrier
 * per window. At the end of its window every lane publishes its queue
 * head and, per destination, the earliest due tick it sent there.
 * After the barrier every lane reads the same published state and
 * computes the same bounds: next[q] = min(head[q], earliest due tick
 * sent to q) is q's head once its inbox is applied, and the
 * earliest-effect fixed point E[q] = min(next[q], min over incoming
 * edges of E[src] + L[src][q]) is the Chandy-Misra lower bound on any
 * future firing on q, including firings induced by messages still to
 * be relayed through other partitions. Each lane then takes its own
 * horizon H[dst] = min over incoming edges of E[src] + L[src][dst],
 * clamped to the next sync point, applies its own inbox and
 * dispatches events strictly before H[dst].
 *
 * Events *at* a sync point (management epochs, phase limits) run in a
 * merged tick-step: when the published bounds show every partition has
 * reached the sync point, all lanes see it together, rank 0 applies
 * every inbox and fires each queue's events at that tick in global
 * compound-key order while the others wait at a second barrier. This
 * serializes same-tick cross-partition couplings exactly as the serial
 * kernel would. Combined with cross-partition messages carrying the
 * event keys their serial counterparts would have (net/boundary.hh), a
 * partitioned run is bit-identical to the serial kernel (enforced by
 * tests/test_partition.cc).
 *
 * The runner itself is model-agnostic: payloads are opaque pointers
 * and message application is delegated to an ApplyFn installed by the
 * model layer (memnet/simulator.cc wires packets, pipes, and write
 * promises through it). The ApplyFn for partition dst runs on dst's
 * lane, so it may touch only dst's state.
 */

#ifndef MEMNET_SIM_PARTITION_HH
#define MEMNET_SIM_PARTITION_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
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
 * P x P single-writer mailboxes, double-buffered by window parity.
 * Box (src, dst) is written only by the thread running src and drained
 * only by the thread running dst. A sender writes the buffer of the
 * parity it opened for its current window; the receiver drains the
 * other buffer, filled the window before. The barrier between windows
 * is the only happens-before edge this needs, so the boxes carry no
 * lock.
 *
 * send() stamps the message ctr with EventKey::kRemoteCtrBit |
 * src-rank | per-box counter, so remote ties sort after local events,
 * deterministically, and uniquely across sources. It also tracks the
 * earliest due tick per box and parity, which lets every receiver
 * bound its head without draining. Boxes preserve per-source program
 * order, which the model layer's FIFO pipes rely on.
 */
class MailboxMatrix
{
  public:
    explicit MailboxMatrix(int parts);

    /**
     * Direct @p src's sends to the @p parity buffers and restart their
     * earliest-due ticks at kTickMax. The buffers must be drained.
     */
    void open(int src, unsigned parity);

    /** Post @p msg on the src -> dst edge, under src's open parity. */
    void send(int src, int dst, BoundaryMessage msg);

    /**
     * Earliest due tick (key.when) posted src -> dst under @p parity
     * since src opened it; kTickMax when none.
     */
    Tick
    minDue(int src, int dst, unsigned parity) const
    {
        return box(src, dst).minDue[parity];
    }

    /**
     * Pass every message pending for @p dst under @p parity to
     * @p apply and empty those buffers. Sources in rank order, program
     * order within a source.
     */
    template <typename F>
    void
    drain(int dst, unsigned parity, F &&apply)
    {
        for (int src = 0; src < parts_; ++src) {
            std::vector<BoundaryMessage> &msgs =
                box(src, dst).msgs[parity];
            for (BoundaryMessage &m : msgs)
                apply(m);
            msgs.clear();
        }
    }

  private:
    /** One edge; a cache line of its own, as two threads share it. */
    struct alignas(64) Box
    {
        std::vector<BoundaryMessage> msgs[2];
        Tick minDue[2] = {kTickMax, kTickMax};
        std::uint64_t nextCtr = 0;
        unsigned parity = 0;
    };

    Box &box(int src, int dst) { return boxes_[src * parts_ + dst]; }
    const Box &
    box(int src, int dst) const
    {
        return boxes_[src * parts_ + dst];
    }

    int parts_;
    std::vector<Box> boxes_;
};

/**
 * Spinning generation barrier between windows. Everything a lane wrote
 * before wait() (its published head and due ticks, its mailbox
 * buffers) happens-before everything any lane does after it returns.
 * Reusable across windows; polls an abort flag so a failed or
 * cancelled worker releases everyone within microseconds. Wait
 * wall-clock is accumulated per caller for the run summary's stall
 * attribution.
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

    /** Fill @p next with each queue's head once the messages published
     *  under @p parity are applied; @return the earliest. */
    Tick publishedNext(unsigned parity, std::vector<Tick> &next) const;

    /** Relax @p eff (from publishedNext) to the earliest-effect fixed
     *  point and return @p dst's horizon, clamped to @p syncPoint. */
    Tick horizon(int dst, Tick syncPoint, std::vector<Tick> &eff) const;

    /** Rank 0, the other lanes parked: apply every inbox, run merged
     *  tick-steps while every partition has reached the sync point,
     *  then publish exact heads under parity @p parity ^ 1. */
    void syncStep(unsigned parity, Tick limit, Tick grid);

    /** Fire every event at exactly @p s across all queues, in key
     *  order, then advance every queue to @p s and apply the step's
     *  own boundary messages, posted under @p parity. */
    void mergedStep(Tick s, unsigned parity);

    /** Apply dst's messages posted under @p parity. */
    void drainInbox(int dst, unsigned parity);

    std::vector<EventQueue *> queues_;
    std::vector<Tick> look_;
    ApplyFn apply_;

    MailboxMatrix mail_;
    std::atomic<bool> abort_{false};
    SpinBarrier barrier_;
    /** Queue heads published at window ends, [parity * P + rank]. */
    std::vector<Tick> heads_;
    /** Written by rank 0 in syncStep, read by every lane after the
     *  barrier that follows it. */
    bool done_ = false;
    Tick syncPoint_ = 0;
    std::vector<std::exception_ptr> errors_;
    std::vector<PartitionLaneStats> lane_;
};

} // namespace memnet

#endif // MEMNET_SIM_PARTITION_HH
