#include "sim/partition.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/prof.hh"
#include "sim/cancel.hh"
#include "sim/log.hh"

namespace memnet
{

namespace
{

/** Tick addition that saturates at kTickMax instead of wrapping. */
Tick
satAdd(Tick a, Tick b)
{
    return a >= kTickMax - b ? kTickMax : a + b;
}

} // namespace

MailboxMatrix::MailboxMatrix(int parts)
    : parts_(parts),
      boxes_(static_cast<std::size_t>(parts) * parts)
{
}

void
MailboxMatrix::open(int src, unsigned parity)
{
    for (int dst = 0; dst < parts_; ++dst) {
        Box &b = box(src, dst);
        b.parity = parity;
        b.minDue[parity] = kTickMax;
    }
}

void
MailboxMatrix::send(int src, int dst, BoundaryMessage msg)
{
    Box &b = box(src, dst);
    // The ctr makes remote keys unique and deterministic: per-box
    // counters follow the sender's program order, which is fixed by
    // simulated time, and the src-rank bits keep two sources' messages
    // distinct at the same destination.
    msg.key.ctr = EventKey::kRemoteCtrBit |
                  (static_cast<std::uint64_t>(src) << 48) | b.nextCtr++;
    b.minDue[b.parity] = std::min(b.minDue[b.parity], msg.key.when);
    b.msgs[b.parity].push_back(msg);
}

bool
SpinBarrier::wait(std::uint64_t *waitNs)
{
    const std::uint64_t gen =
        generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        parties_) {
        // Reset before the generation bump: waiters only release on the
        // bump (acquire), so the zero is visible before anyone can
        // re-enter for the next generation.
        arrived_.store(0, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
        return !abort_->load(std::memory_order_relaxed);
    }
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = true;
    std::uint64_t spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
        if (abort_->load(std::memory_order_relaxed)) {
            ok = false;
            break;
        }
        // Spin briefly for the parallel-hardware case, then yield every
        // iteration: once the peers are descheduled (oversubscribed or
        // single-core hosts) further spinning only burns the timeslice
        // the releasing thread needs.
        if (++spins > 256)
            std::this_thread::yield();
    }
    if (waitNs) {
        *waitNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    return ok && !abort_->load(std::memory_order_relaxed);
}

PartitionRunner::PartitionRunner(std::vector<EventQueue *> queues,
                                 std::vector<Tick> lookaheadPs,
                                 ApplyFn apply)
    : queues_(std::move(queues)),
      look_(std::move(lookaheadPs)),
      apply_(std::move(apply)),
      mail_(static_cast<int>(queues_.size())),
      barrier_(static_cast<int>(queues_.size()), abort_)
{
    const std::size_t p = queues_.size();
    memnet_assert(p >= 2, "a partitioned run needs >= 2 partitions");
    memnet_assert(look_.size() == p * p,
                  "lookahead matrix must be partitions^2");
    for (std::size_t src = 0; src < p; ++src) {
        for (std::size_t dst = 0; dst < p; ++dst) {
            const Tick l = look_[src * p + dst];
            memnet_assert(src == dst || l > 0,
                          "cross-partition edge ", src, " -> ", dst,
                          " has zero lookahead; conservative sync "
                          "would deadlock");
        }
    }
    heads_.resize(2 * p);
    errors_.resize(p);
    lane_.resize(p);
}

Tick
PartitionRunner::nextSyncPoint(Tick after, Tick limit, Tick grid) const
{
    if (grid <= 0)
        return limit;
    const Tick next = satAdd(after - after % grid, grid);
    return std::min(next, limit);
}

void
PartitionRunner::drainInbox(int dst, unsigned parity)
{
    mail_.drain(dst, parity,
                [this, dst](BoundaryMessage &m) { apply_(dst, m); });
}

void
PartitionRunner::mergedStep(Tick s, unsigned parity)
{
    // Fire everything due exactly at the sync point in global compound-
    // key order. Events fired here may schedule further same-tick local
    // events (the rescan picks them up); messages they send are due at
    // least one lookahead later, so the step itself never delivers.
    for (;;) {
        int best = -1;
        EventKey bestKey{};
        for (std::size_t i = 0; i < queues_.size(); ++i) {
            const EventKey k = queues_[i]->frontKey();
            if (k.when > s)
                continue;
            if (best < 0 || k < bestKey) {
                best = static_cast<int>(i);
                bestKey = k;
            }
        }
        if (best < 0)
            break;
        queues_[static_cast<std::size_t>(best)]->fireFront();
    }
    for (EventQueue *q : queues_)
        q->advanceTo(s);
    for (int dst = 0; dst < partitions(); ++dst)
        drainInbox(dst, parity);
}

Tick
PartitionRunner::publishedNext(unsigned parity,
                               std::vector<Tick> &next) const
{
    // Applying a message either schedules an event at its due tick or
    // queues it behind a FIFO front already scheduled no later (the
    // model's pipes preserve order), so q's head after its inbox is
    // applied is exactly min(published head, earliest due tick sent).
    const int p = partitions();
    Tick earliest = kTickMax;
    for (int q = 0; q < p; ++q) {
        Tick t = heads_[parity * p + q];
        for (int src = 0; src < p; ++src)
            t = std::min(t, mail_.minDue(src, q, parity));
        next[q] = t;
        earliest = std::min(earliest, t);
    }
    return earliest;
}

Tick
PartitionRunner::horizon(int dst, Tick syncPoint,
                         std::vector<Tick> &eff) const
{
    // Earliest-effect bounds, relaxed to a fixed point: eff[q] lower-
    // bounds the tick of *any* future firing on q — its own head, or an
    // event induced by a message chain relayed through other partitions
    // (src fires no earlier than eff[src], so anything it sends dst
    // lands no earlier than eff[src] + L). A raw head is not such a
    // bound: a drained-empty partition reports kTickMax yet wakes as
    // soon as a peer's response reaches it, and a horizon granted from
    // kTickMax would let that peer race past the reply the woken
    // partition is about to send. Edge weights are positive, so P - 1
    // relaxation sweeps reach the fixed point.
    const int p = partitions();
    for (bool changed = true; changed;) {
        changed = false;
        for (int src = 0; src < p; ++src) {
            for (int q = 0; q < p; ++q) {
                const Tick l = lookahead(src, q);
                if (src == q || l == kTickMax)
                    continue;
                const Tick via = satAdd(eff[src], l);
                if (via < eff[q]) {
                    eff[q] = via;
                    changed = true;
                }
            }
        }
    }

    // dst may dispatch strictly before the earliest tick any incoming
    // edge could still deliver at, clamped to the sync point so events
    // *at* it stay with the merged step. The minimum-head partition
    // always gets a horizon past its head (eff[src] >= that head and
    // L > 0), so windows make progress.
    Tick h = syncPoint;
    for (int src = 0; src < p; ++src) {
        const Tick l = lookahead(src, dst);
        if (src != dst && l != kTickMax)
            h = std::min(h, satAdd(eff[src], l));
    }
    return h;
}

void
PartitionRunner::syncStep(unsigned parity, Tick limit, Tick grid)
{
    // The other lanes may still be reading what was published under
    // @p parity, so everything this step sends or publishes goes under
    // the other parity, which nobody reads until the next barrier (its
    // buffers were drained in the window just ended).
    const unsigned next = parity ^ 1;
    const int p = partitions();
    for (int r = 0; r < p; ++r)
        mail_.open(r, next);
    for (int dst = 0; dst < p; ++dst)
        drainInbox(dst, parity);

    // Every partition has reached the sync point: execute it (and any
    // further empty grid points) as merged tick-steps.
    Tick minHead;
    do {
        mergedStep(syncPoint_, next);
        if (syncPoint_ == limit) {
            done_ = true;
            return;
        }
        syncPoint_ = nextSyncPoint(syncPoint_, limit, grid);
        minHead = kTickMax;
        for (EventQueue *q : queues_)
            minHead = std::min(minHead, q->nextTick());
    } while (minHead >= syncPoint_);

    // Every inbox is empty now: publish exact heads, and reopen to
    // clear the due ticks of the messages the steps already applied.
    for (int r = 0; r < p; ++r) {
        mail_.open(r, next);
        heads_[next * p + r] =
            queues_[static_cast<std::size_t>(r)]->nextTick();
    }
}

void
PartitionRunner::workerBody(int rank, Tick limit, Tick grid)
{
    // One scope per lane per phase, covering windows and barrier waits
    // alike (runUntilBefore carries no eq/dispatch scope — per-window
    // clock reads would distort the loop). Lane 0 nests under the
    // caller's sim/measure; the other lanes are thread roots.
    MEMNET_PROF_SCOPE("part/worker");
    EventQueue &eq = *queues_[static_cast<std::size_t>(rank)];
    PartitionLaneStats &st = lane_[static_cast<std::size_t>(rank)];
    const int p = partitions();
    std::vector<Tick> eff(static_cast<std::size_t>(p));
    // Lane-local copy: rank 0 writes syncPoint_ only in syncStep.
    Tick syncPoint = syncPoint_;
    // Published state alternates between two parities so a lane can
    // publish window w + 1 while a slower peer still reads window w.
    unsigned parity = 0;
    try {
        heads_[rank] = eq.nextTick();
        for (;;) {
            if (!barrier_.wait(&st.barrierWaitNs))
                return;
            // Every lane reads the same published state, so all of
            // them take the sync path together.
            if (publishedNext(parity, eff) >= syncPoint) {
                if (rank == 0)
                    syncStep(parity, limit, grid);
                if (!barrier_.wait(&st.barrierWaitNs))
                    return;
                if (done_)
                    return;
                syncPoint = syncPoint_;
                parity ^= 1;
                publishedNext(parity, eff);
            }
            const Tick h = horizon(rank, syncPoint, eff);
            drainInbox(rank, parity);
            parity ^= 1;
            mail_.open(rank, parity);
            eq.runUntilBefore(h);
            ++st.windows;
            heads_[parity * p + rank] = eq.nextTick();
        }
    } catch (...) {
        errors_[static_cast<std::size_t>(rank)] =
            std::current_exception();
        abort_.store(true, std::memory_order_release);
    }
}

void
PartitionRunner::runUntil(Tick limit, Tick epochGridPs)
{
    const int p = partitions();
    abort_.store(false, std::memory_order_relaxed);
    done_ = false;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    syncPoint_ = nextSyncPoint(queues_[0]->now(), limit, epochGridPs);
    for (int r = 0; r < p; ++r)
        mail_.open(r, 0);

    // Workers inherit the calling thread's cooperative stop flag, so a
    // ParallelRunner watchdog cancellation reaches every partition: the
    // first worker to observe it throws CancelledError, flips the abort
    // flag, and the barriers release the rest within one poll interval.
    // They inherit its fatal mode too, so a memnet_fatal on any lane of
    // a sweep's config throws and is rethrown here, as on lane 0.
    const std::atomic<bool> *cancel = cancelFlag();
    const bool throws = fatalThrows();

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(p) - 1);
    for (int r = 1; r < p; ++r) {
        workers.emplace_back([this, r, limit, epochGridPs, cancel,
                              throws] {
            ScopedCancelFlag scoped(cancel);
            ScopedFatalThrows scopedFatal(throws);
            workerBody(r, limit, epochGridPs);
        });
    }
    workerBody(0, limit, epochGridPs);
    for (std::thread &t : workers)
        t.join();

    for (std::exception_ptr &e : errors_) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace memnet
