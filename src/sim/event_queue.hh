/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole system. Components own re-armable
 * Event subclasses (no per-firing allocation on the hot path); ad-hoc
 * one-shot work can be scheduled with a callable via schedule().
 *
 * Events fire in EventKey order, (when, sched, parent, ctr): by tick,
 * and at one tick in scheduling order (FIFO), which keeps runs
 * deterministic for a fixed seed. The FIFO order is realized with this
 * compound key rather than a single global sequence number so the
 * partitioned kernel (sim/partition.hh) can reproduce the serial firing
 * order across several queues.
 *
 * The queue has two tiers, and every entry stores its firing tick inline
 * next to the Event pointer, so comparisons read the Event only to break
 * a tick tie:
 *
 *  - the near window: up to kNearCap of the earliest pending events,
 *    kept sorted by key in a flat array. The front is the next event,
 *    so a pop is O(1). An insert searches the inline ticks and shifts
 *    the shorter side of the array with one memmove; the live range
 *    floats in a larger buffer so either side can give way;
 *  - the far heap: an intrusive indexed 4-ary heap holding everything
 *    later than the window's last entry. In simulation it is nearly
 *    empty; it takes the far-future tail (link sleep timers, most of
 *    which are cancelled before they fire) when depth spikes, and keeps
 *    adversarial shapes at O(log n).
 *
 * Every window entry precedes every heap entry, and the window is empty
 * only when the queue is. When the window drains, it refills in one
 * batch from the heap. Either way deschedule() and reschedule() remove
 * the entry at once, so there are never stale entries to filter.
 */

#ifndef MEMNET_SIM_EVENT_QUEUE_HH
#define MEMNET_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace memnet
{

class EventQueue;

/**
 * Total firing order of an event, portable across queues.
 *
 * Serially, same-tick FIFO order could be kept with one global sequence
 * number; a partitioned run has no global counter, so the order is
 * decomposed into pieces each partition can compute locally:
 *
 *  - when:   the firing tick;
 *  - sched:  the queue's now() at the schedule()/reschedule() call;
 *  - parent: the sched of the event that was firing when this one was
 *            scheduled (kTickInvalid when scheduled outside the
 *            dispatch loop, i.e. during construction);
 *  - ctr:    a per-queue monotone counter breaking remaining ties.
 *
 * On a single queue, lexicographic (when, sched, parent, ctr) order is
 * exactly the legacy (when, seq) FIFO order: sched is monotone
 * non-decreasing in seq (time never goes backwards), events firing at
 * one tick fire in seq order so their scheds — the parents of what they
 * schedule — are also non-decreasing in seq, and ctr is seq itself.
 * Cross-partition messages carry the (sched, parent) their serial
 * counterpart would have had, which is what lets the deterministic
 * partitioned mode replay the serial interleaving (sim/partition.hh);
 * their ctr sorts after all local events (kRemoteCtrBit) — full
 * (when, sched, parent) collisions across a partition boundary are the
 * one place the parallel order may deviate from the serial one, which
 * the differential tests bound.
 */
struct EventKey
{
    Tick when = 0;
    Tick sched = 0;
    Tick parent = kTickInvalid;
    std::uint64_t ctr = 0;

    /** Set on message ctrs so remote ties sort after local events. */
    static constexpr std::uint64_t kRemoteCtrBit = 1ULL << 63;

    bool
    operator<(const EventKey &o) const
    {
        if (when != o.when)
            return when < o.when;
        if (sched != o.sched)
            return sched < o.sched;
        if (parent != o.parent)
            return parent < o.parent;
        return ctr < o.ctr;
    }
};

/**
 * Base class for schedulable events. An Event may be scheduled on at most
 * one queue at a time; descheduling and rescheduling are supported.
 */
class Event
{
  public:
    /**
     * An event still sitting in a queue removes itself on destruction,
     * so tearing down a component mid-run (a Network rebuilt on a live
     * queue, a manager destroyed before its EventQueue) never leaves a
     * dangling pointer in the queue.
     */
    virtual ~Event();

    /** Invoked when simulated time reaches the scheduled tick. */
    virtual void fire() = 0;

    /** @return true while the event sits in a queue. */
    bool scheduled() const { return _scheduled; }

    /** @return the tick this event is (or was last) scheduled for. */
    Tick when() const { return _when; }

  protected:
    /**
     * See OneShotEvent. Queue teardown reads it to tell its own pending
     * one-shots apart from component-owned re-armable events (every
     * event still in a queue is alive: ~Event deschedules itself).
     */
    bool _oneShot = false;

  private:
    friend class EventQueue;

    bool _scheduled = false;
    Tick _when = kTickInvalid;
    /** Tick the schedule()/reschedule() call was made at. */
    Tick _schedTick = 0;
    /** _schedTick of the event firing when this one was scheduled. */
    Tick _parentTick = kTickInvalid;
    /** Per-queue tie-break counter (the legacy sequence number). */
    std::uint64_t _seq = 0;
    /**
     * Index in the owning queue's far heap while scheduled there, or
     * EventQueue::kNearSlot while in the near window.
     */
    std::size_t _slot = 0;
    /** The queue holding this event while scheduled. */
    EventQueue *_queue = nullptr;
};

/** Event wrapping an arbitrary callable; fires once then deletes itself. */
template <typename F>
class OneShotEvent : public Event
{
  public:
    explicit OneShotEvent(F f) : func(std::move(f)) { _oneShot = true; }

    void
    fire() override
    {
        F local(std::move(func));
        delete this;
        local();
    }

  private:
    F func;
};

/** Event calling a member function of its owner; re-armable. */
template <typename T, void (T::*Method)()>
class MemberEvent : public Event
{
  public:
    explicit MemberEvent(T *owner) : obj(owner) {}

    void fire() override { (obj->*Method)(); }

  private:
    T *obj;
};

/**
 * The central time-ordered queue of pending events.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule an event at an absolute tick (>= now()).
     * @param ev event to arm; must not already be scheduled.
     * @param when absolute firing tick.
     */
    void
    schedule(Event *ev, Tick when)
    {
        memnet_assert(!ev->_scheduled, "event double-scheduled");
        memnet_assert(when >= _now,
                      "event scheduled in the past: ", when, " < ", _now);
        ev->_scheduled = true;
        ev->_when = when;
        ev->_schedTick = _now;
        ev->_parentTick = _curParentSched;
        ev->_seq = nextSeq++;
        ev->_queue = this;
        insert(ev);
        ++_scheduledTotal;
        if (pending() > _peakDepth)
            _peakDepth = pending();
    }

    /**
     * Schedule with an explicit firing key instead of the natural local
     * one. Used by the partitioned kernel to apply cross-partition
     * messages with the key their serial counterpart would have carried;
     * never needed on the serial path.
     */
    void
    scheduleWithKey(Event *ev, const EventKey &key)
    {
        memnet_assert(!ev->_scheduled, "event double-scheduled");
        memnet_assert(key.when >= _now, "message applied in the past: ",
                      key.when, " < ", _now);
        ev->_scheduled = true;
        ev->_when = key.when;
        ev->_schedTick = key.sched;
        ev->_parentTick = key.parent;
        ev->_seq = key.ctr;
        ev->_queue = this;
        insert(ev);
        ++_scheduledTotal;
        if (pending() > _peakDepth)
            _peakDepth = pending();
    }

    /** Schedule a one-shot callable at an absolute tick. */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        schedule(new OneShotEvent<std::decay_t<F>>(std::forward<F>(f)),
                 when);
    }

    /**
     * Remove a scheduled event from the queue at once (O(log n) plus a
     * short memmove); the event can be destroyed or rescheduled freely
     * afterwards.
     */
    void
    deschedule(Event *ev)
    {
        memnet_assert(ev->_scheduled, "descheduling unscheduled event");
        if (ev->_slot == kNearSlot)
            removeNear(ev, ev->_when);
        else
            removeFar(ev->_slot);
        ev->_scheduled = false;
        ++_descheduledTotal;
    }

    /**
     * (Re)schedule, descheduling first if needed. A far-heap event that
     * stays in the heap is rekeyed in place — one sift instead of a
     * remove plus an insert. Keeps the legacy FIFO contract: the move
     * consumes a fresh sequence number, exactly as deschedule()+
     * schedule() always did.
     */
    void
    reschedule(Event *ev, Tick when)
    {
        if (!ev->_scheduled) {
            schedule(ev, when);
            return;
        }
        memnet_assert(when >= _now,
                      "event scheduled in the past: ", when, " < ", _now);
        const Tick old = ev->_when;
        ev->_when = when;
        ev->_schedTick = _now;
        ev->_parentTick = _curParentSched;
        ev->_seq = nextSeq++;
        ++_scheduledTotal;
        if (ev->_slot == kNearSlot || before({when, ev}, _near[_tail - 1])) {
            refile(ev, old);
            return;
        }
        // A heap event that stays behind the window (which is non-empty,
        // as the heap is) is rekeyed in place. The sequence number grew,
        // so an equal-tick rekey still moves the event after its
        // same-tick peers — sift down covers it.
        _far[ev->_slot].when = when;
        if (when < old)
            siftUp(ev->_slot);
        else
            siftDown(ev->_slot);
    }

    /**
     * Run until the queue empties or simulated time would exceed @p limit.
     * Events exactly at @p limit are executed.
     * @return number of events fired.
     */
    std::uint64_t runUntil(Tick limit);

    /**
     * Run events strictly before @p limit (the partitioned kernel's
     * window dispatch: events exactly at a window horizon belong to the
     * next window or to a merged tick-step). Unlike runUntil, now() is
     * left at the last fired event — messages due at or after @p limit
     * may still be applied before time formally advances.
     */
    std::uint64_t runUntilBefore(Tick limit);

    /** Run everything. */
    std::uint64_t run() { return runUntil(kTickMax); }

    /**
     * Fire exactly the front event (merged tick-step dispatch). The
     * caller has already checked the front's key; the same per-dispatch
     * bookkeeping as runUntil applies.
     */
    void fireFront();

    /**
     * The front event's firing key, or a key with when == kTickMax for
     * an empty queue (so min-scans can treat empty as "never").
     */
    EventKey
    frontKey() const
    {
        if (_head == _tail)
            return EventKey{kTickMax, 0, kTickInvalid, 0};
        const Event *ev = _near[_head].ev;
        return EventKey{ev->_when, ev->_schedTick, ev->_parentTick,
                        ev->_seq};
    }

    /** Earliest pending tick (kTickMax when empty). */
    Tick
    nextTick() const
    {
        return _head == _tail ? kTickMax : _near[_head].when;
    }

    /**
     * Advance now() to @p t without dispatching (must not skip pending
     * events). The partitioned kernel uses this at sync points so
     * phase-boundary accounting (resetStats, collectEnergy) sees the
     * same now() the serial runUntil(limit) would have left.
     */
    void
    advanceTo(Tick t)
    {
        memnet_assert(t >= _now, "advanceTo went backwards");
        memnet_assert(t <= nextTick(), "advanceTo skipped events");
        _now = t;
    }

    /**
     * The _schedTick of the event currently firing (kTickInvalid outside
     * the dispatch loop). Cross-partition messages capture this as the
     * parent component of their key.
     */
    Tick currentParentSched() const { return _curParentSched; }

    /** Number of scheduled events. */
    std::uint64_t pending() const { return (_tail - _head) + _far.size(); }

    /** Total number of events ever fired. */
    std::uint64_t fired() const { return _fired; }

    /** Total number of schedule() calls ever made (incl. reschedules). */
    std::uint64_t scheduledTotal() const { return _scheduledTotal; }

    /** Total number of deschedule() calls ever made. */
    std::uint64_t descheduledTotal() const { return _descheduledTotal; }

    /** High-water mark of pending() over the queue's lifetime. */
    std::uint64_t peakPending() const { return _peakDepth; }

    /** Buckets in the dispatch-time depth histogram. */
    static constexpr std::size_t kDepthBuckets = 33;

    /**
     * Histogram of queue depth sampled at every dispatch: bucket b counts
     * dispatches that found bit_width(pending) == b, i.e. bucket 1 is a
     * single pending event, bucket 11 is 1024..2047, and the last bucket
     * absorbs anything deeper. All deterministic — no wall clock.
     */
    const std::array<std::uint64_t, kDepthBuckets> &
    depthHistogram() const
    {
        return _depthHist;
    }

    /** Length of one dispatch-rate window in ticks. */
    Tick dispatchWindowPs() const { return _dispatchWindowPs; }

    /**
     * Set the dispatch-rate window length. Only meaningful before the
     * first event fires; @p window must be positive.
     */
    void
    setDispatchWindow(Tick window)
    {
        memnet_assert(window > 0, "dispatch window must be positive");
        _dispatchWindowPs = window;
    }

    /**
     * Events fired per completed sim-time window of dispatchWindowPs()
     * ticks, in order from tick 0. The window containing now() is still
     * open and not included.
     */
    const std::vector<std::uint64_t> &
    dispatchWindows() const
    {
        return _dispatchWindows;
    }

  private:
    /**
     * A queued event: the firing tick inline, the rest of the key
     * (EventKey) read through the pointer only to break a tick tie.
     */
    struct Entry {
        Tick when;
        Event *ev;
    };

    /**
     * Most events the near window holds. Sized from the depth the
     * simulator actually reaches: on a long serial mixC run 96% of
     * inserts find 48-71 events pending (peak 87), on a fig15 sweep 97%
     * find at most 119, and the deepest queue in the CI baseline peaks
     * at 143. So the window holds the whole queue almost always, and
     * the far heap only sees depth spikes and adversarial shapes. The
     * same mixC run puts the median insert at rank 16 with 11% tying a
     * pending tick, so the shifts stay short.
     */
    static constexpr std::size_t kNearCap = 128;

    /**
     * The window's buffer. The live range [_head, _tail) floats inside
     * it, so an insert or removal can shift whichever side is shorter;
     * it is recentred (one memmove) when the side it needs is full.
     */
    static constexpr std::size_t kNearBuf = 4 * kNearCap;

    /** Event::_slot of an event in the near window. */
    static constexpr std::size_t kNearSlot = SIZE_MAX;

    /** Children per far-heap node. */
    static constexpr std::size_t kAry = 4;

    /**
     * Firing order among events at one tick (see EventKey). Serial
     * schedule() calls make a new event sort after every same-tick peer,
     * but events scheduled outside the dispatch loop and partition
     * messages need the full comparison.
     */
    static bool
    tieBefore(const Event *a, const Event *b)
    {
        if (a->_schedTick != b->_schedTick)
            return a->_schedTick < b->_schedTick;
        if (a->_parentTick != b->_parentTick)
            return a->_parentTick < b->_parentTick;
        return a->_seq < b->_seq;
    }

    /** Strict (when, sched, parent, ctr) order of two entries. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : tieBefore(a.ev, b.ev);
    }

    std::size_t nearSize() const { return _tail - _head; }

    /**
     * First window index whose tick is >= @p when. A quarter of the
     * simulator's inserts land among the first eight entries (a long
     * serial mixC run), so those are counted with eight independent
     * compares; the rest take a branch-free binary search over the
     * inline ticks.
     */
    std::size_t
    nearLowerBound(Tick when) const
    {
        const std::size_t n = nearSize();
        if (n > 8 && when <= _near[_head + 8].when) {
            std::size_t pos = _head;
            for (std::size_t k = 0; k < 8; ++k)
                pos += _near[_head + k].when < when;
            return pos;
        }
        if (n == 0)
            return _head;
        const Entry *base = _near.data() + _head;
        for (std::size_t left = n; left > 1;) {
            const std::size_t half = left / 2;
            base = base[half].when < when ? base + half : base;
            left -= half;
        }
        return static_cast<std::size_t>(base - _near.data()) +
               (base->when < when);
    }

    /**
     * File a freshly keyed event. The common case, an event landing
     * inside a non-full window, stays inline; insertEdge() takes the
     * rest.
     */
    void
    insert(Event *ev)
    {
        const Entry e{ev->_when, ev};
        const std::size_t n = nearSize();
        if (n != 0 && n < kNearCap && before(e, _near[_tail - 1]))
            insertNear(e);
        else
            insertEdge(e);
    }

    /**
     * File an event at the window's edge: into an empty window; in
     * front of a full window's last entry, which moves to the heap; at
     * the window's end if that passes no heap entry; else into the heap.
     */
    void insertEdge(const Entry &e);

    /** Insert into the window at its sorted position. */
    void
    insertNear(const Entry &e)
    {
        std::size_t pos = nearLowerBound(e.when);
        while (pos < _tail && _near[pos].when == e.when &&
               tieBefore(_near[pos].ev, e.ev))
            ++pos;
        e.ev->_slot = kNearSlot;
        const std::size_t rank = pos - _head;
        if (rank <= _tail - pos) {
            if (_head == 0)
                recentre();
            Entry *const front = _near.data() + _head;
            std::memmove(front - 1, front, rank * sizeof(Entry));
            --_head;
            _near[_head + rank] = e;
        } else {
            if (_tail == kNearBuf)
                recentre();
            pos = _head + rank;
            Entry *const at = _near.data() + pos;
            std::memmove(at + 1, at, (_tail - pos) * sizeof(Entry));
            ++_tail;
            _near[pos] = e;
        }
    }

    /**
     * Remove @p ev, whose window entry has tick @p when, closing the
     * gap from the shorter side.
     */
    void
    removeNear(const Event *ev, Tick when)
    {
        std::size_t pos = nearLowerBound(when);
        while (_near[pos].ev != ev) {
            ++pos;
            memnet_assert(pos < _tail, "event missing from the window");
        }
        Entry *const at = _near.data() + pos;
        if (pos - _head < _tail - 1 - pos) {
            Entry *const front = _near.data() + _head;
            std::memmove(front + 1, front, (pos - _head) * sizeof(Entry));
            ++_head;
        } else {
            std::memmove(at, at + 1, (_tail - 1 - pos) * sizeof(Entry));
            --_tail;
        }
        if (_head == _tail)
            refillNear();
    }

    /** Move the window's live range to the middle of its buffer. */
    void recentre();

    /**
     * Refill the emptied window with the heap's earliest kNearCap
     * entries (or just recentre an empty queue).
     */
    void refillNear();

    // The far heap: an intrusive indexed 4-ary heap whose entries
    // record their index in Event::_slot.

    void
    placeFar(const Entry &e, std::size_t slot)
    {
        _far[slot] = e;
        e.ev->_slot = slot;
    }

    void
    siftUp(std::size_t slot)
    {
        const Entry e = _far[slot];
        while (slot > 0) {
            const std::size_t parent = (slot - 1) / kAry;
            if (!before(e, _far[parent]))
                break;
            placeFar(_far[parent], slot);
            slot = parent;
        }
        placeFar(e, slot);
    }

    void
    siftDown(std::size_t slot)
    {
        const Entry e = _far[slot];
        const std::size_t n = _far.size();
        for (;;) {
            const std::size_t first = slot * kAry + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = std::min(first + kAry, n);
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before(_far[c], _far[best]))
                    best = c;
            }
            if (!before(_far[best], e))
                break;
            placeFar(_far[best], slot);
            slot = best;
        }
        placeFar(e, slot);
    }

    void
    pushFar(const Entry &e)
    {
        _far.push_back(e);
        siftUp(_far.size() - 1);
    }

    /** Vacate heap @p slot, restoring order around the moved filler. */
    void
    removeFar(std::size_t slot)
    {
        const Entry filler = _far.back();
        _far.pop_back();
        if (slot == _far.size())
            return; // removed the tail entry
        placeFar(filler, slot);
        if (slot > 0 && before(filler, _far[(slot - 1) / kAry]))
            siftUp(slot);
        else
            siftDown(slot);
    }

    /**
     * Move @p ev, queued with tick @p old, to where its new key belongs:
     * out of its tier, then insert().
     */
    void refile(Event *ev, Tick old);

    /** Pop the front, advance time, and fire it (shared bookkeeping). */
    void dispatchFront();

    /** The near window's buffer; live entries are [_head, _tail). */
    std::array<Entry, kNearBuf> _near{};
    std::size_t _head = kNearBuf / 2;
    std::size_t _tail = kNearBuf / 2;
    /** Far heap: every entry sorts after every window entry. */
    std::vector<Entry> _far;
    Tick _now = 0;
    /** _schedTick of the event being fired (kTickInvalid outside). */
    Tick _curParentSched = kTickInvalid;
    std::uint64_t nextSeq = 0;
    std::uint64_t _fired = 0;
    std::uint64_t _scheduledTotal = 0;
    std::uint64_t _descheduledTotal = 0;
    std::uint64_t _peakDepth = 0;
    std::array<std::uint64_t, kDepthBuckets> _depthHist{};
    Tick _dispatchWindowPs = us(100);
    Tick _windowStart = 0;
    std::uint64_t _windowFired = 0;
    std::vector<std::uint64_t> _dispatchWindows;
};

inline Event::~Event()
{
    if (_scheduled)
        _queue->deschedule(this);
}

} // namespace memnet

#endif // MEMNET_SIM_EVENT_QUEUE_HH
