/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole system. Components own re-armable
 * Event subclasses (no per-firing allocation on the hot path); ad-hoc
 * one-shot work can be scheduled with a callable via schedule().
 *
 * Events fire in (when, sched, parent, ctr) order: by tick, and at
 * one tick in scheduling order (FIFO), which keeps runs deterministic
 * for a fixed seed. The key's pieces are
 *
 *  - when:   the firing tick;
 *  - sched:  the queue's now() at the schedule()/reschedule() call;
 *  - parent: the sched of the event that was firing when this one was
 *            scheduled (kTickInvalid when scheduled outside the
 *            dispatch loop, i.e. during construction);
 *  - ctr:    a monotone counter breaking remaining ties.
 *
 * Inside the dispatch loop this is FIFO order: sched is monotone
 * non-decreasing in ctr (time never goes backwards), and events firing
 * at one tick fire in ctr order, so their scheds, the parents of what
 * they schedule, are also non-decreasing in ctr. It is not (when, ctr)
 * order in general: a schedule made outside the loop (parent
 * kTickInvalid) after runUntil() stopped at a tick where events fired
 * sorts before the events they scheduled for the same tick.
 *
 * The queue is a calendar queue (R. Brown, "Calendar Queues", CACM
 * 31(10), 1988):
 *
 *  - a ring of kBuckets slots. Tick t lies on day t >> kBucketShift,
 *    and day d files into slot d modulo kBuckets, so one turn of the
 *    ring (a "year") spans kBuckets days. Each slot holds a key-sorted
 *    circular list threaded through the events themselves; an event a
 *    year or more ahead sits in its day's list behind that slot's
 *    nearer events;
 *  - a two-level occupancy bitmap (one bit per slot, one summary bit
 *    per bitmap word) that finds the next non-empty slot in two
 *    count-trailing-zeros steps;
 *  - a cached pointer to the front event, so a pop never searches.
 *
 * deschedule() and reschedule() unlink the event at once, so there are
 * never stale entries to filter.
 */

#ifndef MEMNET_SIM_EVENT_QUEUE_HH
#define MEMNET_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/log.hh"
#include "sim/types.hh"

namespace memnet
{

class EventQueue;

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
    /** Tie-break counter (the key's ctr). */
    std::uint64_t _seq = 0;
    /** Neighbours in the ring slot's circular list. */
    Event *_prev = nullptr;
    Event *_next = nullptr;
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
        ev->_queue = this;
        stampLocal(ev, when);
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
     * Remove a scheduled event from the queue at once; the event can be
     * destroyed or rescheduled freely afterwards.
     */
    void
    deschedule(Event *ev)
    {
        memnet_assert(ev->_scheduled, "descheduling unscheduled event");
        remove(ev);
        ev->_scheduled = false;
        ++_descheduledTotal;
    }

    /**
     * (Re)schedule, descheduling first if needed. Keeps the legacy FIFO
     * contract: the move consumes a fresh sequence number, exactly as
     * deschedule()+schedule() always did.
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
        ++_scheduledTotal;
        remove(ev);
        stampLocal(ev, when);
        insert(ev);
    }

    /**
     * Run until the queue empties or simulated time would exceed @p limit.
     * Events exactly at @p limit are executed.
     * @return number of events fired.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run everything. */
    std::uint64_t run() { return runUntil(kTickMax); }

    /** Number of scheduled events. */
    std::uint64_t pending() const { return _size; }

    /** Total number of events ever fired. */
    std::uint64_t fired() const { return _fired; }

    /** Total number of schedule() calls ever made (incl. reschedules). */
    std::uint64_t scheduledTotal() const { return _scheduledTotal; }

    /** Total number of deschedule() calls ever made. */
    std::uint64_t descheduledTotal() const { return _descheduledTotal; }

    /** High-water mark of pending() over the queue's lifetime. */
    std::uint64_t peakPending() const { return _peakDepth; }

  private:
    /**
     * Ring geometry, sized from the delays the simulator schedules. On
     * a long serial mixC run (25.2M inserts) an insert lands 0 ns ahead
     * 1.05M times (zero-delay vault starts), 0.5-4 ns ahead 14.0M times,
     * 4-8 ns ahead 3.5M times, 8-66 ns ahead 3.3M times (the 32 ns
     * sleep thresholds), 1-2.1 us ahead 2.74M times (the 2,048 ns
     * thresholds), and past 4.2 us only 336 times (epochs and
     * checkpoints). Most of the pending events bunch into the next few
     * ns, so the lists stay short only in narrow days: on that run an
     * insert walks past 1.08 list entries on average with 1,024 ps
     * days and 0.30 with 256 ps ones, which took 6-12% less CPU in
     * alternating runs. A year of 4,096 days of 256 ps spans 1.05 us.
     * The 2,048 ns sleep timers (97% of them cancelled) and the epochs
     * lie a year or more ahead and sort behind the nearer events of
     * their slot; at most one timer per link and a few epochs are that
     * far out, so they seldom share a slot with the front. The
     * occupancy bitmap is 64 words under one summary word.
     */
    static constexpr unsigned kBucketShift = 8;
    static constexpr std::size_t kBuckets = 4096;
    static constexpr std::size_t kWords = kBuckets / 64;
    static_assert(kWords <= 64, "one summary word covers the bitmap");

    /** Firing order among events at one tick (see the file comment). */
    static bool
    tieBefore(const Event *a, const Event *b)
    {
        if (a->_schedTick != b->_schedTick)
            return a->_schedTick < b->_schedTick;
        if (a->_parentTick != b->_parentTick)
            return a->_parentTick < b->_parentTick;
        return a->_seq < b->_seq;
    }

    /** Strict (when, sched, parent, ctr) order of two events. */
    static bool
    ringBefore(const Event *a, const Event *b)
    {
        return a->_when != b->_when ? a->_when < b->_when : tieBefore(a, b);
    }

    /** Give @p ev the natural local key of a schedule at now(). */
    void
    stampLocal(Event *ev, Tick when)
    {
        ev->_when = when;
        ev->_schedTick = _now;
        ev->_parentTick = _curParentSched;
        ev->_seq = nextSeq++;
    }

    /** Ring slot of tick @p when. */
    static std::size_t
    slotOf(Tick when)
    {
        return static_cast<std::size_t>(when >> kBucketShift) &
               (kBuckets - 1);
    }

    /** File a freshly keyed event into its slot; the front follows. */
    void
    insert(Event *ev)
    {
        ringInsert(ev);
        if (_size == 1 || ringBefore(ev, _front))
            _front = ev;
    }

    /**
     * Link @p ev into its slot's list, walking back from the tail
     * (a fresh local event sorts after nearly everything pending).
     */
    void
    ringInsert(Event *ev)
    {
        const std::size_t slot = slotOf(ev->_when);
        ++_size;
        Event *&head = _bucket[slot];
        if (!head) {
            ev->_prev = ev->_next = ev;
            head = ev;
            _occupied[slot / 64] |= 1ULL << (slot % 64);
            _summary |= 1ULL << (slot / 64);
            return;
        }
        Event *at = head->_prev;
        while (ringBefore(ev, at)) {
            if (at == head) {
                linkAfter(ev, head->_prev);
                head = ev;
                return;
            }
            at = at->_prev;
        }
        linkAfter(ev, at);
    }

    static void
    linkAfter(Event *ev, Event *at)
    {
        ev->_prev = at;
        ev->_next = at->_next;
        at->_next->_prev = ev;
        at->_next = ev;
    }

    /** Unlink @p ev from its slot's list. */
    void
    ringUnlink(Event *ev)
    {
        const std::size_t slot = slotOf(ev->_when);
        --_size;
        if (ev->_next == ev) {
            _bucket[slot] = nullptr;
            if ((_occupied[slot / 64] &= ~(1ULL << (slot % 64))) == 0)
                _summary &= ~(1ULL << (slot / 64));
            return;
        }
        ev->_prev->_next = ev->_next;
        ev->_next->_prev = ev->_prev;
        if (_bucket[slot] == ev)
            _bucket[slot] = ev->_next;
    }

    /**
     * First occupied slot at or after @p slot in ring order (wrapping
     * past the end). The ring must not be empty.
     */
    std::size_t
    firstOccupied(std::size_t slot) const
    {
        std::size_t w = slot / 64;
        const std::uint64_t here = _occupied[w] & (~0ULL << (slot % 64));
        if (here)
            return w * 64 + static_cast<std::size_t>(std::countr_zero(here));
        // Later words first; past the end, the lowest occupied word,
        // which can be w itself (only its bits below slot are left).
        const std::uint64_t later = _summary & (~1ULL << w);
        w = static_cast<std::size_t>(
            std::countr_zero(later ? later : _summary));
        return w * 64 + static_cast<std::size_t>(
                            std::countr_zero(_occupied[w]));
    }

    /**
     * Unlink @p ev. When it was the front, every event left lies at or
     * after it, so the new front is the head of the first slot, from
     * the old front's on, whose head lies in that slot's day of the
     * current year; a head a year or more ahead belongs to a later turn
     * and is passed over. If a full turn finds none, every event is a
     * year or more ahead, and the least head is the front.
     */
    void
    remove(Event *ev)
    {
        ringUnlink(ev);
        if (ev != _front)
            return;
        if (_size == 0) {
            _front = nullptr;
            return;
        }
        const Tick day0 = ev->_when >> kBucketShift;
        const std::size_t slot0 = slotOf(ev->_when);
        for (std::size_t ahead = 0; ahead < kBuckets; ++ahead) {
            const std::size_t from = (slot0 + ahead) & (kBuckets - 1);
            const std::size_t slot = firstOccupied(from);
            ahead += (slot - from) & (kBuckets - 1);
            Event *head = _bucket[slot];
            if (ahead < kBuckets && (head->_when >> kBucketShift) - day0 ==
                                        static_cast<Tick>(ahead)) {
                _front = head;
                return;
            }
        }
        _front = leastHead();
    }

    /** The least slot head: the front when all are a year ahead. */
    Event *leastHead() const;

    /** Pop the front, advance time, and fire it (shared bookkeeping). */
    void dispatchFront();

    /** Head (earliest event) of each slot's list; nullptr when empty. */
    std::array<Event *, kBuckets> _bucket{};
    /** Bit s of word s / 64: slot s is non-empty. */
    std::array<std::uint64_t, kWords> _occupied{};
    /** Bit w: _occupied[w] is non-zero. */
    std::uint64_t _summary = 0;
    std::size_t _size = 0;
    /** The next event to fire (nullptr when the queue is empty). */
    Event *_front = nullptr;
    Tick _now = 0;
    /** _schedTick of the event being fired (kTickInvalid outside). */
    Tick _curParentSched = kTickInvalid;
    std::uint64_t nextSeq = 0;
    std::uint64_t _fired = 0;
    std::uint64_t _scheduledTotal = 0;
    std::uint64_t _descheduledTotal = 0;
    std::uint64_t _peakDepth = 0;
};

inline Event::~Event()
{
    if (_scheduled)
        _queue->deschedule(this);
}

} // namespace memnet

#endif // MEMNET_SIM_EVENT_QUEUE_HH
