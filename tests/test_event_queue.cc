/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

namespace memnet
{
namespace
{

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.fired(), 0u);
}

TEST(EventQueue, OneShotLambdaFiresAtScheduledTick)
{
    EventQueue eq;
    Tick seen = kTickInvalid;
    eq.schedule(ns(5), [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, ns(5));
    EXPECT_EQ(eq.now(), ns(5));
}

TEST(EventQueue, EventsFireInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(ns(30), [&] { order.push_back(3); });
    eq.schedule(ns(10), [&] { order.push_back(1); });
    eq.schedule(ns(20), [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(ns(7), [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(ns(10), [&] { ++fired; });
    eq.schedule(ns(20), [&] { ++fired; });
    eq.schedule(ns(30), [&] { ++fired; });
    eq.runUntil(ns(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), ns(20));
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(us(3));
    EXPECT_EQ(eq.now(), us(3));
}

struct CountingEvent : public Event
{
    int fired = 0;
    void fire() override { ++fired; }
};

TEST(EventQueue, MemberStyleEventReArmable)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(1));
    eq.run();
    EXPECT_EQ(ev.fired, 1);
    EXPECT_FALSE(ev.scheduled());
    eq.schedule(&ev, ns(2));
    eq.run();
    EXPECT_EQ(ev.fired, 2);
}

TEST(EventQueue, DescheduleCancelsFiring)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(5));
    EXPECT_TRUE(ev.scheduled());
    eq.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_EQ(ev.fired, 0);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RescheduleMovesFiringTime)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(5));
    eq.reschedule(&ev, ns(9));
    Tick when = kTickInvalid;
    eq.schedule(ns(6), [&] {
        // At ns(6) the event must not have fired yet.
        EXPECT_EQ(ev.fired, 0);
        when = eq.now();
    });
    eq.run();
    EXPECT_EQ(when, ns(6));
    EXPECT_EQ(ev.fired, 1);
    EXPECT_EQ(ev.when(), ns(9));
}

TEST(EventQueue, RescheduleEarlierFiresEarlier)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(100));
    eq.reschedule(&ev, ns(2));
    eq.runUntil(ns(10));
    EXPECT_EQ(ev.fired, 1);
}

TEST(EventQueue, EventsScheduledDuringFiringRun)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.schedule(eq.now() + ns(1), chain);
    };
    eq.schedule(ns(1), chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), ns(5));
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    CountingEvent a, b;
    eq.schedule(&a, ns(1));
    eq.schedule(&b, ns(2));
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.fired(), 1u);
}

// ---------------------------------------------------------------------
// Queue-health counters (peak depth, deschedules) — surfaced through
// RunProfile, so their semantics are pinned down here.
// ---------------------------------------------------------------------

TEST(EventQueueHealth, PeakDepthIsHighWaterNotCurrent)
{
    EventQueue eq;
    CountingEvent a, b, c;
    eq.schedule(&a, ns(1));
    eq.schedule(&b, ns(2));
    eq.schedule(&c, ns(3));
    EXPECT_EQ(eq.peakPending(), 3u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.peakPending(), 3u); // high-water survives the drain
    EXPECT_EQ(eq.scheduledTotal(), 3u);
}

TEST(EventQueueHealth, DescheduledCountsExplicitCancelsOnly)
{
    EventQueue eq;
    CountingEvent a, b;
    eq.schedule(&a, ns(1));
    eq.schedule(&b, ns(2));
    eq.deschedule(&a);
    EXPECT_EQ(eq.descheduledTotal(), 1u);
    // Dispatch pops and reschedules are not deschedules.
    eq.schedule(&a, ns(3));
    eq.reschedule(&a, ns(4));
    eq.run();
    EXPECT_EQ(eq.descheduledTotal(), 1u);
}

struct RecordingEvent : public Event
{
    std::vector<int> *log = nullptr;
    int id = 0;
    void fire() override { log->push_back(id); }
};

// ---------------------------------------------------------------------
// Randomized stress test against a reference model
// ---------------------------------------------------------------------

/** One turn of the queue's ring (a "year"): 4,096 days of 256 ps. */
constexpr Tick kYear = 4096 * 256;

/** The documented firing key, (when, sched, parent, ctr). */
struct RefKey
{
    Tick when;
    Tick sched;
    Tick parent;
    std::uint64_t ctr;

    bool
    operator<(const RefKey &o) const
    {
        return std::tie(when, sched, parent, ctr) <
               std::tie(o.when, o.sched, o.parent, o.ctr);
    }
};

/** One scheduled entry mirrored outside the queue. */
struct RefEntry
{
    RefKey key;
    int id;
};

/** One input of the reference-model stress test. */
struct StressCase
{
    const char *name;
    int events;
    int ops;
    /** Every delay is a multiple of this; a coarse grid makes many
     *  events share a tick. */
    Tick grid;
    /** Schedule delays are grid * U[0, maxSteps]. */
    int maxSteps;
    /** Every 40 ops the queue runs grid * U[0, runSteps] ahead. */
    int runSteps;
    /**
     * Every timerEvery-th event is a far-future timer (0: none): armed
     * at 20-40 times maxSteps ahead, and nine times in ten cancelled
     * rather than moved when picked while armed.
     */
    int timerEvery;
    /** Depth the run must reach. */
    std::size_t minPeak;
};

/**
 * Drives one queue through a random mix of schedule / deschedule /
 * reschedule / runUntil, and mirrors each in a brute-force model
 * ordered by the documented key (RefKey). Every firing must be the
 * model's least key within the run limit, and one firing in three
 * itself schedules, reschedules or deschedules a random event, so keys
 * are made inside the dispatch loop as well as outside it.
 */
class StressDriver
{
  public:
    explicit StressDriver(const StressCase &sc) : c(sc), events(sc.events)
    {
        for (int i = 0; i < c.events; ++i) {
            events[i].driver = this;
            events[i].id = i;
        }
    }

    /** One random operation on a random event. */
    void
    randomOp()
    {
        ModelEvent &ev = events[uniform(0, c.events - 1)];
        const int action = uniform(0, 9);
        const bool timer = isTimer(ev.id);
        if (!ev.scheduled()) {
            const Tick when = eq.now() + delay(ev.id);
            eq.schedule(&ev, when);
            model.push_back({keyAt(when), ev.id});
        } else if (action < (timer ? 9 : 2)) {
            eq.deschedule(&ev);
            model.erase(modelFind(ev.id));
        } else if (action < 8 || timer) {
            const Tick when = eq.now() + delay(ev.id);
            eq.reschedule(&ev, when);
            modelFind(ev.id)->key = keyAt(when);
        }
        peak = std::max(peak, model.size());
    }

    /** Run to @p limit, inclusive, and check the queue against the model. */
    void
    runTo(Tick limit)
    {
        limit_ = limit;
        eq.runUntil(limit);
        ASSERT_EQ(diverged, "");
        ASSERT_EQ(eq.fired(), fired);
        ASSERT_EQ(eq.pending(), model.size());
        if (!model.empty()) {
            ASSERT_GT(least()->key.when, limit)
                << "an event due by the limit did not fire";
        }
    }

    const StressCase &c;
    EventQueue eq;
    std::size_t peak = 0;

  private:
    struct ModelEvent : public Event
    {
        StressDriver *driver = nullptr;
        int id = 0;
        void fire() override { driver->onFire(id); }
    };

    void
    onFire(int id)
    {
        if (!diverged.empty())
            return;
        const auto it = least();
        if (it->id != id || it->key.when > limit_) {
            diverged = "event " + std::to_string(id) + " fired at " +
                       std::to_string(eq.now()) + "; expected event " +
                       std::to_string(it->id);
            return;
        }
        // What this firing schedules takes its sched as parent.
        parent = it->key.sched;
        model.erase(it);
        ++fired;
        if (uniform(0, 2) == 0)
            randomOp();
        parent = kTickInvalid;
    }

    bool
    isTimer(int id) const
    {
        return c.timerEvery != 0 && id % c.timerEvery == 0;
    }

    int
    uniform(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    }

    Tick
    delay(int id)
    {
        if (isTimer(id))
            return c.grid * uniform(20 * c.maxSteps, 40 * c.maxSteps);
        return c.grid * uniform(0, c.maxSteps);
    }

    /** The key of a schedule made now, for tick @p when. */
    RefKey
    keyAt(Tick when)
    {
        return RefKey{when, eq.now(), parent, seq++};
    }

    std::vector<RefEntry>::iterator
    modelFind(int id)
    {
        return std::find_if(model.begin(), model.end(),
                            [id](const RefEntry &e) { return e.id == id; });
    }

    std::vector<RefEntry>::iterator
    least()
    {
        return std::min_element(
            model.begin(), model.end(),
            [](const RefEntry &a, const RefEntry &b) { return a.key < b.key; });
    }

    std::vector<ModelEvent> events;
    std::vector<RefEntry> model;
    std::uint64_t seq = 0; // mirrors the queue's sequence counter
    /** Sched of the event firing now (kTickInvalid outside fire()). */
    Tick parent = kTickInvalid;
    std::uint64_t fired = 0;
    std::string diverged;
    Tick limit_ = kTickMax;
    std::mt19937 rng{20170205}; // fixed: the run must be reproducible
};

/**
 * The inputs cover the simulator's shallow queue, a queue several
 * hundred events deep, many ticks per ring bucket, a coarse tick grid
 * where many events share a tick, a population of far-future sleep
 * timers that are mostly cancelled, and delays and time jumps of up to
 * three years (ring turns),
 * which file events into the slots of nearer days and make the front
 * search pass over them or, when nothing lies within a year, take the
 * least head.
 */
TEST(EventQueueStress, RandomOpsMatchReferenceModel)
{
    const StressCase cases[] = {
        {"shallow", 48, 5000, ns(1), 400, 400, 0, 0},
        {"deep", 512, 30000, ns(1), 1000, 50, 0, 256},
        {"sub-bucket", 128, 20000, 40, 400, 400, 0, 64},
        {"coarse-ticks", 256, 20000, ns(100), 8, 8, 0, 120},
        {"sleep-timers", 512, 30000, ns(1), 400, 400, 2, 129},
        {"past-horizon", 256, 20000, 640, 3 * kYear / 640,
         2 * kYear / 640, 4, 64},
    };
    for (const StressCase &c : cases) {
        SCOPED_TRACE(c.name);
        StressDriver d(c);
        std::mt19937 rng(19880601);
        const auto uniform = [&rng](int lo, int hi) {
            return std::uniform_int_distribution<int>(lo, hi)(rng);
        };
        for (int op = 0; op < c.ops; ++op) {
            d.randomOp();
            if (op % 40 != 39)
                continue;
            d.runTo(d.eq.now() + c.grid * uniform(0, c.runSteps));
            if (HasFatalFailure())
                FAIL() << "diverged at op " << op;
        }
        EXPECT_EQ(d.eq.peakPending(), d.peak);
        EXPECT_GE(d.peak, c.minPeak);

        // Drain: everything left fires in model order.
        d.runTo(kTickMax);
        EXPECT_EQ(d.eq.pending(), 0u);
    }
}

TEST(EventQueueStress, DestructorReleasesPendingOneShots)
{
    // Pending component-owned events are unhooked but left alive at
    // teardown; pending lambda one-shots are owned by the queue and
    // freed (ASan would flag a leak or double-free here). An unhooked
    // survivor must be safely destructible after its queue is gone.
    // Three one-shots lie a year or more ahead: two share a slot's list
    // with near one-shots, the third has a slot to itself.
    CountingEvent survivor;
    {
        EventQueue eq;
        eq.schedule(&survivor, ns(10));
        for (int i = 0; i < 100; ++i)
            eq.schedule(ns(i), [] {});
        eq.schedule(ns(5) + kYear, [] {});
        eq.schedule(3 * kYear + 777, [] {});
        eq.schedule(us(50), [] {});
        EXPECT_EQ(eq.pending(), 104u);
    }
    EXPECT_EQ(survivor.fired, 0);
}

TEST(EventQueueStress, DestructorToleratesOwnerDyingFirst)
{
    // Components and the queue have independent lifetimes: a Network and
    // its Links can be destroyed while their events still sit in the
    // queue. Under ASan/TSan this test catches any use-after-free.
    auto *orphan = new CountingEvent;
    EventQueue eq;
    eq.schedule(orphan, ns(10));
    eq.schedule(ns(5), [] {});
    delete orphan;
}

TEST(EventQueueStress, DyingOwnerRemovesItsPendingEvents)
{
    // Regression: a component destroyed while its events were still
    // scheduled used to leave dangling heap entries, and the next
    // schedule() dereferenced them while sifting (segfaulted when a
    // test fixture rebuilt a Network on a live queue). A scheduled
    // event now removes itself on destruction.
    EventQueue eq;
    auto *doomed = new CountingEvent;
    eq.schedule(doomed, ns(10));
    EXPECT_EQ(eq.pending(), 1u);
    delete doomed;
    EXPECT_EQ(eq.pending(), 0u);

    CountingEvent later;
    eq.schedule(&later, ns(20));
    eq.run();
    EXPECT_EQ(later.fired, 1);
    EXPECT_EQ(eq.fired(), 1u);
}

// ---------------------------------------------------------------------
// The documented firing key, case by case: the stress test above
// checks it on random inputs, these pin each rule by name.
// ---------------------------------------------------------------------

/** A one-shot that appends @p id to @p log. */
auto
logs(std::vector<int> &log, int id)
{
    return [&log, id] { log.push_back(id); };
}

TEST(EventQueueOrder, RescheduleToTheSameTickMovesBehindItsPeers)
{
    // A move takes a fresh key, as deschedule()+schedule() would.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent ev[3];
    for (int i = 0; i < 3; ++i) {
        ev[i].log = &log;
        ev[i].id = i;
        eq.schedule(&ev[i], ns(10));
    }
    eq.reschedule(&ev[0], ns(10));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 0}));
}

TEST(EventQueueOrder, ZeroDelayScheduleFiresAfterItsTicksPendingPeers)
{
    // Scheduled at tick 10 for tick 10, event 2 has a later sched than
    // event 1, which was scheduled at 0, so it fires last.
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(ns(10), [&] {
        log.push_back(0);
        eq.schedule(eq.now(), logs(log, 2));
    });
    eq.schedule(ns(10), logs(log, 1));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueOrder, OutsideScheduleSortsBeforeLoopSchedulesAtOneTick)
{
    // The one case the file comment names where firing order is not
    // (when, ctr): both events are scheduled at tick 10 for tick 20,
    // event 1 from inside the loop (parent 0) and event 0 after
    // runUntil returned (no parent), so event 0 fires first.
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(ns(10), [&] { eq.schedule(ns(20), logs(log, 1)); });
    eq.runUntil(ns(10));
    eq.schedule(ns(20), logs(log, 0));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1}));
}

TEST(EventQueueOrder, TicksAYearApartShareASlotYetFireInTickOrder)
{
    // Ticks whole years apart file into one ring slot; each fires at
    // its own tick, and events at one tick stay FIFO.
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(2 * kYear + 5, logs(log, 0));
    eq.schedule(5, logs(log, 1));
    eq.schedule(2 * kYear + 5, logs(log, 2));
    eq.schedule(kYear + 5, logs(log, 3));
    eq.schedule(5, logs(log, 4));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 4, 3, 0, 2}));
}

TEST(EventQueueOrder, DescheduleLeavesTheTicksOtherEventsInOrder)
{
    // Unlinking the front and a middle event of one tick's list keeps
    // the rest in FIFO order; the front event then rejoins at the back.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent ev[4];
    for (int i = 0; i < 4; ++i) {
        ev[i].log = &log;
        ev[i].id = i;
        eq.schedule(&ev[i], ns(10));
    }
    eq.deschedule(&ev[0]);
    eq.deschedule(&ev[2]);
    eq.schedule(&ev[0], ns(10));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 3, 0}));
}

} // namespace
} // namespace memnet
