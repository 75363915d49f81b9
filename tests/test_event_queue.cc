/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
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
// Queue-health counters (peak depth, deschedules, depth histogram,
// dispatch-rate windows) — surfaced through RunProfile and the stats
// registry, so their semantics are pinned down here.
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

TEST(EventQueueHealth, DepthHistogramCountsEveryDispatch)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(ns(i + 1), [] {});
    eq.run();
    std::uint64_t total = 0;
    for (std::uint64_t v : eq.depthHistogram())
        total += v;
    EXPECT_EQ(total, eq.fired());
    // First dispatch saw all 10 pending: bucket bit_width(10) = 4.
    EXPECT_GE(eq.depthHistogram()[4], 1u);
}

TEST(EventQueueHealth, DispatchWindowsCloseOnSimTimeBoundaries)
{
    EventQueue eq;
    eq.setDispatchWindow(ns(100));
    EXPECT_EQ(eq.dispatchWindowPs(), ns(100));
    for (Tick t : {ns(10), ns(50), ns(120), ns(350)})
        eq.schedule(t, [] {});
    eq.run();
    // [0,100): 2 events; [100,200): 1; [200,300): 0. The window holding
    // the final event stays open and is not reported.
    EXPECT_EQ(eq.dispatchWindows(),
              (std::vector<std::uint64_t>{2, 1, 0}));
}

TEST(EventQueueHealth, HugeIdleGapRealignsInsteadOfZeroFilling)
{
    EventQueue eq;
    eq.setDispatchWindow(ns(1));
    eq.schedule(us(100), [] {}); // 1e5 windows ahead: over the cap
    eq.run();
    EXPECT_TRUE(eq.dispatchWindows().empty());
    EXPECT_EQ(eq.fired(), 1u);
}

struct RecordingEvent : public Event
{
    std::vector<int> *log = nullptr;
    int id = 0;
    void fire() override { log->push_back(id); }
};

// ---------------------------------------------------------------------
// Keyed messages: a partition message may carry a sched later than the
// receiving queue's now(), so it can sort after a local event scheduled
// afterwards at the same tick.
// ---------------------------------------------------------------------

TEST(EventQueueKeyed, MessageFromAheadSortsAfterLaterLocalEvent)
{
    EventQueue eq;
    eq.runUntil(ns(10));
    std::vector<int> order;
    RecordingEvent spacer, local, message;
    for (RecordingEvent *ev : {&spacer, &local, &message})
        ev->log = &order;
    spacer.id = 0;
    local.id = 1;
    message.id = 2;
    const Tick t = ns(30);
    // Sent by a lane already at 20 ns: sched 20 ns > now() = 10 ns.
    eq.scheduleWithKey(&message, EventKey{t, ns(20), ns(19),
                                          EventKey::kRemoteCtrBit});
    // Keeps the front away from t while the local event is filed.
    eq.schedule(&spacer, ns(20));
    // Fires at now() and schedules the local event at t, keyed
    // (t, 10 ns, 10 ns, ctr): it sorts before the message.
    eq.schedule(ns(10), [&] { eq.schedule(&local, t); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------
// Randomized stress test against a reference model
// ---------------------------------------------------------------------

/** One turn of the queue's ring (a "year"): 4,096 days of 256 ps. */
constexpr Tick kYear = 4096 * 256;

/** One scheduled entry mirrored outside the queue. */
struct RefEntry
{
    EventKey key;
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
    /**
     * Every 40 ops the queue runs grid * U[0, runSteps] ahead; every
     * 120 ops it then also advanceTo()s up to that far, stopping at the
     * next pending tick.
     */
    int runSteps;
    /**
     * Every timerEvery-th event is a far-future timer (0: none): armed
     * at 20-40 times maxSteps ahead, and nine times in ten cancelled
     * rather than moved when picked while armed.
     */
    int timerEvery;
    /**
     * One schedule in remoteEvery goes through scheduleWithKey with a
     * partition-message key (0: none): arbitrary sched (up to 40 ns
     * past now()) and parent, ctr tagged with EventKey::kRemoteCtrBit.
     */
    int remoteEvery;
    /** Depth the run must reach. */
    std::size_t minPeak;
};

/**
 * Drives one queue through a random mix of schedule / scheduleWithKey /
 * deschedule / reschedule / runUntil / runUntilBefore / advanceTo, and
 * mirrors each in a brute-force model ordered by the documented
 * EventKey. Every firing must be the model's least key within the run
 * limit, and one firing in three itself schedules, reschedules or
 * deschedules a random event, so local keys are made inside the
 * dispatch loop as well as outside it.
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
    randomOp(int op, bool inFire)
    {
        ModelEvent &ev = events[uniform(0, c.events - 1)];
        const int action = uniform(0, 9);
        const bool timer = isTimer(ev.id);
        if (!ev.scheduled()) {
            const Tick when = eq.now() + delay(ev.id);
            // Messages are applied between windows, never from fire().
            if (!inFire && c.remoteEvery != 0 && op % c.remoteEvery == 0) {
                const Tick sched = c.grid * uniform(0, 8) + eq.now() -
                                   std::min(eq.now(), ns(40));
                const Tick parent = std::max(
                    kTickInvalid, sched - c.grid * uniform(0, 2) - 1);
                const EventKey key{when, sched, parent,
                                   EventKey::kRemoteCtrBit | remoteCtr++};
                eq.scheduleWithKey(&ev, key);
                model.push_back({key, ev.id});
            } else {
                eq.schedule(&ev, when);
                model.push_back({localKey(when), ev.id});
            }
        } else if (action < (timer ? 9 : 2)) {
            eq.deschedule(&ev);
            model.erase(modelFind(ev.id));
        } else if (action < 8 || timer) {
            const Tick when = eq.now() + delay(ev.id);
            eq.reschedule(&ev, when);
            modelFind(ev.id)->key = localKey(when);
        }
        peak = std::max(peak, model.size());
    }

    /**
     * Run to @p limit, inclusive (runUntil) or not (runUntilBefore),
     * and check the queue against the model.
     */
    void
    runTo(Tick limit, bool before)
    {
        limit_ = limit;
        before_ = before;
        if (before)
            eq.runUntilBefore(limit);
        else
            eq.runUntil(limit);
        ASSERT_EQ(diverged, "");
        ASSERT_EQ(eq.fired(), fired);
        ASSERT_EQ(eq.pending(), model.size());
        if (model.empty())
            return;
        const EventKey front = least()->key;
        ASSERT_TRUE(before ? front.when >= limit : front.when > limit)
            << "an event due by the limit did not fire";
        const EventKey got = eq.frontKey();
        ASSERT_EQ(got.when, front.when);
        ASSERT_EQ(got.sched, front.sched);
        ASSERT_EQ(got.parent, front.parent);
        ASSERT_EQ(got.ctr, front.ctr);
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
        if (it->id != id || (before_ ? it->key.when >= limit_
                                     : it->key.when > limit_)) {
            diverged = "event " + std::to_string(id) + " fired at " +
                       std::to_string(eq.now()) + "; expected event " +
                       std::to_string(it->id);
            return;
        }
        model.erase(it);
        ++fired;
        if (uniform(0, 2) == 0)
            randomOp(0, true);
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

    EventKey
    localKey(Tick when)
    {
        return EventKey{when, eq.now(), eq.currentParentSched(), seq++};
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
    std::uint64_t remoteCtr = 0;
    std::uint64_t fired = 0;
    std::string diverged;
    Tick limit_ = kTickMax;
    bool before_ = false;
    std::mt19937 rng{20170205}; // fixed: the run must be reproducible
};

/**
 * The inputs cover the simulator's shallow queue, a queue several
 * hundred events deep, many ticks per ring bucket, a coarse tick grid
 * where many events share a tick, a population of far-future sleep
 * timers that are mostly cancelled, partition messages carrying foreign
 * keys, and delays and time jumps of up to three years (ring turns),
 * which file events into the slots of nearer days and make the front
 * search pass over them or, when nothing lies within a year, take the
 * least head.
 */
TEST(EventQueueStress, RandomOpsMatchReferenceModel)
{
    const StressCase cases[] = {
        {"shallow", 48, 5000, ns(1), 400, 400, 0, 0, 0},
        {"deep", 512, 30000, ns(1), 1000, 50, 0, 0, 256},
        {"sub-bucket", 128, 20000, 40, 400, 400, 0, 0, 64},
        {"coarse-ticks", 256, 20000, ns(100), 8, 8, 0, 0, 129},
        {"sleep-timers", 512, 30000, ns(1), 400, 400, 2, 0, 129},
        {"remote-keys", 256, 20000, ns(10), 40, 40, 0, 3, 0},
        {"past-horizon", 256, 20000, 640, 3 * kYear / 640,
         2 * kYear / 640, 4, 5, 64},
    };
    for (const StressCase &c : cases) {
        SCOPED_TRACE(c.name);
        StressDriver d(c);
        std::mt19937 rng(19880601);
        const auto uniform = [&rng](int lo, int hi) {
            return std::uniform_int_distribution<int>(lo, hi)(rng);
        };
        for (int op = 0; op < c.ops; ++op) {
            d.randomOp(op, false);
            if (op % 40 != 39)
                continue;
            // Alternate the inclusive serial limit with the partitioned
            // kernel's exclusive one.
            const Tick limit =
                d.eq.now() + c.grid * uniform(0, c.runSteps);
            d.runTo(limit, op % 80 == 79);
            if (HasFatalFailure())
                FAIL() << "diverged at op " << op;
            if (op % 120 == 119) {
                const Tick jump =
                    d.eq.now() + c.grid * uniform(0, c.runSteps);
                d.eq.advanceTo(std::min(jump, d.eq.nextTick()));
            }
        }
        EXPECT_EQ(d.eq.peakPending(), d.peak);
        EXPECT_GE(d.peak, c.minPeak);

        // Drain: everything left fires in model order.
        d.runTo(kTickMax, false);
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

} // namespace
} // namespace memnet
