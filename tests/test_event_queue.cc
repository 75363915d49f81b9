/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
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

// ---------------------------------------------------------------------
// Randomized stress test against a reference model
// ---------------------------------------------------------------------

struct RecordingEvent : public Event
{
    std::vector<int> *log = nullptr;
    int id = 0;
    void fire() override { log->push_back(id); }
};

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
    /** Every 40 ops the queue runs grid * U[0, runSteps] ahead. */
    int runSteps;
    /**
     * Every timerEvery-th event is a far-future timer (0: none): armed
     * at 20-40 times maxSteps ahead, and nine times in ten cancelled
     * rather than moved when picked while armed.
     */
    int timerEvery;
    /**
     * One schedule in remoteEvery goes through scheduleWithKey with a
     * partition-message key (0: none): arbitrary sched and parent, ctr
     * tagged with EventKey::kRemoteCtrBit.
     */
    int remoteEvery;
    /**
     * Depth the run must reach. The deep inputs exist to overflow the
     * queue's 128-entry near window into its far heap.
     */
    std::size_t minPeak;
};

/**
 * Drives the queue through a long random mix of schedule /
 * scheduleWithKey / deschedule / reschedule / runUntil / runUntilBefore
 * and checks the exact firing order, and the front key, against a
 * brute-force model that sorts by the documented EventKey order. The
 * inputs cover the simulator's shallow queue, a queue several times
 * deeper than the near window, a coarse tick grid where many events
 * share a tick, a population of far-future sleep timers that are mostly
 * cancelled, and partition messages carrying foreign keys.
 */
TEST(EventQueueStress, RandomOpsMatchReferenceModel)
{
    const StressCase cases[] = {
        {"shallow", 48, 5000, ns(1), 400, 400, 0, 0, 0},
        {"deep", 512, 30000, ns(1), 1000, 50, 0, 0, 256},
        {"coarse-ticks", 256, 20000, ns(100), 8, 8, 0, 0, 129},
        {"sleep-timers", 512, 30000, ns(1), 400, 400, 2, 0, 129},
        {"remote-keys", 256, 20000, ns(10), 40, 40, 0, 3, 0},
    };
    for (const StressCase &c : cases) {
        SCOPED_TRACE(c.name);
        EventQueue eq;
        std::vector<int> log;
        std::vector<RecordingEvent> events(c.events);
        for (int i = 0; i < c.events; ++i) {
            events[i].log = &log;
            events[i].id = i;
        }

        std::vector<RefEntry> model;
        std::uint64_t seq = 0; // mirrors the queue's sequence counter
        std::uint64_t remoteCtr = 0;
        std::vector<int> expected;
        std::size_t peak = 0;

        std::mt19937 rng(20170205); // fixed: the run must be reproducible
        const auto uniform = [&rng](int lo, int hi) {
            return std::uniform_int_distribution<int>(lo, hi)(rng);
        };
        const auto delay = [&](int id) {
            if (c.timerEvery != 0 && id % c.timerEvery == 0)
                return c.grid * uniform(20 * c.maxSteps, 40 * c.maxSteps);
            return c.grid * uniform(0, c.maxSteps);
        };
        const auto modelFind = [&model](int id) {
            return std::find_if(model.begin(), model.end(),
                                [id](const RefEntry &e) {
                                    return e.id == id;
                                });
        };
        const auto byKey = [](const RefEntry &a, const RefEntry &b) {
            return a.key < b.key;
        };
        const auto localKey = [&](Tick when) {
            return EventKey{when, eq.now(), kTickInvalid, seq++};
        };

        for (int op = 0; op < c.ops; ++op) {
            RecordingEvent &ev = events[uniform(0, c.events - 1)];
            const int action = uniform(0, 9);
            const bool timer = c.timerEvery != 0 && ev.id % c.timerEvery == 0;
            if (!ev.scheduled()) {
                const Tick when = eq.now() + delay(ev.id);
                if (c.remoteEvery != 0 && op % c.remoteEvery == 0) {
                    const Tick sched = c.grid * uniform(0, 4) +
                                       eq.now() - std::min(eq.now(), ns(40));
                    const Tick parent = std::max(
                        kTickInvalid, sched - c.grid * uniform(0, 2) - 1);
                    const EventKey key{when, sched, parent,
                                       EventKey::kRemoteCtrBit |
                                           remoteCtr++};
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

            if (op % 40 == 39) {
                // Alternate the inclusive serial limit with the
                // partitioned kernel's exclusive one.
                const bool before = op % 80 == 79;
                const Tick limit = eq.now() + c.grid * uniform(0, c.runSteps);
                std::vector<RefEntry> due;
                for (const RefEntry &e : model) {
                    if (before ? e.key.when < limit : e.key.when <= limit)
                        due.push_back(e);
                }
                std::sort(due.begin(), due.end(), byKey);
                for (const RefEntry &e : due) {
                    expected.push_back(e.id);
                    model.erase(modelFind(e.id));
                }
                if (before)
                    eq.runUntilBefore(limit);
                else
                    eq.runUntil(limit);
                ASSERT_EQ(log, expected) << "diverged at op " << op;
                ASSERT_EQ(eq.pending(), model.size());
                if (!model.empty()) {
                    const EventKey front =
                        std::min_element(model.begin(), model.end(), byKey)
                            ->key;
                    const EventKey got = eq.frontKey();
                    ASSERT_EQ(got.when, front.when);
                    ASSERT_EQ(got.sched, front.sched);
                    ASSERT_EQ(got.parent, front.parent);
                    ASSERT_EQ(got.ctr, front.ctr);
                }
            }
        }
        EXPECT_EQ(eq.peakPending(), peak);
        EXPECT_GE(peak, c.minPeak);

        // Drain: everything left fires in model order.
        std::sort(model.begin(), model.end(), byKey);
        for (const RefEntry &e : model)
            expected.push_back(e.id);
        eq.run();
        EXPECT_EQ(log, expected);
        EXPECT_EQ(eq.pending(), 0u);
    }
}

TEST(EventQueueStress, DestructorReleasesPendingOneShots)
{
    // Pending component-owned events are unhooked but left alive at
    // teardown; pending lambda one-shots are owned by the queue and
    // freed (ASan would flag a leak or double-free here). An unhooked
    // survivor must be safely destructible after its queue is gone.
    CountingEvent survivor;
    {
        EventQueue eq;
        eq.schedule(&survivor, ns(10));
        for (int i = 0; i < 100; ++i)
            eq.schedule(ns(i), [] {});
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
