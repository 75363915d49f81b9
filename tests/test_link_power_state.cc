/**
 * @file
 * Unit tests for the passive link power state machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "linkpm/link_power_state.hh"

namespace memnet
{
namespace
{

class LinkPowerStateVwl : public ::testing::Test
{
  protected:
    LinkPowerStateVwl()
        : table(&ModeTable::forMechanism(BwMechanism::Vwl))
    {
        roo.enabled = true;
        state = std::make_unique<LinkPowerState>(table, &roo);
    }

    const ModeTable *table;
    RooConfig roo;
    std::unique_ptr<LinkPowerState> state;
};

TEST_F(LinkPowerStateVwl, StartsFullPowerOn)
{
    EXPECT_EQ(state->modeIndex(), 0u);
    EXPECT_EQ(state->rooState(), RooState::On);
    EXPECT_EQ(state->rooModeIndex(), roo.fullModeIndex());
    EXPECT_DOUBLE_EQ(state->powerFrac(0), 1.0);
    EXPECT_EQ(state->flitTime(0), LinkTiming::kFullFlitPs);
}

TEST_F(LinkPowerStateVwl, SetModeStartsTransition)
{
    const Tick end = state->setMode(ns(100), 1); // 8 lanes
    EXPECT_EQ(end, ns(100) + us(1));
    EXPECT_TRUE(state->inTransition(ns(500)));
    EXPECT_FALSE(state->inTransition(end));
}

TEST_F(LinkPowerStateVwl, TransitionUsesWorstOfBothModes)
{
    state->setMode(0, 2); // 16 -> 4 lanes
    // During the transition: bandwidth of the slower mode, power of the
    // higher mode.
    EXPECT_EQ(state->flitTime(ns(10)), LinkTiming::kFullFlitPs * 4);
    EXPECT_DOUBLE_EQ(state->onPowerFrac(ns(10)), 1.0);
    // After: the new mode's numbers.
    EXPECT_EQ(state->flitTime(us(2)), LinkTiming::kFullFlitPs * 4);
    EXPECT_NEAR(state->onPowerFrac(us(2)), 5.0 / 17.0, 1e-12);
}

TEST_F(LinkPowerStateVwl, UpTransitionAlsoWorstCase)
{
    state->setMode(0, 3);       // to 1 lane
    state->setMode(us(2), 0);   // back to 16 lanes
    // Still 1-lane bandwidth and full power during the up transition.
    EXPECT_EQ(state->flitTime(us(2) + ns(10)),
              LinkTiming::kFullFlitPs * 16);
    EXPECT_DOUBLE_EQ(state->onPowerFrac(us(2) + ns(10)), 1.0);
    EXPECT_EQ(state->flitTime(us(4)), LinkTiming::kFullFlitPs);
}

TEST_F(LinkPowerStateVwl, SettingSameModeIsNoOp)
{
    const Tick end = state->setMode(ns(50), 0);
    EXPECT_EQ(end, ns(50));
    EXPECT_FALSE(state->inTransition(ns(50)));
}

TEST_F(LinkPowerStateVwl, RooOffAndWakeSequence)
{
    state->turnOff();
    EXPECT_EQ(state->rooState(), RooState::Off);
    EXPECT_DOUBLE_EQ(state->powerFrac(ns(10)), 0.01);

    const Tick up = state->beginWake(ns(100));
    EXPECT_EQ(up, ns(100) + ns(14));
    EXPECT_EQ(state->rooState(), RooState::Waking);
    // Waking draws full on-state power.
    EXPECT_DOUBLE_EQ(state->powerFrac(ns(105)), 1.0);

    state->finishWake();
    EXPECT_EQ(state->rooState(), RooState::On);
}

TEST_F(LinkPowerStateVwl, RooModeSelectsThreshold)
{
    state->setRooMode(0);
    EXPECT_EQ(state->idleThreshold(), ns(32));
    state->setRooMode(2);
    EXPECT_EQ(state->idleThreshold(), ns(512));
    EXPECT_EQ(state->rooFullModeIndex(), 3u);
}

TEST_F(LinkPowerStateVwl, OffPowerIndependentOfBwMode)
{
    state->setMode(0, 3);
    state->turnOff();
    // Off power is 1% of *full* link power regardless of lane mode.
    EXPECT_DOUBLE_EQ(state->powerFrac(us(5)), 0.01);
}

TEST(LinkPowerStateDvfs, SerdesTracksTransitionWorstCase)
{
    RooConfig roo; // disabled
    LinkPowerState s(&ModeTable::forMechanism(BwMechanism::Dvfs), &roo);
    s.setMode(0, 2); // 50% mode, serdes 6.4 ns
    EXPECT_EQ(s.serdes(ns(10)), nsf(6.4));
    EXPECT_EQ(s.serdes(us(4)), nsf(6.4));
    s.setMode(us(4), 0);
    // Transitioning back up still reports the slower SERDES.
    EXPECT_EQ(s.serdes(us(4) + ns(1)), nsf(6.4));
    EXPECT_EQ(s.serdes(us(8)), LinkTiming::kSerdesPs);
}

TEST(LinkPowerStateNoRoo, RooDisabledDefaults)
{
    RooConfig roo;
    LinkPowerState s(&ModeTable::forMechanism(BwMechanism::Vwl), &roo);
    EXPECT_FALSE(s.rooEnabled());
    EXPECT_EQ(s.rooState(), RooState::On);
    EXPECT_EQ(s.rooModeIndex(), 0u);
}

/**
 * The operating-point formulas with nothing cached: every value is
 * derived from the mode table on each call, the way LinkPowerState
 * computed it before it cached the current mode's values.
 */
class UncachedOperatingPoint
{
  public:
    explicit UncachedOperatingPoint(const ModeTable *t) : table(t) {}

    void
    setMode(Tick now, std::size_t idx)
    {
        idx = std::max(idx, minUsable);
        if (idx == mode)
            return;
        prev = effective(now);
        mode = idx;
        transEnd = now + table->transitionPs();
    }

    void
    setLaneClamp(int lanes)
    {
        if (lanes >= clamp)
            return;
        clamp = lanes;
        minUsable = 0;
        for (std::size_t k = 0; k < table->size(); ++k) {
            minUsable = k;
            if (table->mode(k).lanes <= clamp)
                break;
        }
    }

    Tick
    flitTime(Tick now) const
    {
        const double bw = bwFrac(effective(now));
        return static_cast<Tick>(
            static_cast<double>(LinkTiming::kFullFlitPs) / bw + 0.5);
    }

    double
    onPowerFrac(Tick now) const
    {
        const double a = powerFrac(mode);
        if (now >= transEnd)
            return a;
        return std::max(a, powerFrac(prev));
    }

  private:
    double
    bwFrac(std::size_t k) const
    {
        const int l = table->mode(k).lanes;
        return table->mode(k).bwFrac *
               (l <= clamp ? 1.0 : static_cast<double>(clamp) / l);
    }

    double
    powerFrac(std::size_t k) const
    {
        const int l = table->mode(k).lanes;
        return table->mode(k).powerFrac *
               (l <= clamp ? 1.0
                           : static_cast<double>(clamp + 1) / (l + 1));
    }

    std::size_t
    effective(Tick now) const
    {
        if (now >= transEnd)
            return mode;
        return bwFrac(mode) < bwFrac(prev) ? mode : prev;
    }

    const ModeTable *table;
    int clamp = LinkPowerState::kFullLanes;
    std::size_t minUsable = 0;
    std::size_t mode = 0;
    std::size_t prev = 0;
    Tick transEnd = 0;
};

/**
 * Walk every tick of a script of mode selections, lane clamps (one
 * mid-transition) and ROO off/wake steps, and require flitTime(),
 * onPowerFrac() and powerFrac() to equal the uncached formulas bit for
 * bit at each one.
 */
void
expectCacheMatchesFormulas(BwMechanism mech)
{
    const ModeTable *table = &ModeTable::forMechanism(mech);
    const Tick trans = table->transitionPs();
    RooConfig roo;
    roo.enabled = true;
    LinkPowerState s(table, &roo);
    UncachedOperatingPoint ref(table);

    enum class Op { Mode, Clamp, Off, Wake, WakeDone };
    struct Step
    {
        Tick at;
        Op op;
        int arg;
    };
    const Step script[] = {
        {ns(10), Op::Mode, 2},                  // down a transition
        {ns(10) + trans / 2, Op::Clamp, 6},     // clamp mid-transition
        {ns(10) + trans + ns(5), Op::Off, 0},   // ROO off, settled
        {ns(20) + trans, Op::Wake, 0},
        {ns(20) + trans + roo.wakeupPs, Op::WakeDone, 0},
        {ns(40) + trans, Op::Mode, 3},          // down to the narrowest
        {ns(40) + trans + trans / 3, Op::Mode, 0}, // retarget mid-flight
        {ns(40) + 2 * trans, Op::Clamp, 3},     // clamp mid-transition
        {ns(40) + 2 * trans + ns(1), Op::Off, 0}, // off mid-transition
        {ns(50) + 2 * trans, Op::Wake, 0},
        {ns(50) + 2 * trans + roo.wakeupPs, Op::WakeDone, 0},
        {ns(60) + 3 * trans, Op::Clamp, 1},     // clamp when settled
        {ns(70) + 3 * trans, Op::Mode, 1},
    };
    const Tick end = ns(80) + 5 * trans;

    std::size_t next = 0;
    for (Tick t = 0; t <= end; ++t) {
        while (next < std::size(script) && script[next].at == t) {
            const Step &st = script[next++];
            switch (st.op) {
              case Op::Mode:
                s.setMode(t, static_cast<std::size_t>(st.arg));
                ref.setMode(t, static_cast<std::size_t>(st.arg));
                break;
              case Op::Clamp:
                s.setLaneClamp(st.arg);
                ref.setLaneClamp(st.arg);
                break;
              case Op::Off:
                s.turnOff();
                break;
              case Op::Wake:
                s.beginWake(t);
                break;
              case Op::WakeDone:
                s.finishWake();
                break;
            }
        }
        const double on = ref.onPowerFrac(t);
        const double pf =
            s.rooState() == RooState::Off ? roo.offPowerFrac : on;
        if (s.flitTime(t) != ref.flitTime(t) || s.onPowerFrac(t) != on ||
            s.powerFrac(t) != pf) {
            ADD_FAILURE() << "tick " << t << ": flitTime "
                          << s.flitTime(t) << " vs " << ref.flitTime(t)
                          << ", onPowerFrac " << s.onPowerFrac(t)
                          << " vs " << on << ", powerFrac "
                          << s.powerFrac(t) << " vs " << pf;
            return;
        }
    }
    EXPECT_EQ(next, std::size(script));
}

TEST(LinkPowerStateCache, VwlMatchesUncachedFormulasAtEveryTick)
{
    expectCacheMatchesFormulas(BwMechanism::Vwl);
}

TEST(LinkPowerStateCache, DvfsMatchesUncachedFormulasAtEveryTick)
{
    expectCacheMatchesFormulas(BwMechanism::Dvfs);
}

} // namespace
} // namespace memnet
