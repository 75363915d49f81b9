/**
 * @file
 * Passive power/performance state of one unidirectional link.
 *
 * Owns the bandwidth mode (VWL/DVFS operating point), the in-flight mode
 * transition if any, and the ROO on/off/waking state. It is passive:
 * the owning Link passes in the current tick and drives wake/sleep
 * timing with its own events; this keeps the state machine unit-testable
 * without an event queue.
 *
 * Modeling choices (documented in DESIGN.md): during a mode transition
 * the link keeps operating at the *lower* of the two bandwidths while
 * drawing the *higher* of the two powers, for the mechanism's published
 * transition latency (1 us VWL, 3 us DVFS).
 *
 * Lane clamp (fault model): a permanent lane failure caps the usable
 * width at `laneClamp` lanes. A mode then runs on
 * min(mode.lanes, clamp) lanes: bandwidth scales with the surviving
 * fraction of the mode's lanes and power follows the VWL-style
 * (l+1)/(L+1) rule (dead lanes stop toggling, the I/O clock stays on).
 * SERDES latency is unaffected.
 *
 * The operating point changes rarely (mode selections, lane clamps)
 * while flitTime() and onPowerFrac() run on every serialization and
 * energy accrual, so the current mode's values are cached whenever the
 * mode or the clamp changes. Outside a transition both return the
 * cache, computed by the same expression as inside one.
 */

#ifndef MEMNET_LINKPM_LINK_POWER_STATE_HH
#define MEMNET_LINKPM_LINK_POWER_STATE_HH

#include <algorithm>
#include <cstddef>

#include "linkpm/modes.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace memnet
{

/** ROO on/off/waking state of a link. */
enum class RooState : std::uint8_t
{
    On,
    Off,
    Waking,
};

class LinkPowerState
{
  public:
    LinkPowerState(const ModeTable *table, const RooConfig *roo)
        : table_(table), roo_(roo)
    {
        memnet_assert(table && roo, "null link power config");
        rooModeIdx_ = roo->enabled ? roo->fullModeIndex() : 0;
        cacheOperatingPoint();
    }

    // -- Bandwidth mode -------------------------------------------------

    /** Currently selected (target) mode index. */
    std::size_t modeIndex() const { return modeIdx_; }

    const LinkMode &mode() const { return table_->mode(modeIdx_); }

    /**
     * Select a new bandwidth mode. If it differs from the current one, a
     * transition starts at @p now and completes after the mechanism's
     * transition latency.
     * @return the tick at which the transition completes (now if none).
     */
    Tick
    setMode(Tick now, std::size_t idx)
    {
        memnet_assert(idx < table_->size(), "mode index out of range");
        // Clamp to the surviving lanes: selections wider than the
        // degraded link can drive silently land on the widest usable
        // mode (the managers are told via LinkObserver::onDegrade, but
        // must never be able to over-select).
        idx = std::max(idx, minUsableIdx_);
        if (idx == modeIdx_)
            return std::max(now, transEnd_);
        prevModeIdx_ = effectiveModeIdx(now);
        modeIdx_ = idx;
        transEnd_ = now + table_->transitionPs();
        cacheOperatingPoint();
        return transEnd_;
    }

    /** True while a mode transition is in flight. */
    bool inTransition(Tick now) const { return now < transEnd_; }

    // -- Lane clamp (permanent degradation) -----------------------------

    /**
     * Permanently cap the usable width at @p lanes. Only ever tightens:
     * a clamp wider than the current one is ignored.
     */
    void
    setLaneClamp(int lanes)
    {
        memnet_assert(lanes >= 1, "lane clamp must leave a lane");
        if (lanes >= laneClamp_)
            return;
        laneClamp_ = lanes;
        minUsableIdx_ = 0;
        for (std::size_t k = 0; k < table_->size(); ++k) {
            minUsableIdx_ = k;
            if (table_->mode(k).lanes <= laneClamp_)
                break;
        }
        cacheOperatingPoint();
    }

    /** Usable width cap (16 when healthy). */
    int laneClamp() const { return laneClamp_; }

    bool degraded() const { return laneClamp_ < kFullLanes; }

    /**
     * Lowest mode index (widest mode) that fits the surviving lanes.
     * When no mode fits, the narrowest mode: it still runs, derated.
     */
    std::size_t minUsableMode() const { return minUsableIdx_; }

    /** Bandwidth multiplier the clamp imposes on mode @p k. */
    double
    laneBwMult(std::size_t k) const
    {
        const int l = table_->mode(k).lanes;
        return l <= laneClamp_
                   ? 1.0
                   : static_cast<double>(laneClamp_) / l;
    }

    /** Power multiplier the clamp imposes on mode @p k. */
    double
    lanePowerMult(std::size_t k) const
    {
        const int l = table_->mode(k).lanes;
        if (l <= laneClamp_)
            return 1.0;
        return static_cast<double>(laneClamp_ + 1) / (l + 1);
    }

    static constexpr int kFullLanes = 16;

    Tick transitionEnd() const { return transEnd_; }

    /** Effective flit serialization time at @p now. */
    Tick
    flitTime(Tick now) const
    {
        if (!inTransition(now))
            return flitTime_;
        return flitTimeOf(effectiveModeIdx(now));
    }

    /** Effective SERDES latency at @p now. */
    Tick
    serdes(Tick now) const
    {
        const LinkMode &a = table_->mode(modeIdx_);
        if (!inTransition(now))
            return a.serdesPs;
        const LinkMode &b = table_->mode(prevModeIdx_);
        return std::max(a.serdesPs, b.serdesPs);
    }

    /** Power fraction drawn while the link is on, at @p now. */
    double
    onPowerFrac(Tick now) const
    {
        if (!inTransition(now))
            return onPowerFrac_;
        return std::max(onPowerFrac_, powerFracOf(prevModeIdx_));
    }

    // -- ROO --------------------------------------------------------------

    bool rooEnabled() const { return roo_->enabled; }

    RooState rooState() const { return rooState_; }

    /** Selected ROO mode (index into thresholds). */
    std::size_t rooModeIndex() const { return rooModeIdx_; }

    void
    setRooMode(std::size_t idx)
    {
        memnet_assert(idx < roo_->thresholdsPs.size(), "bad ROO mode");
        rooModeIdx_ = idx;
    }

    /** Idleness threshold of the current ROO mode. */
    Tick idleThreshold() const { return roo_->thresholdsPs[rooModeIdx_]; }

    /** Index of the "full power" ROO mode (largest threshold). */
    std::size_t rooFullModeIndex() const { return roo_->fullModeIndex(); }

    Tick wakeupLatency() const { return roo_->wakeupPs; }

    /** Enter the off state (only valid when on). */
    void
    turnOff()
    {
        memnet_assert(rooState_ == RooState::On, "turnOff while not on");
        rooState_ = RooState::Off;
    }

    /**
     * Begin waking an off link.
     * @return the tick at which the link is usable.
     */
    Tick
    beginWake(Tick now)
    {
        memnet_assert(rooState_ == RooState::Off, "wake while not off");
        rooState_ = RooState::Waking;
        wakeEnd_ = now + roo_->wakeupPs;
        return wakeEnd_;
    }

    /** Complete a wake (owner calls at the tick beginWake returned). */
    void
    finishWake()
    {
        memnet_assert(rooState_ == RooState::Waking, "not waking");
        rooState_ = RooState::On;
    }

    Tick wakeEnd() const { return wakeEnd_; }

    /** Instantaneous power fraction including ROO state, at @p now. */
    double
    powerFrac(Tick now) const
    {
        if (rooState_ == RooState::Off)
            return roo_->offPowerFrac;
        // A waking link already draws full on-state power.
        return onPowerFrac(now);
    }

  private:
    std::size_t
    effectiveModeIdx(Tick now) const
    {
        if (!inTransition(now))
            return modeIdx_;
        // During a transition the slower of the two modes applies.
        return table_->mode(modeIdx_).bwFrac * laneBwMult(modeIdx_) <
                       table_->mode(prevModeIdx_).bwFrac *
                           laneBwMult(prevModeIdx_)
                   ? modeIdx_
                   : prevModeIdx_;
    }

    /** Flit serialization time of mode @p k under the clamp. */
    Tick
    flitTimeOf(std::size_t k) const
    {
        const double bw = table_->mode(k).bwFrac * laneBwMult(k);
        return static_cast<Tick>(
            static_cast<double>(LinkTiming::kFullFlitPs) / bw + 0.5);
    }

    /** On-state power fraction of mode @p k under the clamp. */
    double
    powerFracOf(std::size_t k) const
    {
        return table_->mode(k).powerFrac * lanePowerMult(k);
    }

    /** Refresh the cache after the mode or the clamp changed. */
    void
    cacheOperatingPoint()
    {
        flitTime_ = flitTimeOf(modeIdx_);
        onPowerFrac_ = powerFracOf(modeIdx_);
    }

    const ModeTable *table_;
    const RooConfig *roo_;
    int laneClamp_ = kFullLanes;
    std::size_t minUsableIdx_ = 0;
    std::size_t modeIdx_ = 0;
    std::size_t prevModeIdx_ = 0;
    Tick transEnd_ = 0;
    /** flitTimeOf(modeIdx_) and powerFracOf(modeIdx_). */
    Tick flitTime_ = 0;
    double onPowerFrac_ = 0.0;
    RooState rooState_ = RooState::On;
    std::size_t rooModeIdx_ = 0;
    Tick wakeEnd_ = 0;
};

} // namespace memnet

#endif // MEMNET_LINKPM_LINK_POWER_STATE_HH
