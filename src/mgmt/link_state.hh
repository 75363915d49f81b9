/**
 * @file
 * Per-link management hardware state: the counters of Section V.
 *
 * Holds, for one unidirectional link:
 *  - the actual aggregate read-packet latency counter (AEL link part);
 *  - one delay monitor per candidate bandwidth mode (index 0 doubles as
 *    the full-power estimator used for FEL);
 *  - the idle-interval histogram and the wakeup arrival sampler for ROO
 *    FLO prediction;
 *  - queuing statistics (QD/QF) used by network-aware management on
 *    response links (Section VI-C);
 *  - the epoch's allowable-memory-slowdown budget and violation state.
 */

#ifndef MEMNET_MGMT_LINK_STATE_HH
#define MEMNET_MGMT_LINK_STATE_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "linkpm/modes.hh"
#include "mgmt/delay_monitor.hh"
#include "mgmt/idle_histogram.hh"
#include "net/link.hh"
#include "sim/fifo.hh"
#include "sim/types.hh"

namespace memnet
{

/** A joint (bandwidth mode, ROO mode) operating point. */
struct Combo
{
    std::size_t bw = 0;
    std::size_t roo = 0;

    bool
    operator==(const Combo &o) const
    {
        return bw == o.bw && roo == o.roo;
    }
};

class LinkMgmtState
{
  public:
    LinkMgmtState(Link &link, const ModeTable &table,
                  const RooConfig &roo);

    Link &link() { return link_; }
    const Link &link() const { return link_; }

    // -- In-epoch observation hooks ------------------------------------

    void onReadArrival(Tick now, int flits);
    void onReadDeparture(Tick arrival, Tick now);
    void onIdleInterval(Tick len);

    /**
     * The link's usable width permanently dropped (fault model). Marks
     * modes wider than the surviving lanes unselectable, re-derives the
     * per-mode delay monitors at the derated serialization speeds (so
     * FEL/FLO estimates track the achievable — degraded — full power
     * instead of a baseline the hardware can no longer reach), and
     * re-sorts the combo order by the derated powers. Each monitor's
     * pending virtual backlog is rebased to its new serialization
     * speed at @p now (see DelayMonitor::configure).
     */
    void setLaneClamp(int lanes, Tick now = 0);

    /** Widest selectable bandwidth-mode index under the clamp. */
    std::size_t minUsableBw() const { return minUsableBw_; }

    /** Actual aggregate read latency so far this epoch (ps). */
    double actualLatencyPs() const { return actualPs; }

    /** Estimated full-power aggregate latency so far this epoch (ps). */
    double fullPowerLatencyPs() const { return monitors[0].aggregateLatencyPs(); }

    /** Current latency overhead vs. full power (ps, may be negative). */
    double
    overheadPs() const
    {
        return actualPs - fullPowerLatencyPs();
    }

    std::uint64_t readPackets() const { return nReads; }

    // -- Epoch-boundary computation --------------------------------------

    /**
     * Snapshot the epoch's FLO table and reset the in-epoch counters.
     * @param epoch_len epoch duration (for off-time fractions).
     */
    void epochEnd(Tick epoch_len);

    /** FLO of a combo, from the last epochEnd() snapshot (ps). */
    double flo(const Combo &c) const;

    /** Predicted average power fraction of a combo over an epoch. */
    double predictedPowerFrac(const Combo &c) const;

    /** Number of bandwidth modes / ROO modes available. */
    std::size_t bwModes() const { return table_.size(); }
    std::size_t rooModes() const
    {
        return roo_.enabled ? roo_.thresholdsPs.size() : 1;
    }

    /** All combos ordered by ascending predicted power. */
    const std::vector<Combo> &combosByPower() const { return ordered; }

    /**
     * Cheapest combo whose FLO fits within @p ams_ps; falls back to the
     * full-power combo (whose FLO is zero by construction).
     * @param bw_only restrict to combos whose ROO mode is the full one
     *        (used for response links whose wakeups are hidden by
     *        network-aware coordination).
     */
    Combo bestCombo(double ams_ps, bool bw_only = false) const;

    /** Next combo below @p c in predicted power order (less power). */
    bool nextLowerPower(const Combo &c, Combo *out,
                        bool bw_only = false) const;

    /** Full-power combo (the widest surviving mode when degraded). */
    Combo
    fullCombo() const
    {
        return Combo{minUsableBw_,
                     roo_.enabled ? roo_.fullModeIndex() : 0};
    }

    // -- AMS / violation bookkeeping ------------------------------------

    double amsPs = 0.0;            ///< budget for the current epoch
    bool forcedFullPower = false;  ///< violation tripped this epoch
    int grantsUsed = 0;            ///< aware: AMS requests granted

    // -- ISP working state (network-aware) --------------------------------

    bool isSrc = false;
    bool isSrcNext = false;
    int dsrc = 0;
    double stashPs = 0.0;
    Combo selected{};

    /** Congestion statistics snapshotted at the last epochEnd(). */
    double lastQdPs = 0.0;
    double lastQf = 0.0;

    /**
     * In-epoch values of the epoch that just ended, stashed by
     * epochEnd() before it resets the live counters. The epoch recorder
     * (src/obs) reads these from its end-of-epoch callback, which runs
     * after the reset.
     */
    std::uint64_t lastEpochReads = 0;
    double lastActualPs = 0.0;
    double lastFullPowerPs = 0.0;
    int lastGrantsUsed = 0;
    bool lastForcedFullPower = false;

    // -- Congestion statistics (response links, Section VI-C) ------------

    double queueDelayPs = 0.0;   ///< QD
    std::uint64_t queuedReads = 0;

    double
    queuedFraction() const
    {
        return nReads ? static_cast<double>(queuedReads) /
                            static_cast<double>(nReads)
                      : 0.0;
    }

  private:
    Link &link_;
    const ModeTable &table_;
    const RooConfig &roo_;

    /** Usable width cap mirrored from the link (fault model). */
    int laneClamp_ = 16;
    std::size_t minUsableBw_ = 0;

    std::vector<DelayMonitor> monitors;
    IdleHistogram histogram;

    // Wakeup arrival sampler: every 16th read opens a window one wakeup
    // latency long; arrivals inside the window are counted.
    static constexpr std::uint64_t kSamplePeriod = 16;
    Tick sampleWindowEnd = -1;
    std::uint64_t sampleWindows = 0;
    std::uint64_t sampleArrivals = 0;

    double actualPs = 0.0;
    std::uint64_t nReads = 0;

    // FP virtual-queue completion times, to decide "queued" status.
    Fifo<Tick> fpBacklog;

    // Snapshots taken at epochEnd() for next-epoch decisions.
    std::vector<double> floBw;     ///< per bandwidth mode
    std::vector<double> floRoo;    ///< per ROO mode
    std::vector<double> offFrac;   ///< per ROO mode
    std::vector<Combo> ordered;    ///< combos by ascending power
    Tick lastEpochLen = us(100);

    void configureMonitors(Tick now = 0);
    /** Mode power fraction including the lane-clamp derate. */
    double deratedPowerFrac(std::size_t bw) const;
    bool usable(const Combo &c) const { return c.bw >= minUsableBw_; }

    void rebuildOrder();
};

} // namespace memnet

#endif // MEMNET_MGMT_LINK_STATE_HH
