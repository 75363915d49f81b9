/**
 * @file
 * Energy observatory: exact per-joule attribution and congestion
 * telemetry for the memory network.
 *
 * The latency observatory (quantile_sketch.hh) answers "where did each
 * picosecond of an access go"; this one answers "where did each joule
 * go" — which component (link I/O, SerDes/logic, router, DRAM), which
 * power state, and why (traffic vs. static floor vs. sleep/wake/retrain
 * transitions). Like the latency observatory it is always on:
 *
 *  - the underlying counters (LinkStats cause buckets, module activity
 *    counters) are the simulator's energy ledger, not a parallel one;
 *  - the congestion sketches are passive — recording never schedules
 *    an event — so they cannot change simulated results;
 *  - rollups are fixed-footprint: one EnergyAttribution per scope
 *    (link -> module -> channel -> system) regardless of fabric size,
 *    plus two QuantileSketches for the per-link utilization/occupancy
 *    distributions, so thousands of links stay affordable;
 *  - merges (multichannel, partition lanes) are exact: attribution adds
 *    field-wise in channel order, sketches merge bucket-wise.
 *
 * Exactness contract (enforced by src/audit's "energy-attribution"
 * check and the CI differential tests): the attribution's coarse
 * anchors equal Network::collectEnergy's EnergyBreakdown bit-identically
 * because both are accumulated by the same expressions over the same
 * iteration order, and the cause buckets sum to the coarse anchors by
 * construction (LinkStats derives idleIoJ()/activeIoJ() from them).
 *
 * Header-only so the net layer can embed it without linking the obs
 * library; energy_observatory.cc holds only obs-side surface code
 * (stats registry scopes, Chrome-trace counters).
 */

#ifndef MEMNET_OBS_ENERGY_OBSERVATORY_HH
#define MEMNET_OBS_ENERGY_OBSERVATORY_HH

#include <array>
#include <cstdint>

#include "net/link.hh"
#include "obs/quantile_sketch.hh"
#include "power/hmc_power_model.hh"

namespace memnet
{
namespace obs
{

/**
 * Congestion telemetry sketches. Utilization holds one sample per link
 * per collection (parts-per-million of full bandwidth over the measure
 * window); occupancy holds the waiting-queue depth at every enqueue,
 * recorded by each link into its own sketch (a link's events all run
 * on its home partition, so partitioned recording is race-free and
 * bit-identical to serial).
 */
struct EnergySketches
{
    QuantileSketch utilization;
    QuantileSketch occupancy;

    void
    reset()
    {
        utilization.reset();
        occupancy.reset();
    }

    void
    merge(const EnergySketches &o)
    {
        utilization.merge(o.utilization);
        occupancy.merge(o.occupancy);
    }
};

} // namespace obs

/**
 * The attribution ledger: every joule of a run filed under exactly one
 * cause, alongside the coarse idle/active anchors the rest of the
 * system reports. Field-wise addition is the exact merge.
 */
struct EnergyAttribution
{
    // -- Link I/O causes (sum == idleIoJ + activeIoJ exactly) ----------
    /** Serialization: lanes driving payload flits. */
    double txJ = 0.0;
    /** Retrain windows: training sequences at on-state power. */
    double retrainJ = 0.0;
    /** Static floor per bandwidth-mode index (on, idle, not waking). */
    std::array<double, 8> idleModeJ{};
    /** ROO off-state residual. */
    double sleepJ = 0.0;
    /** Wake transitions (Off -> On sequences). */
    double wakeJ = 0.0;

    // -- Module causes (mirror EnergyBreakdown's module fields) --------
    /** SerDes + logic-die leakage. */
    double serdesLeakJ = 0.0;
    /** Router/logic dynamic energy (per routed flit hop). */
    double routerJ = 0.0;
    /** DRAM die leakage. */
    double dramLeakJ = 0.0;
    /** DRAM activate/IO dynamic energy (per array access). */
    double dramDynJ = 0.0;

    // -- Coarse anchors ------------------------------------------------
    // Accumulated per link via LinkStats::idleIoJ()/activeIoJ() in
    // allLinks() order — the exact arithmetic Network::collectEnergy
    // performs, so these match the EnergyBreakdown bit-identically.
    double idleIoJ = 0.0;
    double activeIoJ = 0.0;

    /** Fold one link's ledger in (allLinks() order for exactness). */
    void
    addLink(const LinkStats &ls)
    {
        txJ += ls.txJ;
        retrainJ += ls.retrainJ;
        for (std::size_t i = 0; i < idleModeJ.size(); ++i)
            idleModeJ[i] += ls.idleFloorJ[i];
        sleepJ += ls.sleepJ;
        wakeJ += ls.wakeJ;
        idleIoJ += ls.idleIoJ();
        activeIoJ += ls.activeIoJ();
    }

    /** Fold one module's window terms in (module-index order). */
    void
    addModule(const ModuleEnergyTerms &t)
    {
        serdesLeakJ += t.logicLeakJ;
        routerJ += t.logicDynJ;
        dramLeakJ += t.dramLeakJ;
        dramDynJ += t.dramDynJ;
    }

    /** Idle-floor causes summed (canonical order, matches idleIoJ()). */
    double
    idleFloorJ() const
    {
        double floor = 0.0;
        for (double j : idleModeJ)
            floor += j;
        return floor;
    }

    /** Link I/O energy by cause. */
    double
    linkIoJ() const
    {
        return txJ + retrainJ + ((idleFloorJ() + sleepJ) + wakeJ);
    }

    /** Module energy by cause. */
    double
    moduleJ() const
    {
        return serdesLeakJ + routerJ + dramLeakJ + dramDynJ;
    }

    double totalJ() const { return linkIoJ() + moduleJ(); }

    /** Exact field-wise merge (multichannel: apply in channel order). */
    EnergyAttribution &
    operator+=(const EnergyAttribution &o)
    {
        txJ += o.txJ;
        retrainJ += o.retrainJ;
        for (std::size_t i = 0; i < idleModeJ.size(); ++i)
            idleModeJ[i] += o.idleModeJ[i];
        sleepJ += o.sleepJ;
        wakeJ += o.wakeJ;
        serdesLeakJ += o.serdesLeakJ;
        routerJ += o.routerJ;
        dramLeakJ += o.dramLeakJ;
        dramDynJ += o.dramDynJ;
        idleIoJ += o.idleIoJ;
        activeIoJ += o.activeIoJ;
        return *this;
    }
};

/**
 * RunResult's energy decomposition: the attribution ledger plus
 * percentile summaries of the congestion sketches. Deterministic.
 * enabled is false only in records loaded from journals written before
 * the observatory existed.
 */
struct EnergySummary
{
    bool enabled = false;
    EnergyAttribution attribution;
    /** Per-link utilization distribution (ppm of full bandwidth). */
    LatencyPercentiles utilization;
    /** Waiting-queue depth distribution over all enqueues. */
    LatencyPercentiles occupancy;
};

inline EnergySummary
summarizeEnergy(const EnergyAttribution &a, const obs::EnergySketches &s)
{
    EnergySummary e;
    e.enabled = true;
    e.attribution = a;
    e.utilization = summarizeSketch(s.utilization);
    e.occupancy = summarizeSketch(s.occupancy);
    return e;
}

class Network;

namespace obs
{

class StatsRegistry;

/**
 * Register the net.energy.* stat scopes (system-level cause rollups
 * plus the congestion-sketch percentiles). Values are materialized at
 * dump time.
 * Implemented in energy_observatory.cc (obs library).
 */
void registerEnergyStats(StatsRegistry &reg, Network &net);

/**
 * Render the Chrome-trace counter args for one epoch: average watts
 * per attribution cause over the window between @p prev and @p cur,
 * where @p inv_seconds is 1 / window length (0 renders zeros).
 */
std::string renderEnergyCounterArgs(const EnergyAttribution &cur,
                                    const EnergyAttribution &prev,
                                    double inv_seconds);

} // namespace obs

} // namespace memnet

#endif // MEMNET_OBS_ENERGY_OBSERVATORY_HH
