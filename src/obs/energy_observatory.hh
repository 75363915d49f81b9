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
 *  - merges (multichannel) are exact: attribution adds
 *    field-wise in channel order, sketches merge bucket-wise.
 *
 * The ledger itself (EnergyAttribution, power/power_breakdown.hh) is
 * also the run's only energy total: Figure 5's power split, the epoch
 * records and the trace counters all read it.
 *
 * Header-only so the net layer can embed it without linking the obs
 * library; energy_observatory.cc holds only obs-side surface code
 * (the Chrome-trace counters).
 */

#ifndef MEMNET_OBS_ENERGY_OBSERVATORY_HH
#define MEMNET_OBS_ENERGY_OBSERVATORY_HH

#include <cstdint>
#include <string>

#include "obs/quantile_sketch.hh"
#include "power/power_breakdown.hh"

namespace memnet
{
namespace obs
{

/**
 * Congestion telemetry sketches. Utilization holds one sample per link
 * per collection (parts-per-million of full bandwidth over the measure
 * window); occupancy holds the waiting-queue depth at every enqueue,
 * recorded by each link into its own sketch.
 */
struct EnergySketches
{
    QuantileSketch utilization;
    QuantileSketch occupancy;

    void
    merge(const EnergySketches &o)
    {
        utilization.merge(o.utilization);
        occupancy.merge(o.occupancy);
    }
};

} // namespace obs

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

namespace obs
{

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
