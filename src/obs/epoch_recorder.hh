/**
 * @file
 * Per-epoch time-series recorder (JSONL).
 *
 * Rides the management epoch boundary (ObsHub forwards each epoch): at
 * every epoch it diffs the energy ledger sample the hub hands it and the
 * network's per-link counters against the previous boundary and appends
 * one self-contained JSON object per line. Runs under the FullPower
 * policy have no epoch machinery and therefore produce no records —
 * epoch observability presumes a manager.
 *
 * The recorder only *reads* simulation state (energy collection is an
 * idempotent flush of piecewise-constant integration) and never
 * schedules events, so attaching it cannot change simulation results.
 *
 * Record schema (one line each, schema_version bumps on change):
 *   {"v":4,"epoch":N,"t_ps":T,
 *    "power_w":{"idle_io":..,"active_io":..,"logic_leak":..,
 *               "dram_leak":..,"logic_dyn":..,"dram_dyn":..,"total":..},
 *    "energy_w":{"tx":..,"retrain":..,"idle_floor":..,"sleep":..,
 *                "wake":..,"serdes_leak":..,"router":..,
 *                "dram_leak":..,"dram_dyn":..},
 *    "mgmt":{"violations":dN,"violations_total":N,"isp_rounds":r,
 *            "grant_pool_ps":g},
 *    "links":[{"id":i,"reads":n,"actual_ps":a,"full_ps":f,"ams_ps":b,
 *              "flo_ps":o,"grants":k,"forced_fp":bool,"bw_mode":m,
 *              "roo_mode":r,"roo_applied":r,"off_s":s,"retrain_s":s,
 *              "wake_stall_s":s,"retrain_stall_s":s,"queue_peak":n,
 *              "energy_j":{"tx":..,"retrain":..,"idle_floor":..,
 *                          "sleep":..,"wake":..},
 *              "mode_s":[...]},...],
 *    "faults":{"retries":dr,"replays":dp,"retrains":dt},
 *    "lat":{"samples":dn,
 *           "end_to_end":{"samples":dn,"sum_ps":ds,"p50_ps":..,
 *                         "p90_ps":..,"p99_ps":..,"p999_ps":..},
 *           "queue":{...},"wake_stall":{...},"retrain_stall":{...},
 *           "serialization":{...},"dram":{...}}}
 *
 * v2 (latency observatory): per-link wake_stall_s / retrain_stall_s
 * deltas, queue_peak (cumulative high-water, not diffed), and the
 * per-epoch "lat" object — exact sketch deltas, so the percentiles
 * describe only the reads completed in that epoch; the per-epoch max
 * is not derivable from a counter diff, hence no max_ps here. All
 * zero when the run disables the observatory.
 *
 * v3 (energy observatory): the system "energy_w" object (per-cause
 * average power from exact attribution-ledger deltas), the per-link
 * "energy_j" cause deltas, and zero-activity link elision — a link
 * with no traffic, fault, stall, or queue-peak movement in the epoch
 * is omitted from "links" entirely. Its static-floor energy is still
 * in the system blocks; loaders must look links up by "id" instead of
 * array position (which the id field has supported since v1, so v1/v2
 * readers that already do so parse v3 records unchanged).
 *
 * v4: per-link "roo_applied", the ROO mode index the link runs after
 * this boundary's selections were applied. "roo_mode" is the mode the
 * policy selected; the two differ where the manager overrides the
 * selection (aware wake coordination runs response links at index 0).
 */

#ifndef MEMNET_OBS_EPOCH_RECORDER_HH
#define MEMNET_OBS_EPOCH_RECORDER_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "net/network.hh"
#include "power/power_breakdown.hh"

namespace memnet
{

class PowerManager;

namespace obs
{

class EpochRecorder
{
  public:
    /** Current record schema version (the "v" field). */
    static constexpr int kSchemaVersion = 4;

    EpochRecorder(std::ostream &os, Network &net);

    /**
     * Re-baseline the diffs at measurement start (the network's own
     * counters are reset there; our snapshots must follow).
     */
    void onMeasureStart() { snapshot(0); }

    /**
     * Append one record for the epoch ending at @p now. @p ledger and
     * @p last are the energy ledger at @p now and at the previous
     * boundary; @p inv is 1 / the window between them in seconds (0
     * renders zero watts).
     */
    void onEpoch(PowerManager &pm, Tick now,
                 const EnergyAttribution &ledger,
                 const EnergyAttribution &last, double inv);

  private:
    /** Take the diff baselines, with @p violations as the count. */
    void snapshot(std::uint64_t violations);

    std::ostream &os;
    Network &net;

    std::uint64_t lastViolations = 0;
    std::vector<LinkStats> lastLink;
    /** Sketch snapshot at the previous boundary (exact delta basis). */
    LatencySketches lastLat;
};

} // namespace obs
} // namespace memnet

#endif // MEMNET_OBS_EPOCH_RECORDER_HH
