#include "obs/epoch_recorder.hh"

#include "mgmt/manager.hh"
#include "obs/json.hh"

namespace memnet
{
namespace obs
{

EpochRecorder::EpochRecorder(std::ostream &os, Network &net)
    : os(os), net(net)
{
    snapshot(0);
}

void
EpochRecorder::snapshot(std::uint64_t violations)
{
    lastViolations = violations;
    lastLink.clear();
    for (Link *l : net.allLinks())
        lastLink.push_back(l->stats());
    lastLat = net.latencySketches();
}

void
EpochRecorder::onEpoch(PowerManager &pm, Tick now,
                       const EnergyAttribution &ledger,
                       const EnergyAttribution &last, double inv)
{
    const std::vector<Link *> links = net.allLinks();
    const int n = net.numModules();

    JsonWriter w(os);
    w.beginObject();
    w.field("v", static_cast<std::int64_t>(kSchemaVersion));
    w.field("epoch", static_cast<std::uint64_t>(pm.epochs()));
    w.field("t_ps", static_cast<std::int64_t>(now));

    // Figure 5's six terms from the ledger's anchors.
    w.key("power_w");
    w.beginObject();
    w.field("idle_io", (ledger.idleIoJ - last.idleIoJ) * inv);
    w.field("active_io", (ledger.activeIoJ - last.activeIoJ) * inv);
    w.field("logic_leak", (ledger.serdesLeakJ - last.serdesLeakJ) * inv);
    w.field("dram_leak", (ledger.dramLeakJ - last.dramLeakJ) * inv);
    w.field("logic_dyn", (ledger.routerJ - last.routerJ) * inv);
    w.field("dram_dyn", (ledger.dramDynJ - last.dramDynJ) * inv);
    w.field("total", (ledger.anchorsJ() - last.anchorsJ()) * inv);
    w.endObject();

    // Energy observatory (v3): average power per attribution cause,
    // from exact ledger deltas — splits power_w's idle_io/active_io by
    // why the joules were spent.
    w.key("energy_w");
    w.beginObject();
    w.field("tx", (ledger.txJ - last.txJ) * inv);
    w.field("retrain", (ledger.retrainJ - last.retrainJ) * inv);
    w.field("idle_floor", (ledger.idleFloorJ() - last.idleFloorJ()) * inv);
    w.field("sleep", (ledger.sleepJ - last.sleepJ) * inv);
    w.field("wake", (ledger.wakeJ - last.wakeJ) * inv);
    w.field("serdes_leak", (ledger.serdesLeakJ - last.serdesLeakJ) * inv);
    w.field("router", (ledger.routerJ - last.routerJ) * inv);
    w.field("dram_leak", (ledger.dramLeakJ - last.dramLeakJ) * inv);
    w.field("dram_dyn", (ledger.dramDynJ - last.dramDynJ) * inv);
    w.endObject();

    w.key("mgmt");
    w.beginObject();
    w.field("violations",
            static_cast<std::uint64_t>(pm.violations() - lastViolations));
    w.field("violations_total",
            static_cast<std::uint64_t>(pm.violations()));
    w.field("isp_rounds", static_cast<std::int64_t>(pm.lastIspRounds()));
    w.field("grant_pool_ps", pm.grantPoolRemaining());
    w.endObject();

    std::uint64_t d_retries = 0, d_replays = 0, d_retrains = 0;
    w.key("links");
    w.beginArray();
    for (std::size_t i = 0; i < links.size(); ++i) {
        const Link &l = *links[i];
        const LinkStats &cur = l.stats();
        const LinkStats &prev = lastLink[i];
        const int id = l.id();
        const LinkMgmtState &s = id < n
                                     ? pm.requestState(id)
                                     : pm.responseState(id - n);
        d_retries += cur.retries - prev.retries;
        d_replays += cur.replays - prev.replays;
        d_retrains += cur.retrains - prev.retrains;

        // Zero-activity elision (v3): a link that moved no flits and
        // had no fault, stall, or queue-peak movement this epoch is
        // omitted — on large mostly-idle fabrics this shrinks records
        // by orders of magnitude. Its static-floor energy is still in
        // the system power_w/energy_w blocks; consumers look entries
        // up by the "id" field, never by array position.
        const bool active =
            cur.flits != prev.flits || cur.packets != prev.packets ||
            cur.retries != prev.retries ||
            cur.replays != prev.replays ||
            cur.retrains != prev.retrains ||
            cur.wakeStallSeconds != prev.wakeStallSeconds ||
            cur.retrainStallSeconds != prev.retrainStallSeconds ||
            cur.queuePeak != prev.queuePeak;
        if (!active)
            continue;

        w.beginObject();
        w.field("id", static_cast<std::int64_t>(id));
        w.field("reads", s.lastEpochReads);
        w.field("actual_ps", s.lastActualPs);
        w.field("full_ps", s.lastFullPowerPs);
        w.field("ams_ps", s.amsPs);
        w.field("flo_ps", s.flo(s.selected));
        w.field("grants", static_cast<std::int64_t>(s.lastGrantsUsed));
        w.field("forced_fp", s.lastForcedFullPower);
        w.field("bw_mode", static_cast<std::uint64_t>(s.selected.bw));
        w.field("roo_mode", static_cast<std::uint64_t>(s.selected.roo));
        // v4: the ROO mode the link runs, which the manager may have
        // overridden (aware wake coordination runs response links at 0).
        w.field("roo_applied",
                static_cast<std::uint64_t>(l.power().rooModeIndex()));
        w.field("off_s", cur.offSeconds - prev.offSeconds);
        w.field("retrain_s",
                cur.retrainSeconds - prev.retrainSeconds);
        w.field("wake_stall_s",
                cur.wakeStallSeconds - prev.wakeStallSeconds);
        w.field("retrain_stall_s",
                cur.retrainStallSeconds - prev.retrainStallSeconds);
        // Cumulative high-water, not an epoch diff (a high-water mark
        // has no meaningful delta).
        w.field("queue_peak", cur.queuePeak);
        // Energy observatory (v3): this epoch's joules by cause,
        // exact deltas of the link's attribution buckets.
        w.key("energy_j");
        w.beginObject();
        w.field("tx", cur.txJ - prev.txJ);
        w.field("retrain", cur.retrainJ - prev.retrainJ);
        double d_floor = 0.0;
        for (std::size_t k = 0; k < cur.idleFloorJ.size(); ++k)
            d_floor += cur.idleFloorJ[k] - prev.idleFloorJ[k];
        w.field("idle_floor", d_floor);
        w.field("sleep", cur.sleepJ - prev.sleepJ);
        w.field("wake", cur.wakeJ - prev.wakeJ);
        w.endObject();
        w.key("mode_s");
        w.beginArray();
        for (std::size_t k = 0; k < cur.modeSeconds.size(); ++k)
            w.value(cur.modeSeconds[k] - prev.modeSeconds[k]);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("faults");
    w.beginObject();
    w.field("retries", d_retries);
    w.field("replays", d_replays);
    w.field("retrains", d_retrains);
    w.endObject();

    // Latency observatory: exact sketch deltas for this epoch's reads.
    // Subtraction is bucket-wise, so the percentiles are those of the
    // epoch's own sample set (no running-average smearing); the exact
    // per-epoch max is not recoverable from a snapshot diff, so there
    // is deliberately no max_ps here.
    LatencySketches delta = net.latencySketches();
    delta.subtract(lastLat);
    w.key("lat");
    w.beginObject();
    w.field("samples", delta.endToEnd.samples());
    auto lat_component = [&w](const char *name,
                              const QuantileSketch &s) {
        w.key(name);
        w.beginObject();
        w.field("samples", s.samples());
        w.field("sum_ps", s.sum());
        w.field("p50_ps", s.quantile(0.50));
        w.field("p90_ps", s.quantile(0.90));
        w.field("p99_ps", s.quantile(0.99));
        w.field("p999_ps", s.quantile(0.999));
        w.endObject();
    };
    lat_component("end_to_end", delta.endToEnd);
    lat_component("queue", delta.queue);
    lat_component("wake_stall", delta.wakeStall);
    lat_component("retrain_stall", delta.retrainStall);
    lat_component("serialization", delta.ser);
    lat_component("dram", delta.dram);
    w.endObject();

    w.endObject();
    os << '\n';

    snapshot(pm.violations());
}

} // namespace obs
} // namespace memnet
