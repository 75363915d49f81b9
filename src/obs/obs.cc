#include "obs/obs.hh"

#include "sim/log.hh"

namespace memnet
{
namespace obs
{

ObsHub::ObsHub(const ObsOptions &opts, Network &net, PowerManager *mgr)
    : opts(opts), net(net), mgr(mgr)
{
    if (!opts.chromeTracePath.empty()) {
        trace = std::make_unique<ChromeTraceWriter>();
        net.setTraceSink(trace.get());
    }
    if (!opts.epochJsonlPath.empty()) {
        if (!mgr) {
            memnet_warn("epoch recording requested but the ",
                        "policy has no epoch machinery; no records "
                        "will be produced");
        } else {
            epochFile.open(opts.epochJsonlPath);
            if (!epochFile) {
                memnet_warn("cannot open epoch JSONL path: ",
                            opts.epochJsonlPath);
            } else {
                rec = std::make_unique<EpochRecorder>(epochFile, net);
            }
        }
    }
    if (mgr && (rec || trace))
        mgr->addEpochObserver(this);
}

ObsHub::~ObsHub()
{
    // The hub is destroyed before the network/manager it observes;
    // detach so no dangling sink survives it.
    if (trace)
        net.setTraceSink(nullptr);
    if (mgr)
        mgr->removeEpochObserver(this);
}

void
ObsHub::onMeasureStart(Tick now)
{
    if (rec)
        rec->onMeasureStart();
    // Re-baseline the energy deltas: the network's ledgers were just
    // reset, so the previous sample no longer applies.
    lastEnergy = EnergyAttribution{};
    lastEnergyTick = now;
}

void
ObsHub::onEpoch(PowerManager &pm, Tick now)
{
    const EnergyAttribution ledger = net.energyAttribution(now);
    const double secs = toSeconds(now - lastEnergyTick);
    const double inv = secs > 0.0 ? 1.0 / secs : 0.0;
    if (rec)
        rec->onEpoch(pm, now, ledger, lastEnergy, inv);
    if (trace) {
        trace->epochMarker(now, pm.epochs());
        if (!pm.lastIspUnusedPs().empty())
            trace->ispRounds(now, pm.lastIspUnusedPs());
        trace->energyCounters(
            now, renderEnergyCounterArgs(ledger, lastEnergy, inv));
    }
    lastEnergy = ledger;
    lastEnergyTick = now;
}

void
ObsHub::onViolation(PowerManager &pm, LinkMgmtState &s, Tick now)
{
    if (trace)
        trace->violation(s.link().id(), now);
}

void
ObsHub::finish()
{
    if (epochFile.is_open())
        closeOutput(epochFile, "epoch JSONL", opts.epochJsonlPath);
    if (trace) {
        std::ofstream f(opts.chromeTracePath);
        if (!f) {
            memnet_warn("cannot open chrome trace path: ",
                        opts.chromeTracePath);
            return;
        }
        trace->writeTo(f);
        closeOutput(f, "chrome trace", opts.chromeTracePath);
    }
}

} // namespace obs
} // namespace memnet
