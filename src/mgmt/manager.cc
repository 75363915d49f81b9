#include "mgmt/manager.hh"

#include <algorithm>

#include "dram/dram_params.hh"
#include "obs/prof.hh"
#include "sim/log.hh"

namespace memnet
{

PowerManager::PowerManager(Network &net, BwMechanism mech,
                           const RooConfig &roo,
                           const ManagerParams &params)
    : net(net),
      eq(net.eventQueue()),
      mech(mech),
      roo(roo),
      params(params),
      numModules(net.numModules())
{
    mods.resize(numModules);
    const ModeTable &table = ModeTable::forMechanism(mech);
    for (Link *l : net.allLinks()) {
        memnet_assert(static_cast<std::size_t>(l->id()) == states.size(),
                      "link id mismatch");
        states.push_back(
            std::make_unique<LinkMgmtState>(*l, table, roo));
    }
    dramReadLatencyPs = DramParams{}.readAccessLatency();
}

PowerManager::~PowerManager() = default;

void
PowerManager::start(Tick at)
{
    net.setObservers(this, this);
    for (int m = 0; m < numModules; ++m)
        mods[m].lastDramReads = net.module(m).dramReadsServiced();
    eq.schedule(&epochEvent, at + params.epochLen);
}

void
PowerManager::onEnqueue(Link &l, Packet &pkt, Tick now)
{
    if (isReadPacket(pkt.type))
        stateOf(l).onReadArrival(now, pkt.flits);
}

void
PowerManager::onDepart(Link &l, Packet &pkt, Tick now)
{
    if (!isReadPacket(pkt.type))
        return;
    LinkMgmtState &s = stateOf(l);
    s.onReadDeparture(pkt.linkArrival, now);
    if (!s.forcedFullPower && s.overheadPs() > s.amsPs)
        handleViolation(s, now);
}

void
PowerManager::onIdleEnd(Link &l, Tick idle_start, Tick now)
{
    stateOf(l).onIdleInterval(now - idle_start);
}

void
PowerManager::onDegrade(Link &l, int lanes, Tick now)
{
    // Mirror the surviving-lane clamp into the management state so
    // mode selection, FEL estimation, and FLO tables all work against
    // the degraded link's real capabilities from this instant on.
    stateOf(l).setLaneClamp(lanes, now);
}

void
PowerManager::onDramRead(Module &m, Tick now)
{
    // Both schemes adapt Malladi et al. [22]: proactively wake the
    // module's response link while the DRAM array is being read, hiding
    // (most of) the wakeup latency behind the ~30 ns access.
    if (roo.enabled)
        net.responseLink(m.id()).wakeNow();
}

void
PowerManager::handleViolation(LinkMgmtState &s, Tick now)
{
    // Section V: on AMS violation, run at full power until epoch end.
    ++nViolations;
    s.forcedFullPower = true;
    s.link().forceFullPower();
    notifyViolation(s, now);
}

void
PowerManager::applySelections(Tick now)
{
    for (auto &s : states)
        s->link().applyModes(s->selected.bw, s->selected.roo);
}

void
PowerManager::epochTick()
{
    MEMNET_PROF_SCOPE("mgmt/epoch");
    const Tick now = eq.now();

    // 1. Per-module FEL/AEL for the epoch that just ended (Section V-A):
    //    DRAM read count times the 30 ns array latency, plus the actual
    //    and estimated-full-power latencies of the connectivity links.
    for (int m = 0; m < numModules; ++m) {
        ModuleState &ms = mods[m];
        const std::uint64_t reads = net.module(m).dramReadsServiced();
        const double dram_ps =
            static_cast<double>(reads - ms.lastDramReads) *
            static_cast<double>(dramReadLatencyPs);
        ms.lastDramReads = reads;

        const LinkMgmtState &rq = *states[m];
        const LinkMgmtState &rs = *states[numModules + m];
        ms.aelPs = dram_ps + rq.actualLatencyPs() + rs.actualLatencyPs();
        ms.felPs = dram_ps + rq.fullPowerLatencyPs() +
                   rs.fullPowerLatencyPs();
    }

    // 2. Snapshot per-link FLO tables and reset in-epoch counters.
    for (auto &s : states)
        s->epochEnd(params.epochLen);

    // 3. Policy: assign AMS and select combos.
    redistribute(now);

    // 4. Apply the selections.
    applySelections(now);

    ++nEpochs;
    notifyEpoch(now);
    eq.schedule(&epochEvent, now + params.epochLen);
}

// ---------------------------------------------------------------------
// Network-unaware management (Section V)
// ---------------------------------------------------------------------

void
UnawareManager::redistribute(Tick)
{
    for (int m = 0; m < numModules; ++m) {
        ModuleState &ms = mods[m];
        // Equation 1, applied per module with its own running sums.
        ms.cumFelPs += ms.felPs;
        ms.cumOverPs += ms.aelPs - ms.felPs;
        const double ams_m = std::max(
            0.0,
            params.alphaPct / 100.0 * ms.cumFelPs - ms.cumOverPs);

        // Each connectivity link gets an equal share.
        for (LinkMgmtState *s :
             {states[m].get(), states[numModules + m].get()}) {
            s->amsPs = ams_m / 2.0;
            s->selected = s->bestCombo(s->amsPs);
        }
    }
}

} // namespace memnet
