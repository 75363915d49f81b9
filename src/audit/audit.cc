#include "audit/audit.hh"

#include <cmath>

#include "mgmt/aware.hh"
#include "sim/log.hh"
#include "workload/processor.hh"

namespace memnet
{
namespace audit
{

bool
enabledFor(bool config_opt_in)
{
#ifndef NDEBUG
    // Debug builds are the auditor's home turf: every run is audited,
    // which is what makes the Debug CI tier a standing cross-check.
    (void)config_opt_in;
    return true;
#else
    return config_opt_in;
#endif
}

Auditor::Auditor(Network &net, const AuditOptions &opts)
    : net_(net), opts_(opts)
{
}

Auditor::~Auditor()
{
    detach();
}

void
Auditor::attach(PowerManager *mgr)
{
    net_.setAuditHook(this);
    mgr_ = mgr;
    if (mgr_)
        mgr_->addEpochObserver(this);
}

void
Auditor::detach()
{
    net_.setAuditHook(nullptr);
    if (mgr_) {
        mgr_->removeEpochObserver(this);
        mgr_ = nullptr;
    }
}

void
Auditor::onMeasureStart(Tick now)
{
    resetAt_ = now;
}

void
Auditor::fail(const char *check, std::string detail)
{
    failures_.push_back(AuditFailure{check, detail});
    if (opts_.failFast) {
        memnet_fatal("invariant audit failed [", check, "]: ", detail,
                     " (see docs/INVARIANTS.md)");
    }
}

bool
Auditor::closeEnough(double a, double b, double abs_tol) const
{
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= abs_tol + opts_.relTol * scale;
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

void
Auditor::checkEnergyConservation(Tick now)
{
    for (Link *l : net_.allLinks()) {
        ++checks_;
        l->finishAccounting(now);
        const LinkStats &ls = l->stats();
        const double got = ls.idleIoJ() + ls.activeIoJ();
        const double expected = l->fullPowerWatts() * ls.powerFracSeconds;
        if (!closeEnough(got, expected, opts_.absTolJ)) {
            fail("energy-conservation",
                 detail::formatMessage(
                     "link ", l->id(), ": idle+active I/O energy ", got,
                     " J but full-power x residency predicts ", expected,
                     " J (drift ", got - expected, " J)"));
        }
    }
}

void
Auditor::checkEnergyAttribution(Tick now)
{
    // Per link: the fine cause buckets must sum to the physics
    // prediction (full power x accumulated power-fraction residency).
    // Same invariant as energy-conservation, but summed over the
    // attribution buckets directly, so it pins the fine split and not
    // just the derived idle/active ledger.
    for (Link *l : net_.allLinks()) {
        ++checks_;
        l->finishAccounting(now);
        const LinkStats &ls = l->stats();
        double causes = ls.txJ + ls.retrainJ;
        for (double j : ls.idleFloorJ)
            causes += j;
        causes += ls.sleepJ + ls.wakeJ;
        const double expected = l->fullPowerWatts() * ls.powerFracSeconds;
        if (!closeEnough(causes, expected, opts_.absTolJ)) {
            fail("energy-attribution",
                 detail::formatMessage(
                     "link ", l->id(), ": cause buckets sum to ", causes,
                     " J but full-power x residency predicts ", expected,
                     " J (drift ", causes - expected, " J)"));
        }
    }
}

void
Auditor::checkLinkStates(Tick now)
{
    const double elapsed = toSeconds(now - resetAt_);
    const double sec_tol = opts_.relTol * elapsed + 1e-9;
    for (Link *l : net_.allLinks()) {
        ++checks_;
        l->finishAccounting(now);
        const LinkStats &ls = l->stats();

        double residency = 0.0;
        for (double s : ls.modeSeconds) {
            if (s < 0.0)
                fail("state-legality",
                     detail::formatMessage("link ", l->id(),
                                           ": negative mode residency"));
            residency += s;
        }
        if (!closeEnough(residency, elapsed, 1e-9)) {
            fail("residency-conservation",
                 detail::formatMessage(
                     "link ", l->id(), ": mode residencies sum to ",
                     residency, " s over an elapsed window of ", elapsed,
                     " s"));
        }

        for (double s : {ls.retrainSeconds, ls.degradedSeconds,
                         ls.offSeconds, ls.powerFracSeconds}) {
            if (s < 0.0 || s > elapsed + sec_tol) {
                fail("state-legality",
                     detail::formatMessage(
                         "link ", l->id(), ": per-state seconds ", s,
                         " outside [0, ", elapsed, "]"));
                break;
            }
        }
        if (ls.offSeconds > 0.0 && !l->power().rooEnabled()) {
            fail("state-legality",
                 detail::formatMessage("link ", l->id(),
                                       ": off time without ROO"));
        }

        const RooState rs = l->power().rooState();
        if ((rs == RooState::Off || rs == RooState::Waking ||
             l->retraining()) &&
            l->transmitting()) {
            fail("state-legality",
                 detail::formatMessage(
                     "link ", l->id(),
                     ": transmitting while off/waking/retraining"));
        }
        if (l->laneLimit() < 1 ||
            l->laneLimit() > LinkPowerState::kFullLanes) {
            fail("state-legality",
                 detail::formatMessage("link ", l->id(),
                                       ": lane limit ", l->laneLimit(),
                                       " out of range"));
        }
    }
}

void
Auditor::checkPacketCensus()
{
    if (!proc_)
        return;
    ++checks_;
    const PacketPool &pool = proc_->packetPool();
    const std::uint64_t outstanding =
        static_cast<std::uint64_t>(proc_->outstandingReads()) +
        static_cast<std::uint64_t>(proc_->outstandingWrites());
    if (!packetCensusOk(pool, outstanding)) {
        fail("packet-conservation",
             detail::formatMessage(
                 "pool census: ", pool.acquired(), " issued - ",
                 pool.released(), " retired = ", pool.inFlight(),
                 " in flight, but the processor holds ", outstanding,
                 " outstanding accesses"));
    }
}

void
Auditor::checkManagerInvariants(PowerManager &pm)
{
    const double ps_tol = opts_.absTolPs;

    for (int m = 0; m < pm.modules(); ++m) {
        for (LinkMgmtState *sp :
             {&pm.requestState(m), &pm.responseState(m)}) {
            LinkMgmtState &s = *sp;
            ++checks_;
            if (s.amsPs < -ps_tol) {
                fail("ams-budget",
                     detail::formatMessage("link ", s.link().id(),
                                           ": negative AMS budget ",
                                           s.amsPs, " ps"));
            }
            // A selection below full power must have fit its budget
            // when chosen. Exception: a mid-epoch lane failure snaps
            // selected.bw up to the surviving width regardless of FLO.
            const bool clamped =
                s.link().power().degraded() &&
                s.selected.bw == s.minUsableBw();
            if (!(s.selected == s.fullCombo()) && !clamped) {
                const double f = s.flo(s.selected);
                const double budget =
                    s.amsPs + ps_tol + opts_.relTol * std::fabs(s.amsPs);
                if (f > budget) {
                    fail("ams-budget",
                         detail::formatMessage(
                             "link ", s.link().id(), ": selected combo FLO ",
                             f, " ps exceeds AMS budget ", s.amsPs, " ps"));
                }
            }
        }
    }

    if (pm.grantPoolRemaining() < -ps_tol) {
        fail("ams-budget",
             detail::formatMessage("grant pool over-drawn: ",
                                   pm.grantPoolRemaining(), " ps"));
    }

    // ISP monotonicity (Section VI-A): only the aware policy promises
    // that an upstream link never sits at a lower power mode (narrower
    // bandwidth, earlier turn-off) than a downstream link of its type.
    if (dynamic_cast<AwareManager *>(&pm) == nullptr)
        return;
    const Topology &topo = net_.topology();
    for (int m = 0; m < pm.modules(); ++m) {
        for (int c : topo.children(m)) {
            ++checks_;
            for (bool request : {true, false}) {
                LinkMgmtState &p = request ? pm.requestState(m)
                                           : pm.responseState(m);
                LinkMgmtState &ch = request ? pm.requestState(c)
                                            : pm.responseState(c);
                if (p.selected.bw > ch.selected.bw &&
                    p.selected.bw != p.minUsableBw()) {
                    fail("isp-monotonicity",
                         detail::formatMessage(
                             "link ", p.link().id(), " (module ", m,
                             ") at bw mode ", p.selected.bw,
                             " is narrower than its child link ",
                             ch.link().id(), " at bw mode ",
                             ch.selected.bw));
                }
                if (p.selected.roo < ch.selected.roo) {
                    fail("isp-monotonicity",
                         detail::formatMessage(
                             "link ", p.link().id(), " (module ", m,
                             ") at ROO mode ", p.selected.roo,
                             " turns off earlier than its child link ",
                             ch.link().id(), " at ROO mode ",
                             ch.selected.roo));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hook entry points
// ---------------------------------------------------------------------

void
Auditor::onEpoch(PowerManager &pm, Tick now)
{
    checkEnergyConservation(now);
    checkEnergyAttribution(now);
    checkLinkStates(now);
    checkPacketCensus();
    checkManagerInvariants(pm);
}

void
Auditor::onInject(const Packet &pkt, Tick)
{
    ++checks_;
    const AddressMap &amap = net_.addressMap();
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(amap.modules) * amap.chunkBytes;
    if (pkt.addr >= capacity) {
        fail("address-map",
             detail::formatMessage(
                 "injected address ", pkt.addr,
                 " beyond mapped capacity ", capacity, " (",
                 amap.modules, " modules x ", amap.chunkBytes,
                 " bytes)"));
    }
}

void
Auditor::finalCheck(Tick now)
{
    checkEnergyConservation(now);
    checkEnergyAttribution(now);
    checkLinkStates(now);
    checkPacketCensus();
    if (mgr_ && mgr_->epochs() > 0)
        checkManagerInvariants(*mgr_);
}

} // namespace audit
} // namespace memnet
