#include "mgmt/aware.hh"

#include <algorithm>

#include "obs/prof.hh"
#include "sim/log.hh"

namespace memnet
{

AwareManager::AwareManager(Network &net, BwMechanism mech,
                           const RooConfig &roo,
                           const ManagerParams &params,
                           const AwareOptions &opts)
    : PowerManager(net, mech, roo, params), opts(opts)
{
}

// ---------------------------------------------------------------------
// Response-link wakeup coordination (Section VI-B)
// ---------------------------------------------------------------------

bool
AwareManager::maySleep(Link &l, Tick now)
{
    if (!roo.enabled || !opts.wakeCoordination ||
        l.type() == LinkType::Request) {
        return true;
    }
    // A response link may only turn off when its module's DRAM is not
    // being read and every immediate downstream response link is off.
    const int m = l.module();
    if (net.module(m).dramReadsInFlight())
        return false;
    for (int c : net.topology().children(m)) {
        if (net.responseLink(c).power().rooState() != RooState::Off)
            return false;
    }
    return true;
}

void
AwareManager::onWakeBegin(Link &l, Tick now)
{
    if (!roo.enabled || !opts.wakeCoordination ||
        l.type() != LinkType::Response) {
        return;
    }
    // Chain the wakeup upstream: the parent's response link starts
    // waking one router + SERDES + transmission interval later, so it
    // is on exactly when the first forwarded response can reach it.
    const int parent = net.topology().parent(l.module());
    if (parent < 0)
        return;
    const Tick interval = LinkTiming::kRouterPs +
                          l.power().serdes(now) +
                          flitsFor(PacketType::ReadResp) *
                              l.power().flitTime(now);
    Link *up = &net.responseLink(parent);
    eq.schedule(now + interval, [up] { up->wakeNow(); });
}

void
AwareManager::onSleep(Link &l, Tick now)
{
    if (!roo.enabled || !opts.wakeCoordination ||
        l.type() != LinkType::Response) {
        return;
    }
    const int parent = net.topology().parent(l.module());
    if (parent >= 0)
        net.responseLink(parent).noteSleepOpportunity();
}

void
AwareManager::onDramIdle(Module &m, Tick now)
{
    if (roo.enabled && opts.wakeCoordination)
        net.responseLink(m.id()).noteSleepOpportunity();
}

// ---------------------------------------------------------------------
// ISP (Section VI-A)
// ---------------------------------------------------------------------

bool
AwareManager::eligibleSrc(const LinkMgmtState &s) const
{
    // With hidden response wakeups, ROO-only networks treat only
    // request links as slowdown-receiving candidates.
    if (roo.enabled && opts.wakeCoordination &&
        mech == BwMechanism::None) {
        return s.link().type() == LinkType::Request;
    }
    return true;
}

double
AwareManager::gatherOverhead(int m) const
{
    double below = 0.0;
    for (int c : net.topology().children(m))
        below += gatherOverhead(c);
    // Overhead below a congested response link is (partly) free: had
    // the packets not been delayed downstream, they would only have
    // queued longer here (Section VI-C).
    const LinkMgmtState &rs = *states[numModules + m];
    const double discount =
        opts.congestionDiscount
            ? std::min(below * rs.lastQf, rs.lastQdPs)
            : 0.0;
    const double own = mods[m].aelPs - mods[m].felPs;
    return own + below - discount;
}

void
AwareManager::computeDsrc(LinkType t)
{
    // Children have larger ids than parents in every builder, so a
    // reverse sweep is a valid post-order.
    for (int m = numModules - 1; m >= 0; --m) {
        int count = 0;
        for (int c : net.topology().children(m)) {
            const LinkMgmtState &cs =
                t == LinkType::Request ? *states[c]
                                       : *states[numModules + c];
            count += cs.dsrc + (cs.isSrc ? 1 : 0);
        }
        state(t, m).dsrc = count;
    }
}

void
AwareManager::scatterVisit(LinkType t, int m, double pcs)
{
    LinkMgmtState &s = state(t, m);
    if (s.isSrc) {
        const double pcs_in = pcs;
        s.amsPs += pcs_in;
        const bool bw_only = bwOnlyFor(s);
        const Combo sel = s.bestCombo(s.amsPs, bw_only);
        const double f = s.flo(sel);
        const double leftover = s.amsPs - f;
        s.selected = sel;
        s.amsPs = f;
        if (s.dsrc > 0)
            pcs = pcs_in + leftover / s.dsrc;
        else
            s.stashPs += leftover;

        // Candidate again next iteration if a cheaper mode exists and
        // the per-candidate flow could plausibly reach its FLO.
        Combo lower;
        if (s.nextLowerPower(sel, &lower, bw_only)) {
            s.isSrcNext =
                pcs_in + s.amsPs >= kSrcFloFraction * s.flo(lower);
        } else {
            s.isSrcNext = false;
        }
    }
    for (int c : net.topology().children(m))
        scatterVisit(t, c, pcs);
}

double
AwareManager::gatherUnused(LinkType t)
{
    // Bottom-up: enforce that an upstream link runs at an equal or
    // higher power mode than each downstream link of the same type,
    // releasing the FLO difference as unused AMS.
    for (int m = numModules - 1; m >= 0; --m) {
        LinkMgmtState &s = state(t, m);
        Combo want = s.selected;
        for (int c : net.topology().children(m)) {
            const Combo &cc = state(t, c).selected;
            want.bw = std::min(want.bw, cc.bw);   // lower idx = more BW
            want.roo = std::max(want.roo, cc.roo); // higher idx = later off
        }
        // A degraded upstream link cannot widen past its surviving
        // lanes, however wide its children run.
        want.bw = std::max(want.bw, s.minUsableBw());
        if (!(want == s.selected)) {
            const double released = s.flo(s.selected) - s.flo(want);
            s.stashPs += std::max(0.0, released);
            s.selected = want;
            s.amsPs = s.flo(want);
        }
    }
    double total = 0.0;
    for (int m = 0; m < numModules; ++m) {
        LinkMgmtState &s = state(t, m);
        total += s.stashPs;
        s.stashPs = 0.0;
    }
    return total;
}

void
AwareManager::redistribute(Tick)
{
    // Network-level Equation 1 with the congestion discount applied
    // while gathering the overhead sum to the head module.
    ispUnusedPs_.clear();
    double fel_sum = 0.0;
    for (int m = 0; m < numModules; ++m)
        fel_sum += mods[m].felPs;
    cumFelNetPs += fel_sum;
    cumOverNetPs += gatherOverhead(0);

    double unused = std::max(
        0.0, params.alphaPct / 100.0 * cumFelNetPs - cumOverNetPs);

    for (auto &sp : states) {
        LinkMgmtState &s = *sp;
        s.isSrc = eligibleSrc(s);
        s.isSrcNext = false;
        s.selected = s.fullCombo();
        s.amsPs = 0.0;
        s.stashPs = 0.0;
        s.dsrc = 0;
    }

    for (int iter = 0; iter < opts.ispIterations && unused > 0.0;
         ++iter) {
        MEMNET_PROF_SCOPE("mgmt/isp_round");
        ispUnusedPs_.push_back(unused);
        ++ispRounds_;
        computeDsrc(LinkType::Request);
        computeDsrc(LinkType::Response);

        int n_req = 0, n_resp = 0;
        for (int m = 0; m < numModules; ++m) {
            n_req += states[m]->isSrc ? 1 : 0;
            n_resp += states[numModules + m]->isSrc ? 1 : 0;
        }
        if (n_req + n_resp == 0)
            break;

        // Per-candidate slowdown: ROO networks weight request links
        // (whose wakeups cannot be hidden) more heavily.
        double pool_req, pool_resp;
        if (roo.enabled && opts.wakeCoordination &&
            mech == BwMechanism::None) {
            pool_req = unused;
            pool_resp = 0.0;
        } else if (roo.enabled && opts.wakeCoordination) {
            pool_req = n_req ? kRequestPoolShare * unused : 0.0;
            pool_resp = n_resp ? unused - pool_req : 0.0;
        } else {
            const double per = unused / (n_req + n_resp);
            pool_req = per * n_req;
            pool_resp = per * n_resp;
        }
        double undistributed = unused - pool_req - pool_resp;

        if (n_req > 0)
            scatterVisit(LinkType::Request, 0, pool_req / n_req);
        else
            undistributed += pool_req;
        if (n_resp > 0)
            scatterVisit(LinkType::Response, 0, pool_resp / n_resp);
        else
            undistributed += pool_resp;

        for (auto &sp : states) {
            sp->isSrc = sp->isSrcNext;
            sp->isSrcNext = false;
        }

        unused = gatherUnused(LinkType::Request) +
                 gatherUnused(LinkType::Response) + undistributed;
    }

    // Whatever is left backs mid-epoch AMS-request grants.
    grantPoolPs = unused;
    grantUnitPs = unused * kGrantFraction;
}

void
AwareManager::handleViolation(LinkMgmtState &s, Tick now)
{
    // Request leftover AMS from the head module before giving up
    // (Section VI-A3); each grant is 1/16th of the original pool and a
    // link may be served at most four times per epoch.
    while (s.overheadPs() > s.amsPs) {
        if (opts.grantPool && s.grantsUsed < kMaxGrants &&
            grantPoolPs > 0.0) {
            const double g = std::min(grantUnitPs, grantPoolPs);
            grantPoolPs -= g;
            s.amsPs += g;
            ++s.grantsUsed;
        } else {
            ++nViolations;
            s.forcedFullPower = true;
            s.link().forceFullPower();
            notifyViolation(s, now);
            return;
        }
    }
}

void
AwareManager::applySelections(Tick)
{
    for (auto &sp : states) {
        LinkMgmtState &s = *sp;
        std::size_t roo_idx = s.selected.roo;
        if (bwOnlyFor(s)) {
            // Wakeups of response links are fully hidden by the
            // coordination above, so they always use the most
            // aggressive idleness threshold.
            roo_idx = 0;
        }
        s.link().applyModes(s.selected.bw, roo_idx);
    }
}

} // namespace memnet
