/**
 * @file
 * Network-aware power management (Section VI).
 *
 * Builds on the epoch machinery of PowerManager and adds:
 *
 *  - Iterative Slowdown Propagation (ISP): a distributed scatter/gather
 *    message-passing algorithm (capped at three iterations) that
 *    redistributes the *network-level* AMS so that an upstream link
 *    always runs at an equal-or-higher power mode than its downstream
 *    links of the same type (Section VI-A). Unused AMS left at the head
 *    module after the last iteration backs mid-epoch AMS-request grants
 *    instead of immediate full-power violations (Section VI-A3).
 *  - Response-link wakeup coordination: a response link turns on when
 *    its module's DRAM is being read or when an immediate downstream
 *    response link started waking (plus the downstream link's router +
 *    SERDES + transmission interval), and only turns off when neither
 *    holds — so response wakeup latency is fully hidden and response
 *    links are not slowdown-receiving candidates for ROO (Section VI-B).
 *  - Congestion credit: latency accumulated below a congested upstream
 *    response link is discounted from the network overhead sum using
 *    the link's queuing-delay (QD) and queued-fraction (QF) counters
 *    (Section VI-C).
 */

#ifndef MEMNET_MGMT_AWARE_HH
#define MEMNET_MGMT_AWARE_HH

#include "mgmt/aware_options.hh"
#include "mgmt/manager.hh"

namespace memnet
{

class AwareManager : public PowerManager
{
  public:
    AwareManager(Network &net, BwMechanism mech, const RooConfig &roo,
                 const ManagerParams &params,
                 const AwareOptions &opts = {});

    // -- LinkObserver / ModuleObserver overrides --------------------------

    bool maySleep(Link &l, Tick now) override;
    void onWakeBegin(Link &l, Tick now) override;
    void onSleep(Link &l, Tick now) override;
    void onDramIdle(Module &m, Tick now) override;

    /** Leftover AMS available for mid-epoch grants (tests). */
    double grantPool() const { return grantPoolPs; }

    // -- Observability accessors (src/obs) ---------------------------------

    std::span<const double>
    lastIspUnusedPs() const override
    {
        return ispUnusedPs_;
    }
    std::uint64_t ispRoundsTotal() const override { return ispRounds_; }
    double grantPoolRemaining() const override { return grantPoolPs; }

  protected:
    void redistribute(Tick now) override;
    void handleViolation(LinkMgmtState &s, Tick now) override;
    void applySelections(Tick now) override;

  private:
    /** SRC eligibility floor: 25% of the next mode's FLO. */
    static constexpr double kSrcFloFraction = 0.25;
    /** Fraction of the pool granted per AMS request. */
    static constexpr double kGrantFraction = 1.0 / 16.0;
    /** Maximum grants per link per epoch. */
    static constexpr int kMaxGrants = 4;
    /** Pool share given to request links when ROO is combined. */
    static constexpr double kRequestPoolShare = 0.75;

    const AwareOptions opts;

    LinkMgmtState &
    state(LinkType t, int m)
    {
        return t == LinkType::Request ? *states[m]
                                      : *states[numModules + m];
    }

    /** Response links with hidden wakeups choose bandwidth modes only. */
    bool
    bwOnlyFor(const LinkMgmtState &s) const
    {
        return roo.enabled && opts.wakeCoordination &&
               s.link().type() == LinkType::Response;
    }

    bool eligibleSrc(const LinkMgmtState &s) const;

    /** Discounted subtree overhead (Section VI-C), bottom-up. */
    double gatherOverhead(int m) const;

    /** Fill every link's downstream-SRC count for one type. */
    void computeDsrc(LinkType t);

    /** One scatter pass down one link type. */
    void scatterVisit(LinkType t, int m, double pcs);

    /** Monotonicity enforcement + stash collection; returns unused. */
    double gatherUnused(LinkType t);

    double cumFelNetPs = 0.0;
    double cumOverNetPs = 0.0;
    double grantPoolPs = 0.0;
    double grantUnitPs = 0.0;
    /** Unused AMS at the start of each ISP iteration of the last epoch. */
    std::vector<double> ispUnusedPs_;
    /** ISP iterations executed across all epochs. */
    std::uint64_t ispRounds_ = 0;
};

} // namespace memnet

#endif // MEMNET_MGMT_AWARE_HH
