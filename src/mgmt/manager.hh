/**
 * @file
 * Epoch-based memory-network power management (Sections V and VI).
 *
 * PowerManager is the shared epoch machinery: it observes every link
 * and module through hardware-counter-equivalent state, computes the
 * per-epoch full-power (FEL) and actual (AEL) aggregate read latencies,
 * enforces the allowable-memory-slowdown (AMS) budget via violation
 * feedback, and applies the selected link power modes at epoch
 * boundaries. Concrete policies supply redistribute():
 *
 *  - UnawareManager (Section V): every module independently turns its
 *    own Equation-1 balance into AMS and splits it equally over its two
 *    connectivity links.
 *  - AwareManager (Section VI): Iterative Slowdown Propagation
 *    redistributes the network-level AMS so busier links never sit at
 *    lower power modes than less-busy ones, hides response-link wakeup
 *    latency behind DRAM accesses, and discounts latency hidden behind
 *    congested upstream response links.
 */

#ifndef MEMNET_MGMT_MANAGER_HH
#define MEMNET_MGMT_MANAGER_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mgmt/link_state.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

namespace memnet
{

/** Shared manager tunables. */
struct ManagerParams
{
    /** AMS factor in percent (the paper evaluates 2.5 and 5). */
    double alphaPct = 5.0;
    Tick epochLen = us(100);
};

class PowerManager;

/**
 * Synchronous observer of epoch-boundary processing (src/obs epoch
 * recorder). Callbacks run from within the manager's own event
 * handlers; an observer must not schedule events or mutate simulation
 * state, so attaching one never changes simulation results.
 */
class EpochObserver
{
  public:
    virtual ~EpochObserver() = default;

    /** An epoch boundary was fully processed (selections applied). */
    virtual void onEpoch(PowerManager &pm, Tick now) = 0;

    /** An AMS violation forced @p s's link to full power. */
    virtual void onViolation(PowerManager &pm, LinkMgmtState &s,
                             Tick now)
    {
    }
};

class PowerManager : public LinkObserver, public ModuleObserver
{
  public:
    PowerManager(Network &net, BwMechanism mech, const RooConfig &roo,
                 const ManagerParams &params);
    ~PowerManager() override;

    /** Attach observers and schedule epoch processing from @p at. */
    void start(Tick at);

    // -- LinkObserver ------------------------------------------------------

    void onEnqueue(Link &l, Packet &pkt, Tick now) override;
    void onDepart(Link &l, Packet &pkt, Tick now) override;
    void onIdleEnd(Link &l, Tick idle_start, Tick now) override;
    void onDegrade(Link &l, int lanes, Tick now) override;

    // -- ModuleObserver ---------------------------------------------------

    void onDramRead(Module &m, Tick now) override;

    /** Total AMS violations seen (for tests/diagnostics). */
    std::uint64_t violations() const { return nViolations; }

    /** Epochs processed. */
    std::uint64_t epochs() const { return nEpochs; }

    LinkMgmtState &requestState(int m) { return *states[m]; }
    LinkMgmtState &responseState(int m)
    {
        return *states[numModules + m];
    }

    /**
     * Attach an epoch observer. Several may coexist (the obs hub and
     * the runtime auditor both listen); callbacks run in attach order.
     */
    void
    addEpochObserver(EpochObserver *o)
    {
        if (o)
            epochObservers.push_back(o);
    }

    /** Detach a previously attached epoch observer (no-op if absent). */
    void
    removeEpochObserver(EpochObserver *o)
    {
        epochObservers.erase(std::remove(epochObservers.begin(),
                                         epochObservers.end(), o),
                             epochObservers.end());
    }

    /** Modules under management. */
    int modules() const { return numModules; }

    /** Last epoch's full-power estimated latency for module @p m (ps). */
    double moduleFelPs(int m) const { return mods[m].felPs; }

    /** Last epoch's actual latency for module @p m (ps). */
    double moduleAelPs(int m) const { return mods[m].aelPs; }

    /** Unused AMS (ps) at the start of each ISP round of the last epoch. */
    virtual std::span<const double> lastIspUnusedPs() const { return {}; }

    /** ISP iterations executed at the last epoch (aware policy only). */
    int
    lastIspRounds() const
    {
        return static_cast<int>(lastIspUnusedPs().size());
    }

    /** ISP iterations executed across all epochs (aware policy only). */
    virtual std::uint64_t ispRoundsTotal() const { return 0; }

    /** AMS left in the mid-epoch grant pool (aware policy only). */
    virtual double grantPoolRemaining() const { return 0.0; }

  protected:
    /** Per-module Equation-1 bookkeeping. */
    struct ModuleState
    {
        std::uint64_t lastDramReads = 0;
        /** This epoch's values (filled at each boundary). */
        double felPs = 0.0;
        double aelPs = 0.0;
        /** Running sums over epochs. */
        double cumFelPs = 0.0;
        double cumOverPs = 0.0;
    };

    /**
     * Policy hook: assign states[i].amsPs and states[i].selected for
     * every link. Runs after FEL/AEL accounting and FLO snapshots.
     */
    virtual void redistribute(Tick now) = 0;

    /** Policy hook: a link exceeded its AMS mid-epoch. */
    virtual void handleViolation(LinkMgmtState &s, Tick now);

    /** Policy hook: push the selected combos into the links. */
    virtual void applySelections(Tick now);

    void epochTick();

    LinkMgmtState &stateOf(const Link &l) { return *states[l.id()]; }

    Network &net;
    EventQueue &eq;
    const BwMechanism mech;
    const RooConfig &roo;
    const ManagerParams params;
    const int numModules;

    std::vector<ModuleState> mods;
    /** Indexed by link id: request links 0..n-1, response n..2n-1. */
    std::vector<std::unique_ptr<LinkMgmtState>> states;

    Tick dramReadLatencyPs; ///< fixed 30 ns DRAM latency estimate

    /** Notify every attached observer of a processed epoch boundary. */
    void
    notifyEpoch(Tick now)
    {
        for (EpochObserver *o : epochObservers)
            o->onEpoch(*this, now);
    }

    /** Notify every attached observer of an AMS violation. */
    void
    notifyViolation(LinkMgmtState &s, Tick now)
    {
        for (EpochObserver *o : epochObservers)
            o->onViolation(*this, s, now);
    }

    std::uint64_t nViolations = 0;
    std::uint64_t nEpochs = 0;
    std::vector<EpochObserver *> epochObservers;

    MemberEvent<PowerManager, &PowerManager::epochTick> epochEvent{this};
};

/** Section V: adaptation of prior single-module management. */
class UnawareManager : public PowerManager
{
  public:
    using PowerManager::PowerManager;

  protected:
    void redistribute(Tick now) override;
};

} // namespace memnet

#endif // MEMNET_MGMT_MANAGER_HH
