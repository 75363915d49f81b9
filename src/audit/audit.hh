/**
 * @file
 * Runtime invariant auditor.
 *
 * Cross-checks, while a simulation runs, that the layers of the
 * simulator still agree with the physics and with each other (see
 * docs/INVARIANTS.md for the full list with paper citations):
 *
 *  - energy conservation: per link, idleIoJ() + activeIoJ() must equal
 *    the link's full power times its accumulated power-fraction seconds
 *    (mode residency weighted by mode power), within a float-summation
 *    tolerance;
 *  - energy attribution: per link, the fine cause buckets (tx, retrain,
 *    per-mode floor, sleep, wake) must sum to the same physics
 *    prediction;
 *  - residency conservation: per link, the modeSeconds buckets must sum
 *    to the elapsed measured time;
 *  - packet conservation: packets issued == packets retired + packets
 *    in flight, via PacketPool census against the processor's
 *    outstanding counters;
 *  - AMS budget legality: a selected combo's FLO never exceeds the
 *    link's allowable-memory-slowdown budget (Section V), budgets and
 *    the aware grant pool never go negative;
 *  - ISP monotonicity (Section VI): an upstream link never sits at a
 *    lower power mode than a downstream link of the same type, modulo
 *    the degraded-link exception;
 *  - ROO/retrain state legality: an off/waking/retraining link is
 *    never transmitting, off time only accrues with ROO enabled, lane
 *    clamps stay in range;
 *  - address-map validity: every injected request falls inside the
 *    network's mapped capacity.
 *
 * The auditor is a passive observer: it schedules no events and
 * mutates nothing, so an audited run is bit-identical to a bare one.
 * Debug builds audit every run; Release runs opt in via
 * SystemConfig::audit, which --audit and MEMNET_AUDIT=1 set in the
 * front ends (memnet::applyRunEnvironment).
 */

#ifndef MEMNET_AUDIT_AUDIT_HH
#define MEMNET_AUDIT_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mgmt/manager.hh"
#include "net/network.hh"
#include "net/packet_pool.hh"
#include "sim/types.hh"

namespace memnet
{

class Processor;

namespace audit
{

struct AuditOptions
{
    /** memnet_fatal on the first failed check (off for unit tests). */
    bool failFast = true;
    /** Relative tolerance for float-sum comparisons. */
    double relTol = 1e-8;
    /** Absolute tolerance floor for energy comparisons (J). */
    double absTolJ = 1e-12;
    /** Absolute tolerance floor for latency-budget comparisons (ps). */
    double absTolPs = 1e-3;
};

/** One failed invariant check. */
struct AuditFailure
{
    std::string check;  ///< stable check name, e.g. "energy-conservation"
    std::string detail; ///< human-readable diagnosis
};

/**
 * Should this run be audited? True in Debug builds, else when the
 * config opts in.
 */
bool enabledFor(bool config_opt_in);

class Auditor : public EpochObserver, public NetworkAuditHook
{
  public:
    explicit Auditor(Network &net, const AuditOptions &opts = {});
    ~Auditor() override;

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /** Attach the packet-census source (optional). */
    void setProcessor(const Processor *proc) { proc_ = proc; }

    /**
     * Hook into the network (inject checks) and, when @p mgr is not
     * null, the manager's epoch boundary (epoch checks).
     */
    void attach(PowerManager *mgr);

    /** Undo attach(); called automatically on destruction. */
    void detach();

    /** The measurement window starts now (stats were just reset). */
    void onMeasureStart(Tick now);

    /** End-of-run sweep over every invariant. */
    void finalCheck(Tick now);

    // -- EpochObserver -----------------------------------------------------

    void onEpoch(PowerManager &pm, Tick now) override;

    // -- NetworkAuditHook --------------------------------------------------

    void onInject(const Packet &pkt, Tick now) override;

    // -- Individual checks (public so tests can drive them directly) ------

    void checkEnergyConservation(Tick now);
    void checkEnergyAttribution(Tick now);
    void checkLinkStates(Tick now);
    void checkPacketCensus();
    void checkManagerInvariants(PowerManager &pm);

    /** The packet-conservation predicate itself (unit-testable). */
    static bool
    packetCensusOk(const PacketPool &pool, std::uint64_t outstanding)
    {
        return pool.inFlight() == outstanding;
    }

    // -- Results -----------------------------------------------------------

    const std::vector<AuditFailure> &failures() const { return failures_; }
    std::uint64_t checksRun() const { return checks_; }

  private:
    void fail(const char *check, std::string detail);
    bool closeEnough(double a, double b, double abs_tol) const;

    Network &net_;
    const Processor *proc_ = nullptr;
    PowerManager *mgr_ = nullptr;
    const AuditOptions opts_;

    /** Start of the audited window (set by onMeasureStart). */
    Tick resetAt_ = 0;

    std::uint64_t checks_ = 0;
    std::vector<AuditFailure> failures_;
};

} // namespace audit
} // namespace memnet

#endif // MEMNET_AUDIT_AUDIT_HH
