/**
 * @file
 * One unidirectional memory-network link and its controller.
 *
 * The controller holds separate read/write queues (reads are prioritized,
 * Section III-B), serializes packets onto the lanes at the current
 * operating point, applies SERDES and downstream-router latency, and
 * delivers to a PacketSink. It owns the link's LinkPowerState and the
 * idle/active energy integration, and publishes every observable event
 * to a LinkObserver so the management hardware (src/mgmt) can maintain
 * its counters without any oracle access.
 */

#ifndef MEMNET_NET_LINK_HH
#define MEMNET_NET_LINK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "linkpm/link_power_state.hh"
#include "linkpm/modes.hh"
#include "net/packet.hh"
#include "obs/quantile_sketch.hh"
#include "power/power_breakdown.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace memnet
{

class Link;
class PowerTraceSink;

/** Anything that can receive delivered packets. */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;
    virtual void accept(Packet *pkt, Tick now) = 0;
};

/**
 * Partition boundary of a link (sim/partition.hh). When one is
 * attached, a packet leaves this partition at serialization end
 * (onTxDone) instead of at delivery: handoff() receives the packet
 * together with the compound key the serial kernel's delivery event
 * would have carried, and the link keeps a shadow of its SERDES/router
 * pipe so local observers still see every departure at the exact
 * delivery tick. Only the root response link of a partitioned channel
 * ever has a boundary (net/boundary.hh).
 */
class LinkBoundary
{
  public:
    virtual ~LinkBoundary() = default;
    virtual void handoff(Packet *pkt, const EventKey &key) = 0;
};

/** Request links flow away from the processor; response links toward. */
enum class LinkType : std::uint8_t
{
    Request,
    Response,
};

/**
 * Observation interface for the management hardware. Default
 * implementation observes nothing and always allows sleep.
 */
class LinkObserver
{
  public:
    virtual ~LinkObserver() = default;

    /** A packet entered the link controller queue. */
    virtual void onEnqueue(Link &, Packet &, Tick) {}

    /** A packet's last flit left the link (pkt.linkArrival is valid). */
    virtual void onDepart(Link &, Packet &, Tick) {}

    /** An idle interval of the link just ended. */
    virtual void onIdleEnd(Link &, Tick idle_start, Tick now) {}

    /** May the link turn off now? (network-aware response gating) */
    virtual bool maySleep(Link &, Tick) { return true; }

    /** The link started its wakeup sequence. */
    virtual void onWakeBegin(Link &, Tick) {}

    /** The link turned off. */
    virtual void onSleep(Link &, Tick) {}

    /** The link's usable width permanently dropped to @p lanes. */
    virtual void onDegrade(Link &, int lanes, Tick) {}

    /** The link entered a retrain window (down until it completes). */
    virtual void onRetrainBegin(Link &, Tick) {}

    /** The link finished retraining and resumed service. */
    virtual void onRetrainEnd(Link &, Tick) {}
};

/** Per-link accumulated statistics (reset at measurement start). */
struct LinkStats
{
    // -- Energy attribution (energy observatory, src/obs) ----------------
    //
    // Every joule the link draws lands in exactly one cause bucket:
    // accrue() integrates the piecewise-constant power over an interval
    // and files it by the link state that held for that interval. The
    // coarse idle/active split the rest of the system reports is
    // *derived* from the buckets (accessors below), so the attribution
    // always sums to the reported ledger bit-identically.
    /** Serialization: lanes driving payload flits at on-state power. */
    double txJ = 0.0;
    /** Retrain windows: lanes driving training sequences at on power. */
    double retrainJ = 0.0;
    /** Static floor per bandwidth-mode index (on and idle, no wake). */
    std::array<double, 8> idleFloorJ{};
    /** ROO off state (residual sleep power). */
    double sleepJ = 0.0;
    /** Wake transitions (Off -> On sequences). */
    double wakeJ = 0.0;

    /** Active I/O energy: traffic plus retrain lane activity. */
    double activeIoJ() const { return txJ + retrainJ; }

    /** Idle I/O energy: mode floors, sleep residual, wake transitions. */
    double
    idleIoJ() const
    {
        double floor = 0.0;
        for (double j : idleFloorJ)
            floor += j;
        return (floor + sleepJ) + wakeJ;
    }

    std::uint64_t flits = 0;
    std::uint64_t packets = 0;
    std::uint64_t readPackets = 0;
    /** CRC retransmissions (LinkErrorModel). */
    std::uint64_t retries = 0;
    /** Packets whose serialization was aborted and replayed (faults). */
    std::uint64_t replays = 0;
    /** Retrain windows entered. */
    std::uint64_t retrains = 0;
    /** Seconds spent in the Retraining state. */
    double retrainSeconds = 0.0;
    /** Seconds spent with fewer than 16 usable lanes. */
    double degradedSeconds = 0.0;
    /** Residency seconds per bandwidth-mode index. */
    std::array<double, 8> modeSeconds{};
    double offSeconds = 0.0;
    /**
     * Time integral of the instantaneous power fraction (mode residency
     * weighted by mode power). Multiplied by the link's full power this
     * must equal idleIoJ() + activeIoJ() — the energy-conservation
     * invariant the runtime auditor (src/audit) enforces.
     */
    double powerFracSeconds = 0.0;
    /**
     * Stall attribution (latency observatory): packet-seconds packets
     * spent blocked at this link behind wake sequences / retrain
     * windows. Packet-weighted — N packets waiting through one wake
     * each contribute — so this can exceed wall-clock wake time.
     */
    double wakeStallSeconds = 0.0;
    double retrainStallSeconds = 0.0;
    /** High-water mark of the waiting queue (excludes in-flight). */
    std::uint64_t queuePeak = 0;
};

/**
 * Fold one link's ledger into @p a: its cause buckets, and the coarse
 * anchors from its derived idleIoJ()/activeIoJ() (fold in allLinks()
 * order, so every reader of the ledger sees the same rounding).
 */
inline void
addLink(EnergyAttribution &a, const LinkStats &ls)
{
    a.txJ += ls.txJ;
    a.retrainJ += ls.retrainJ;
    for (std::size_t i = 0; i < a.idleModeJ.size(); ++i)
        a.idleModeJ[i] += ls.idleFloorJ[i];
    a.sleepJ += ls.sleepJ;
    a.wakeJ += ls.wakeJ;
    a.idleIoJ += ls.idleIoJ();
    a.activeIoJ += ls.activeIoJ();
}

class Link
{
  public:
    /**
     * @param eq event queue.
     * @param id dense link id (for managers).
     * @param type request or response.
     * @param module the module this link is the connectivity link of
     *        (the downstream module of the pair it connects).
     * @param table bandwidth mechanism mode table.
     * @param roo ROO configuration.
     * @param full_power_w electrical power of this link at full power
     *        (both ends).
     * @param sink receiver of delivered packets.
     */
    Link(EventQueue &eq, int id, LinkType type, int module,
         const ModeTable *table, const RooConfig *roo,
         double full_power_w, PacketSink *sink,
         const LinkErrorModel *errors = nullptr);

    // -- Traffic ---------------------------------------------------------

    /** Enqueue a packet for transmission. */
    void enqueue(Packet *pkt);

    /** Queued packets (excluding the one being serialized). */
    std::size_t queued() const { return readQ.size() + writeQ.size(); }

    bool transmitting() const { return busy; }

    // -- Power control (called by managers) --------------------------------

    /**
     * Apply a bandwidth mode and a ROO mode. Transitions begin
     * immediately; energy accounting is exact across the boundary.
     */
    void applyModes(std::size_t bw_idx, std::size_t roo_idx);

    /** Force full power until further notice (violation feedback). */
    void forceFullPower();

    /** Externally initiated wake (network-aware response coordination). */
    void wakeNow();

    /**
     * Re-evaluate the sleep opportunity (the manager calls this when its
     * maySleep() answer may have flipped to true).
     */
    void noteSleepOpportunity();

    // -- Fault handling (called by the fault injector) ---------------------

    /**
     * Take the link down for a retrain window ending @p window from now.
     * The in-flight packet's serialization is aborted and replayed after
     * the window, queued packets wait, and nothing is dropped. The lanes
     * drive training sequences for the whole window, so the link draws
     * its on-state power (counted as active I/O). Overlapping retrains
     * extend the window.
     */
    void beginRetrain(Tick window);

    /** True while a retrain window is in progress. */
    bool retraining() const { return retraining_; }

    /**
     * Permanently clamp the usable width to @p lanes (1..16); widening
     * is ignored. Mode selections narrower than the clamp still work;
     * wider ones are derated to the surviving lanes (and applyModes
     * clamps future selections). Notifies the observer via onDegrade.
     */
    void setLaneLimit(int lanes);

    /** Usable width cap (16 when healthy). */
    int laneLimit() const { return pstate.laneClamp(); }

    /** Widest selectable mode index under the current lane limit. */
    std::size_t minUsableMode() const { return pstate.minUsableMode(); }

    /** Override the flit error rate (error burst); negative clears. */
    void setErrorRateOverride(double rate) { errorOverride = rate; }

    /** Effective flit error rate right now. */
    double
    flitErrorRate() const
    {
        return errorOverride >= 0.0 ? errorOverride
                                    : errors_.flitErrorRate;
    }

    const LinkPowerState &power() const { return pstate; }
    LinkPowerState &power() { return pstate; }

    // -- Introspection -----------------------------------------------------

    int id() const { return id_; }
    LinkType type() const { return type_; }
    /** The module whose connectivity link this is. */
    int module() const { return module_; }

    const LinkStats &stats() const { return stats_; }

    /** Electrical power at full bandwidth, both ends (W). */
    double fullPowerWatts() const { return fullPowerW; }

    /**
     * Deliberately corrupt the energy accumulators by @p joules. Exists
     * solely so the audit mutation tests can prove the
     * energy-conservation check fires; never called by simulation code.
     */
    void auditPerturbEnergy(double joules) { stats_.txJ += joules; }

    /** Reset measurement statistics (start of measurement window). */
    void resetStats();

    /** Flush energy integration up to @p now (end of run). */
    void finishAccounting(Tick now) { accrue(now); }

    /** Bytes at full bandwidth the link could move per second. */
    static double
    fullBytesPerSec()
    {
        return kFlitBytes / toSeconds(LinkTiming::kFullFlitPs);
    }

    /** Utilization over @p seconds of measured time. */
    double
    utilization(double seconds) const
    {
        if (seconds <= 0)
            return 0.0;
        return static_cast<double>(stats_.flits) * kFlitBytes /
               (fullBytesPerSec() * seconds);
    }

    /** Attach a management observer (nullptr restores the no-op one). */
    void setObserver(LinkObserver *obs);

    /**
     * Attach a partition boundary (nullptr detaches). With a boundary,
     * delivered packets are handed off instead of reaching the sink;
     * everything on this side of the link — queues, power states,
     * energy accounting, observer callbacks — is bit-identical to the
     * serial kernel (the shadow pipe replays departures locally).
     */
    void setBoundary(LinkBoundary *b) { boundary_ = b; }

    /**
     * Attach a passive power-trace sink (src/obs). Null (the default)
     * disables tracing; every hook is gated on a single pointer check.
     */
    void setTraceSink(PowerTraceSink *t) { trace_ = t; }

    /**
     * Waiting-queue occupancy since resetStats() (energy observatory):
     * every push records the post-push depth. Purely passive. A link's
     * events all run on its home partition, so partitioned recording
     * is race-free.
     */
    const obs::QuantileSketch &occupancy() const { return occupancy_; }

    // -- Latency observatory (monotonic stall accumulators) ----------------

    /**
     * Cumulative wake-sequence time of this link since construction,
     * including the in-progress portion of a wake still running at
     * @p now. Monotonic (never reset), so two snapshots bracket exactly
     * the wake time that elapsed between them — packets snapshot it at
     * wait start and diff it at serialization start to attribute their
     * wait to power-state stalls.
     */
    Tick
    wakeStallAccum(Tick now) const
    {
        Tick t = wakePsTotal_;
        if (pstate.rooState() == RooState::Waking)
            t += now - wakeStart_;
        return t;
    }

    /** Cumulative retrain time, same contract as wakeStallAccum(). */
    Tick
    retrainStallAccum(Tick now) const
    {
        Tick t = retrainPsTotal_;
        if (retraining_)
            t += now - retrainStart_;
        return t;
    }

  private:
    void tryStart();
    void onTxDone();
    void onDeliver();
    void onSleepTimer();
    void onWakeDone();
    void onRetrainDone();
    void onCheckpoint() { accrue(eq.now()); }

    void accrue(Tick now);
    void armSleepTimer();
    void beginWakeInternal(Tick now);
    void exitIdle(Tick now);
    void admitRetry(Packet *pkt);

    /** Open a wait interval on @p pkt (latency observatory). */
    void stampWaitStart(Packet *pkt, Tick now);
    /** Note a waiting-queue push (queue-depth high-water tracking). */
    void noteQueueDepth(Tick now);

    EventQueue &eq;
    const int id_;
    const LinkType type_;
    const int module_;
    PowerTraceSink *trace_ = nullptr;
    /** Serialization span start, valid only while trace_ is attached. */
    Tick txStart_ = 0;
    /** Sleep span start, valid only while trace_ is attached. */
    Tick sleepStart_ = 0;
    /** Wake/retrain span starts — always maintained: the latency
     *  observatory's stall accumulators need them even untraced. */
    Tick wakeStart_ = 0;
    Tick retrainStart_ = 0;
    /** Completed wake/retrain time since construction (monotonic). */
    Tick wakePsTotal_ = 0;
    Tick retrainPsTotal_ = 0;
    /** Last traced operating point (emit mode changes only on change). */
    std::size_t lastTraceBw_ = static_cast<std::size_t>(-1);
    std::size_t lastTraceRoo_ = static_cast<std::size_t>(-1);
    LinkPowerState pstate;
    const double fullPowerW;
    PacketSink *const sink;
    LinkObserver *observer;
    LinkErrorModel errors_;
    Random errorRng;
    /** Burst override of the flit error rate; < 0 means "use baseline". */
    double errorOverride = -1.0;

    /** Retrain window state (fault model). */
    bool retraining_ = false;
    Tick retrainEnd_ = 0;

    Fifo<Packet *> readQ;
    Fifo<Packet *> writeQ;

    bool busy = false;
    Packet *current = nullptr;

    /** In-flight deliveries (SERDES + router pipeline). */
    Fifo<std::pair<Packet *, Tick>> pipe;

    /** Partition boundary (null on every serially-delivering link). */
    LinkBoundary *boundary_ = nullptr;

    /**
     * Boundary mode's stand-in for `pipe`: the packet itself crossed
     * the partition at serialization end, so delivery keeps only what
     * the local observers need (packet type and link arrival for the
     * manager's departure bookkeeping) plus the arm-key recurrence
     * state ((due, armSched) of the pipe event that serially would
     * re-arm the next delivery — see onTxDone).
     */
    struct ShadowEntry
    {
        PacketType type;
        Tick linkArrival;
        Tick due;
        Tick armSched;
    };
    Fifo<ShadowEntry> shadow_;

    /** When the current idle interval started (valid when idle). */
    Tick idleStart = 0;
    bool idle = true;

    /** Energy integration state. */
    Tick lastAccrue = 0;

    LinkStats stats_;

    MemberEvent<Link, &Link::onTxDone> txDoneEvent{this};
    MemberEvent<Link, &Link::onDeliver> deliverEvent{this};
    MemberEvent<Link, &Link::onSleepTimer> sleepEvent{this};
    MemberEvent<Link, &Link::onWakeDone> wakeEvent{this};
    MemberEvent<Link, &Link::onRetrainDone> retrainEvent{this};
    MemberEvent<Link, &Link::onCheckpoint> checkpointEvent{this};

    /** Last: its 15 KB of buckets would split the hot members above. */
    obs::QuantileSketch occupancy_;
};

} // namespace memnet

#endif // MEMNET_NET_LINK_HH
