/**
 * @file
 * The assembled memory network: topology, modules, links, processor port.
 */

#ifndef MEMNET_NET_NETWORK_HH
#define MEMNET_NET_NETWORK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "linkpm/modes.hh"
#include "net/link.hh"
#include "net/module.hh"
#include "net/power_trace.hh"
#include "net/topology.hh"
#include "obs/energy_observatory.hh"
#include "obs/quantile_sketch.hh"
#include "power/hmc_power_model.hh"
#include "power/power_breakdown.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"

namespace memnet
{

/**
 * The processor side of the network: receives read responses and write
 * retirement notices. Implemented by the workload library's Processor.
 */
class EndpointHost
{
  public:
    virtual ~EndpointHost() = default;
    virtual void readCompleted(Packet *pkt, Tick now) = 0;
    virtual void writeRetired(Packet *pkt, Tick now) = 0;
};

/** Anything request packets can be injected into (a Network, or a
 *  multi-channel switch fanning out over several networks). */
class TrafficTarget
{
  public:
    virtual ~TrafficTarget() = default;
    virtual void inject(Packet *pkt) = 0;
};

/**
 * Passive per-inject audit hook (src/audit). Called synchronously from
 * Network::inject before routing; an implementation must not mutate
 * the packet or schedule events, so attaching one never changes
 * simulation results.
 */
class NetworkAuditHook
{
  public:
    virtual ~NetworkAuditHook() = default;
    virtual void onInject(const Packet &pkt, Tick now) = 0;
};

/** How addresses map onto modules. */
struct AddressMap
{
    /** Contiguous bytes per module (4 GB small study, 1 GB big study). */
    std::uint64_t chunkBytes = 4ULL << 30;
    /** Interleave 4 KB pages round-robin instead (Section VII-A). */
    bool interleavePages = false;
    std::uint64_t pageBytes = 4096;
    int modules = 1;

    int
    moduleOf(std::uint64_t addr) const
    {
        if (interleavePages) {
            return static_cast<int>((addr / pageBytes) %
                                    static_cast<unsigned>(modules));
        }
        const std::uint64_t m = addr / chunkBytes;
        return static_cast<int>(
            m >= static_cast<std::uint64_t>(modules)
                ? static_cast<std::uint64_t>(modules - 1)
                : m);
    }
};

/**
 * Owns every module and link of one memory network and injects traffic
 * from the processor channel. Also the FaultTarget a FaultInjector
 * degrades: fault domains are link ids (request links 0..n-1, response
 * links n..2n-1, matching allLinks() order).
 */
class Network : public TrafficTarget, public FaultTarget
{
  public:
    Network(EventQueue &eq, const Topology &topo,
            const DramParams &dram_params, BwMechanism mech,
            const RooConfig &roo, const HmcPowerModel &pm,
            const AddressMap &amap,
            const LinkErrorModel &errors = LinkErrorModel{});
    ~Network() override;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Attach the processor-side host (must outlive the network). */
    void setHost(EndpointHost *h) { host_ = h; }
    EndpointHost *host() const { return host_; }

    /**
     * Inject a request packet from the processor. The packet's
     * homeModule is derived from its address here.
     */
    void inject(Packet *pkt) override;

    int numModules() const { return topo_.numModules(); }
    const Topology &topology() const { return topo_; }

    Module &module(int i) { return *modules_[i]; }
    const Module &module(int i) const { return *modules_[i]; }

    /** Request connectivity link of module m (parent -> m). */
    Link &requestLink(int m) { return *reqLinks[m]; }
    /** Response connectivity link of module m (m -> parent). */
    Link &responseLink(int m) { return *respLinks[m]; }
    const Link &requestLink(int m) const { return *reqLinks[m]; }
    const Link &responseLink(int m) const { return *respLinks[m]; }

    /** All links, request links first (ids match indices). */
    std::vector<Link *> allLinks();

    /** Link with the given dense id (request 0..n-1, response n..2n-1). */
    Link &linkById(int id);

    // -- FaultTarget -------------------------------------------------------

    int faultDomains() const override { return 2 * numModules(); }
    void injectRetrain(int link, Tick window) override;
    void injectLaneFailure(int link, int surviving_lanes) override;
    void injectErrorBurst(int link, double flit_error_rate) override;
    void clearErrorBurst(int link) override;

    const AddressMap &addressMap() const { return amap_; }
    const HmcPowerModel &powerModel() const { return pm_; }
    const std::vector<int> &pathOf(int m) const { return topo_.path(m); }

    /** Average modules traversed per access since reset. */
    double avgModulesTraversed() const { return hops.mean(); }
    std::uint64_t injectedPackets() const { return hops.count(); }

    /** Reset all measurement statistics (start of measure window). */
    void resetStats();

    /** Attach observers to every link and module. */
    void setObservers(LinkObserver *lo, ModuleObserver *mo);

    /**
     * Attach a passive power-trace sink to the network and every link
     * (src/obs). Null disables tracing.
     */
    void setTraceSink(PowerTraceSink *t);

    /** Attach the runtime invariant auditor's inject hook (null detaches). */
    void setAuditHook(NetworkAuditHook *h) { audit_ = h; }

    // -- Latency observatory -----------------------------------------------

    /** Component sketches over completed reads since resetStats(). */
    const obs::LatencySketches &latencySketches() const { return lat_; }

    /**
     * Summarize the sketches plus per-link stall attribution into a
     * RunResult-ready breakdown.
     */
    LatencyBreakdown latencySummary() const;

    // -- Energy observatory ------------------------------------------------

    /**
     * The run's energy ledger over [reset, now]: link cause buckets,
     * module cause terms, and the coarse idle/active anchors Figure 5
     * reports. Flushes every link's accounting to @p now; read it once
     * per sample point.
     */
    EnergyAttribution energyAttribution(Tick now);

    /**
     * Congestion sketches: one utilization sample per link (ppm of
     * full bandwidth over the window) plus the waiting-queue occupancy
     * distribution merged over every link.
     */
    obs::EnergySketches collectEnergySketches(Tick now);

    /**
     * One module's energy cause terms over [reset, now] — the same
     * expression energyAttribution folds per module, exposed for the
     * stats dump's per-module terms. Does not flush link accounting.
     */
    ModuleEnergyTerms moduleEnergy(int m, Tick now) const;

    EventQueue &eventQueue() { return eq; }

  private:
    friend class Module;

    /**
     * Complete a read at the processor side: latency decomposition,
     * packet-life trace, and host notification (the root response
     * link's delivery tail).
     */
    void
    completeRead(Packet *pkt, Tick now)
    {
        recordLatency(*pkt, now);
        if (trace_)
            trace_->packetLife(*pkt, pkt->issued, now);
        host_->readCompleted(pkt, now);
    }

    /** Sink adapter delivering module 0's responses to the host. */
    class ProcessorPort : public PacketSink
    {
      public:
        explicit ProcessorPort(Network &n) : net(n) {}
        void
        accept(Packet *pkt, Tick now) override
        {
            net.completeRead(pkt, now);
        }

      private:
        Network &net;
    };

    EventQueue &eq;
    Topology topo_;
    DramParams dramParams;
    const HmcPowerModel &pm_;
    AddressMap amap_;
    RooConfig roo_;
    LinkErrorModel errors_;

    std::vector<std::unique_ptr<Module>> modules_;
    std::vector<std::unique_ptr<Link>> reqLinks;
    std::vector<std::unique_ptr<Link>> respLinks;
    ProcessorPort port;
    EndpointHost *host_ = nullptr;
    PowerTraceSink *trace_ = nullptr;
    NetworkAuditHook *audit_ = nullptr;

    /** Decompose a completed read into the component sketches. */
    void recordLatency(const Packet &pkt, Tick now);

    obs::LatencySketches lat_;

    Average hops;
    Tick measureStart = 0;
};

} // namespace memnet

#endif // MEMNET_NET_NETWORK_HH
