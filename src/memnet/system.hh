/**
 * @file
 * The one system builder behind Simulator::run and runMultiChannel
 * (internal to src/memnet; not installed as API).
 *
 * A System is one processor driving C physically independent channel
 * networks. Building and running it is shared; the callers differ only
 * in what they collect afterwards. Simulator::run builds one channel
 * and adds the obs hub, the host profile and the per-module RunResult;
 * runMultiChannel builds C channels and aggregates across them.
 *
 * Construction order fixes event sequence numbers, so it is the same
 * for every channel count: networks, host ports (or the partition
 * runner and boundaries), processor, fault injectors, power managers,
 * auditors, then the processor starts. A one-channel system has no
 * channel switch: the processor injects straight into the port.
 */

#ifndef MEMNET_MEMNET_SYSTEM_HH
#define MEMNET_MEMNET_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "audit/audit.hh"
#include "memnet/multichannel.hh"
#include "mgmt/manager.hh"
#include "mgmt/static_taper.hh"
#include "net/boundary.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/partition.hh"
#include "workload/processor.hh"

namespace memnet
{

struct System
{
    System(const SystemConfig &cfg, int channels, ChannelSpread spread);

    // The partition runner's message callback holds this.
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Warm up, reset every statistic, then run the measurement window
     * and the auditors' final check. @p onMeasureStart runs right after
     * the reset.
     */
    void run(const std::function<void()> &onMeasureStart = {});

    /** The processor's queue, then each channel partition's. */
    std::vector<EventQueue *> queues();

    /** Channel @p c's power manager, or null for an unmanaged policy. */
    PowerManager *
    manager(int c) const
    {
        return c < static_cast<int>(mgrs.size()) ? mgrs[c].get() : nullptr;
    }

    const SystemConfig &cfg;
    /** The measurement window, effectiveMeasure(cfg). */
    const Tick measure;

    // Declared in build order, so teardown runs in reverse: observers
    // go before what they observe, the runner before its queues. The
    // networks and managers keep references to roo and pm.
    RooConfig roo;
    HmcPowerModel pm;
    EventQueue procEq;
    /** Partitioned kernel: one queue per channel partition. */
    std::vector<std::unique_ptr<EventQueue>> chanEqs;
    std::vector<std::unique_ptr<Network>> nets;
    std::unique_ptr<PartitionRunner> runner;
    std::vector<std::unique_ptr<PartitionedChannel>> chans;
    std::vector<std::unique_ptr<HostPort>> ports;
    /** Fans injections out over the channels (C > 1 only). */
    std::unique_ptr<TrafficTarget> fanout;
    std::unique_ptr<Processor> proc;
    std::vector<std::unique_ptr<FaultInjector>> injectors;
    std::vector<std::unique_ptr<PowerManager>> mgrs;
    std::vector<std::unique_ptr<StaticTaperManager>> tapers;
    std::vector<std::unique_ptr<audit::Auditor>> auditors;
};

} // namespace memnet

#endif // MEMNET_MEMNET_SYSTEM_HH
