#include "memnet/multichannel.hh"

#include <memory>

#include "audit/audit.hh"
#include "dram/dram_params.hh"
#include "memnet/simulator.hh"
#include "mgmt/aware.hh"
#include "mgmt/manager.hh"
#include "mgmt/static_taper.hh"
#include "net/boundary.hh"
#include "net/network.hh"
#include "obs/prof.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "workload/processor.hh"

namespace memnet
{

const char *
channelSpreadName(ChannelSpread s)
{
    return s == ChannelSpread::InterleaveLines ? "interleave"
                                               : "partition";
}

ChannelRemap::ChannelRemap(int channels, ChannelSpread spread,
                           std::uint64_t total_bytes)
    : channels(channels), spread(spread), totalBytes(total_bytes)
{
    memnet_assert(channels >= 1, "need at least one channel");
    partBytes = (total_bytes + channels - 1) / channels;
    // Keep partitions line-aligned. partBytes * channels >= totalBytes
    // holds before and after rounding up, so every in-range address
    // lands in a valid channel without clamping.
    partBytes = (partBytes + 63) & ~std::uint64_t{63};
}

ChannelRemap::Target
ChannelRemap::map(std::uint64_t addr) const
{
    memnet_assert(addr < totalBytes, "address ", addr,
                  " outside the ", totalBytes, "-byte footprint");
    Target t;
    if (spread == ChannelSpread::InterleaveLines) {
        const std::uint64_t line = addr / 64;
        t.channel = static_cast<int>(line % channels);
        t.local = (line / channels) * 64 + addr % 64;
    } else {
        t.channel = static_cast<int>(addr / partBytes);
        t.local = addr - static_cast<std::uint64_t>(t.channel) *
                             partBytes;
    }
    return t;
}

std::uint64_t
ChannelRemap::unmap(int channel, std::uint64_t local) const
{
    memnet_assert(channel >= 0 && channel < channels,
                  "channel ", channel, " out of range");
    if (spread == ChannelSpread::InterleaveLines) {
        const std::uint64_t line =
            (local / 64) * channels + channel;
        return line * 64 + local % 64;
    }
    return static_cast<std::uint64_t>(channel) * partBytes + local;
}

namespace
{

/** Fans injected packets out over the channels, remapping addresses
 *  into each channel's local space. Each channel target is that
 *  channel's host-interface port (or, partitioned, its outbox). */
class ChannelSwitch : public TrafficTarget
{
  public:
    ChannelSwitch(std::vector<TrafficTarget *> channels,
                  ChannelSpread spread, std::uint64_t total_bytes)
        : channels(std::move(channels)),
          remap(static_cast<int>(this->channels.size()), spread,
                total_bytes)
    {
    }

    void
    inject(Packet *pkt) override
    {
        MEMNET_PROF_SCOPE("mc/fanout");
        const ChannelRemap::Target t = remap.map(pkt->addr);
        pkt->addr = t.local;
        channels[t.channel]->inject(pkt);
    }

  private:
    std::vector<TrafficTarget *> channels;
    ChannelRemap remap;
};

} // namespace

MultiChannelResult
runMultiChannel(const MultiChannelConfig &mcfg)
{
    const SystemConfig &cfg = mcfg.base;
    if (mcfg.channels < 1)
        memnet_fatal("need at least one channel");

    const WorkloadProfile &profile = workloadByName(cfg.workload);
    const std::uint64_t total = profile.footprintBytes();
    const std::uint64_t per_channel =
        (total + mcfg.channels - 1) / mcfg.channels;
    const int modules_per_channel = static_cast<int>(std::max<
        std::uint64_t>(
        1, (per_channel + cfg.chunkBytes() - 1) / cfg.chunkBytes()));

    DramParams dram;
    RooConfig roo;
    roo.enabled = cfg.roo;
    roo.wakeupPs = cfg.rooWakeupPs;
    // Same power attribution and link error model as the single-network
    // simulator — runMultiChannel(channels=1) must be bit-identical to
    // Simulator (enforced by tests/test_differential.cc).
    HmcPowerModel pm(cfg.ioAttribution);
    LinkErrorModel errors;
    errors.flitErrorRate = cfg.linkFlitErrorRate;

    // Partitioned kernel (sim/partition.hh): partition 0 runs the
    // processor, partitions 1..P-1 run the channel networks — this is
    // the natural shard boundary, since channels never talk to each
    // other. With fewer partitions than channels, channels share a
    // partition round-robin (and share its event queue).
    const bool partitioned = cfg.partitions > 1;
    const int parts =
        partitioned ? 1 + std::min(cfg.partitions - 1, mcfg.channels)
                    : 1;
    EventQueue procEq;
    std::vector<std::unique_ptr<EventQueue>> chanEqs;
    for (int p = 1; p < parts; ++p)
        chanEqs.push_back(std::make_unique<EventQueue>());
    const auto rankOf = [&](int c) {
        return partitioned ? 1 + c % (parts - 1) : 0;
    };
    const auto queueOf = [&](int c) -> EventQueue & {
        return partitioned ? *chanEqs[c % (parts - 1)] : procEq;
    };

    std::vector<std::unique_ptr<Network>> nets;
    std::vector<std::unique_ptr<PowerManager>> mgrs;
    std::vector<std::unique_ptr<StaticTaperManager>> tapers;
    std::vector<Network *> net_ptrs;

    Topology topo =
        Topology::build(cfg.topology, modules_per_channel);
    topo.validate();

    for (int c = 0; c < mcfg.channels; ++c) {
        AddressMap amap;
        amap.chunkBytes = cfg.chunkBytes();
        amap.interleavePages = cfg.interleavePages;
        amap.modules = modules_per_channel;
        nets.push_back(std::make_unique<Network>(
            queueOf(c), topo, dram, cfg.mechanism, roo, pm, amap,
            errors));
        net_ptrs.push_back(nets.back().get());
    }

    // One host-interface port per channel (net/boundary.hh): the
    // processor side has a SERDES FIFO toward each channel root, same
    // as the single-network simulator's. Partitioned runs use each
    // channel's boundary twin (HostOutbox) instead.
    std::vector<std::unique_ptr<HostPort>> ports;
    std::vector<std::unique_ptr<PartitionedChannel>> chans;
    std::unique_ptr<PartitionRunner> runner;
    std::vector<TrafficTarget *> port_ptrs;
    if (partitioned) {
        std::vector<EventQueue *> queues{&procEq};
        for (auto &q : chanEqs)
            queues.push_back(q.get());
        // Channels never exchange packets, so their mutual lookahead
        // is unbounded (kTickMax = no edge).
        std::vector<Tick> look(
            static_cast<std::size_t>(parts) * parts, kTickMax);
        for (int p = 0; p < parts; ++p) {
            look[p * parts + p] = 0;
            if (p > 0) {
                look[0 * parts + p] =
                    PartitionedChannel::kHostLookaheadPs;
                look[p * parts + 0] =
                    PartitionedChannel::kChannelLookaheadPs;
            }
        }
        runner = std::make_unique<PartitionRunner>(
            std::move(queues), std::move(look),
            [&chans](int dst, BoundaryMessage &m) {
                PartitionedChannel &ch = *chans[m.channel];
                if (dst == 0)
                    ch.applyAtHost(m);
                else
                    ch.applyAtChannel(m);
            });
        for (int c = 0; c < mcfg.channels; ++c) {
            chans.push_back(std::make_unique<PartitionedChannel>(
                procEq, *net_ptrs[c], c, rankOf(c),
                runner->mail()));
            port_ptrs.push_back(&chans.back()->outbox());
        }
    } else {
        for (int c = 0; c < mcfg.channels; ++c) {
            ports.push_back(
                std::make_unique<HostPort>(procEq, *net_ptrs[c]));
            port_ptrs.push_back(ports.back().get());
        }
    }

    ChannelSwitch sw(port_ptrs, mcfg.spread, total);

    ProcessorParams pp;
    pp.cores = cfg.cores;
    pp.maxReadsPerCore = cfg.maxReadsPerCore;
    pp.maxWritesPerCore = cfg.maxWritesPerCore;
    pp.seed = cfg.seed;
    pp.rateScale = mcfg.channels;
    if (cfg.watchdogTimeoutPs > 0)
        pp.watchdogTimeoutPs = cfg.watchdogTimeoutPs;
    else if (cfg.watchdogTimeoutPs == 0 && !cfg.faults.empty())
        pp.watchdogTimeoutPs = us(300);
    Processor proc(procEq, sw, profile, pp);
    for (auto &n : nets)
        n->setHost(&proc);

    // Every channel runs the same fault plan; the flap streams are
    // decorrelated by offsetting the seed per channel. No injector is
    // built for an empty plan (bit-identical to the fault-free path).
    std::vector<std::unique_ptr<FaultInjector>> injectors;
    if (!cfg.faults.empty()) {
        for (int c = 0; c < mcfg.channels; ++c) {
            injectors.push_back(std::make_unique<FaultInjector>(
                queueOf(c), *nets[c], cfg.faults, cfg.seed + c));
            injectors.back()->start(0);
        }
    }

    ManagerParams mp;
    mp.alphaPct = cfg.alphaPct;
    mp.epochLen = cfg.epochLen;
    for (auto &n : nets) {
        switch (cfg.policy) {
          case Policy::FullPower:
            break;
          case Policy::Unaware:
            mgrs.push_back(std::make_unique<UnawareManager>(
                *n, cfg.mechanism, roo, mp));
            break;
          case Policy::Aware: {
            AwareOptions opts;
            opts.ispIterations = cfg.aware.ispIterations;
            opts.congestionDiscount = cfg.aware.congestionDiscount;
            opts.wakeCoordination = cfg.aware.wakeCoordination;
            opts.grantPool = cfg.aware.grantPool;
            mgrs.push_back(std::make_unique<AwareManager>(
                *n, cfg.mechanism, roo, mp, opts));
            break;
          }
          case Policy::StaticTaper:
            tapers.push_back(std::make_unique<StaticTaperManager>(
                *n, cfg.mechanism));
            tapers.back()->apply();
            break;
        }
    }
    for (auto &m : mgrs)
        m->start(0);

    // One auditor per channel network; the processor's packet census is
    // global, so only channel 0's auditor checks it (the pool does not
    // split by channel).
    std::vector<std::unique_ptr<audit::Auditor>> auditors;
    if (audit::enabledFor(cfg.audit)) {
        for (int c = 0; c < mcfg.channels; ++c) {
            auditors.push_back(
                std::make_unique<audit::Auditor>(*nets[c]));
            // The packet census reads processor state from channel 0's
            // epoch events; in a partitioned run those fire in merged
            // tick-steps, where every worker is parked at the same tick.
            if (c == 0)
                auditors.back()->setProcessor(&proc);
            auditors.back()->attach(
                c < static_cast<int>(mgrs.size()) ? mgrs[c].get()
                                                  : nullptr);
        }
    }

    proc.start(0);
    const Tick measure = effectiveMeasure(cfg);
    // Manager epochs read link stats and (audited) processor state;
    // aligning sync points on the epoch grid makes them fire in merged
    // tick-steps with every partition at the same tick.
    const Tick grid = mgrs.empty() ? 0 : cfg.epochLen;
    if (runner)
        runner->runUntil(cfg.warmup, grid);
    else
        procEq.runUntil(cfg.warmup);
    for (auto &n : nets)
        n->resetStats();
    proc.resetStats();
    for (auto &a : auditors)
        a->onMeasureStart(procEq.now());
    const Tick end = cfg.warmup + measure;
    if (runner)
        runner->runUntil(end, grid);
    else
        procEq.runUntil(end);
    for (auto &a : auditors)
        a->finalCheck(procEq.now());

    MultiChannelResult r;
    r.config = mcfg;
    const double secs = toSeconds(measure);
    for (auto &n : nets) {
        const EnergyBreakdown e = n->collectEnergy(end);
        const PowerBreakdown p = PowerBreakdown::fromEnergy(e, secs);
        r.channelPower.push_back(p);
        r.totalPowerW += p.totalW();
        r.channelModules.push_back(n->numModules());
        r.totalModules += n->numModules();
        const double util =
            0.5 * (n->requestLink(0).utilization(secs) +
                   n->responseLink(0).utilization(secs));
        r.channelUtil.push_back(util);
    }
    double idle = 0.0;
    for (const PowerBreakdown &p : r.channelPower)
        idle += p.idleIoW;
    r.idleIoFrac = r.totalPowerW > 0 ? idle / r.totalPowerW : 0.0;
    r.readsPerSec =
        static_cast<double>(proc.completedReads()) / secs;

    // Exact cross-channel merge of the component sketches, plus the
    // stall-attribution totals summed over every channel's links.
    obs::LatencySketches merged;
    for (auto &n : nets)
        merged.merge(n->latencySketches());
    r.latency = summarizeLatency(merged);
    for (auto &n : nets) {
        const LatencyBreakdown b = n->latencySummary();
        r.latency.wakeStallSeconds += b.wakeStallSeconds;
        r.latency.retrainStallSeconds += b.retrainStallSeconds;
        if (b.queuePeak > r.latency.queuePeak)
            r.latency.queuePeak = b.queuePeak;
    }

    // Exact cross-channel merge: the attribution ledger adds
    // field-wise in channel order, the congestion sketches merge
    // bucket-wise — both lossless, so the multi-channel summary is
    // bit-identical to a whole-system ledger.
    EnergyAttribution a;
    obs::EnergySketches sk;
    for (auto &n : nets) {
        a += n->energyAttribution(end);
        sk.merge(n->collectEnergySketches(end));
    }
    r.energy = summarizeEnergy(a, sk);
    return r;
}

} // namespace memnet
