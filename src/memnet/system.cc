#include "memnet/system.hh"

#include <algorithm>

#include "dram/dram_params.hh"
#include "memnet/simulator.hh"
#include "mgmt/aware.hh"
#include "obs/prof.hh"
#include "sim/log.hh"

namespace memnet
{

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

System::System(const SystemConfig &cfg, int channels, ChannelSpread spread)
    : cfg(cfg), measure(effectiveMeasure(cfg)), pm(cfg.ioAttribution)
{
    if (channels < 1)
        memnet_fatal("need at least one channel");
    roo.enabled = cfg.roo;
    roo.wakeupPs = cfg.rooWakeupPs;

    const WorkloadProfile &profile = workloadByName(cfg.workload);
    const std::uint64_t total = profile.footprintBytes();
    const std::uint64_t per_channel = (total + channels - 1) / channels;
    AddressMap amap;
    amap.chunkBytes = cfg.chunkBytes();
    amap.interleavePages = cfg.interleavePages;
    amap.modules = static_cast<int>(std::max<std::uint64_t>(
        1, (per_channel + amap.chunkBytes - 1) / amap.chunkBytes));
    Topology topo = Topology::build(cfg.topology, amap.modules);
    topo.validate();
    DramParams dram;
    LinkErrorModel errors;
    errors.flitErrorRate = cfg.linkFlitErrorRate;

    // Partitioned kernel (sim/partition.hh): partition 0 runs the
    // processor, partitions 1..P-1 run the channel networks — the
    // natural shard boundary, since channels never talk to each other.
    // With fewer partitions than channels, channels share a partition
    // (and its event queue) round-robin, so a one-channel run treats
    // any cfg.partitions > 1 as 2. Serial runs put everything on
    // procEq.
    const int lanes =
        cfg.partitions > 1 ? std::min(cfg.partitions - 1, channels) : 0;
    for (int p = 0; p < lanes; ++p)
        chanEqs.push_back(std::make_unique<EventQueue>());
    const auto queueOf = [&](int c) -> EventQueue & {
        return lanes ? *chanEqs[c % lanes] : procEq;
    };

    for (int c = 0; c < channels; ++c)
        nets.push_back(std::make_unique<Network>(
            queueOf(c), topo, dram, cfg.mechanism, roo, pm, amap, errors));

    // Requests cross each channel's host-interface SERDES FIFO before
    // the channel root (net/boundary.hh). Partitioned runs route
    // through the channel's boundary twin (HostOutbox) instead.
    std::vector<TrafficTarget *> targets;
    if (lanes) {
        // Channels never exchange packets, so their mutual lookahead
        // is unbounded (kTickMax = no edge).
        const int parts = 1 + lanes;
        std::vector<Tick> look(static_cast<std::size_t>(parts) * parts,
                               kTickMax);
        for (int p = 0; p < parts; ++p) {
            look[p * parts + p] = 0;
            if (p > 0) {
                look[0 * parts + p] = PartitionedChannel::kHostLookaheadPs;
                look[p * parts + 0] =
                    PartitionedChannel::kChannelLookaheadPs;
            }
        }
        runner = std::make_unique<PartitionRunner>(
            queues(), std::move(look),
            [this](int dst, BoundaryMessage &m) {
                PartitionedChannel &ch = *chans[m.channel];
                if (dst == 0)
                    ch.applyAtHost(m);
                else
                    ch.applyAtChannel(m);
            });
        for (int c = 0; c < channels; ++c) {
            chans.push_back(std::make_unique<PartitionedChannel>(
                procEq, *nets[c], c, 1 + c % lanes, runner->mail()));
            targets.push_back(&chans.back()->outbox());
        }
    } else {
        for (int c = 0; c < channels; ++c) {
            ports.push_back(std::make_unique<HostPort>(procEq, *nets[c]));
            targets.push_back(ports.back().get());
        }
    }
    if (channels > 1)
        fanout = std::make_unique<ChannelSwitch>(targets, spread, total);

    ProcessorParams pp;
    pp.cores = cfg.cores;
    pp.maxReadsPerCore = cfg.maxReadsPerCore;
    pp.maxWritesPerCore = cfg.maxWritesPerCore;
    pp.seed = cfg.seed;
    pp.rateScale = channels;
    // The watchdog policy of SystemConfig::watchdogTimeoutPs.
    if (cfg.watchdogTimeoutPs > 0)
        pp.watchdogTimeoutPs = cfg.watchdogTimeoutPs;
    else if (cfg.watchdogTimeoutPs == 0 && !cfg.faults.empty())
        pp.watchdogTimeoutPs = us(300);
    proc = std::make_unique<Processor>(
        procEq, fanout ? *fanout : *targets[0], profile, pp);
    // The ports are not Networks, so the processor can't self-wire the
    // response path; attach the host explicitly.
    for (auto &n : nets)
        n->setHost(proc.get());

    // Every channel runs the same fault plan; the flap streams are
    // decorrelated by offsetting the seed per channel. No injector is
    // built for an empty plan, so a default config's event stream is
    // bit-identical to the pre-fault-model simulator. Faults degrade
    // links, so each injector lives on its channel's partition.
    if (!cfg.faults.empty()) {
        for (int c = 0; c < channels; ++c) {
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
          case Policy::Aware:
            mgrs.push_back(std::make_unique<AwareManager>(
                *n, cfg.mechanism, roo, mp, cfg.aware));
            break;
          case Policy::StaticTaper:
            tapers.push_back(std::make_unique<StaticTaperManager>(
                *n, cfg.mechanism));
            tapers.back()->apply();
            break;
        }
    }
    for (auto &m : mgrs)
        m->start(0);

    // Runtime invariant auditor (src/audit), one per channel: passive,
    // so an audited run stays bit-identical to a bare one. Debug builds
    // always audit; Release opts in via cfg.audit or MEMNET_AUDIT.
    if (audit::enabledFor(cfg.audit)) {
        for (int c = 0; c < channels; ++c) {
            auditors.push_back(std::make_unique<audit::Auditor>(*nets[c]));
            // The processor's packet census is global (the pool does
            // not split by channel), so only channel 0's auditor checks
            // it. It reads processor state from epoch events, which in
            // a partitioned run fire in merged tick-steps — every
            // worker parked, so the read is race-free and
            // deterministic.
            if (c == 0)
                auditors.back()->setProcessor(proc.get());
            auditors.back()->attach(manager(c));
        }
    }

    proc->start(0);
}

void
System::run(const std::function<void()> &onMeasureStart)
{
    // Manager epochs read link stats and (audited) processor state;
    // aligning sync points on the epoch grid makes them fire in merged
    // tick-steps with every partition at the same tick.
    const Tick grid = mgrs.empty() ? 0 : cfg.epochLen;
    const auto runUntil = [&](Tick end) {
        if (runner)
            runner->runUntil(end, grid);
        else
            procEq.runUntil(end);
    };
    {
        MEMNET_PROF_SCOPE("sim/warmup");
        runUntil(cfg.warmup);
    }
    for (auto &n : nets)
        n->resetStats();
    proc->resetStats();
    if (onMeasureStart)
        onMeasureStart();
    for (auto &a : auditors)
        a->onMeasureStart(procEq.now());
    {
        MEMNET_PROF_SCOPE("sim/measure");
        runUntil(cfg.warmup + measure);
    }
    for (auto &a : auditors)
        a->finalCheck(procEq.now());
}

std::vector<EventQueue *>
System::queues()
{
    std::vector<EventQueue *> out{&procEq};
    for (auto &q : chanEqs)
        out.push_back(q.get());
    return out;
}

} // namespace memnet
