#include "memnet/system.hh"

#include <algorithm>

#include "dram/dram_params.hh"
#include "mgmt/aware.hh"
#include "obs/prof.hh"
#include "sim/log.hh"

namespace memnet
{

namespace
{

/** Fans injected packets out over the channels, remapping addresses
 *  into each channel's local space. Each channel target is that
 *  channel's host-interface port. */
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
    : cfg(cfg), pm(cfg.ioAttribution)
{
    if (channels < 1)
        memnet_fatal("need at least one channel");
    if (!(cfg.linkFlitErrorRate >= 0.0 && cfg.linkFlitErrorRate < 1.0)) {
        memnet_fatal("link flit error rate must be in [0, 1), got ",
                     cfg.linkFlitErrorRate);
    }
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

    for (int c = 0; c < channels; ++c)
        nets.push_back(std::make_unique<Network>(
            eq, topo, dram, cfg.mechanism, roo, pm, amap, errors));

    // Requests cross each channel's host-interface SERDES FIFO before
    // the channel root (net/boundary.hh).
    std::vector<TrafficTarget *> targets;
    for (int c = 0; c < channels; ++c) {
        ports.push_back(std::make_unique<HostPort>(eq, *nets[c]));
        targets.push_back(ports.back().get());
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
        eq, fanout ? *fanout : *targets[0], profile, pp);
    // The ports are not Networks, so the processor can't self-wire the
    // response path; attach the host explicitly.
    for (auto &n : nets)
        n->setHost(proc.get());

    // Every channel runs the same fault plan; the flap streams are
    // decorrelated by offsetting the seed per channel. No injector is
    // built for an empty plan, so a default config's event stream is
    // bit-identical to the pre-fault-model simulator.
    if (!cfg.faults.empty()) {
        for (int c = 0; c < channels; ++c) {
            injectors.push_back(std::make_unique<FaultInjector>(
                eq, *nets[c], cfg.faults, cfg.seed + c));
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
    // always audit; Release opts in via cfg.audit.
    if (audit::enabledFor(cfg.audit)) {
        for (int c = 0; c < channels; ++c) {
            auditors.push_back(std::make_unique<audit::Auditor>(*nets[c]));
            // The processor's packet census is global (the pool does
            // not split by channel), so only channel 0's auditor checks
            // it.
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
    {
        MEMNET_PROF_SCOPE("sim/warmup");
        eq.runUntil(cfg.warmup);
    }
    for (auto &n : nets)
        n->resetStats();
    proc->resetStats();
    if (onMeasureStart)
        onMeasureStart();
    for (auto &a : auditors)
        a->onMeasureStart(eq.now());
    {
        MEMNET_PROF_SCOPE("sim/measure");
        eq.runUntil(cfg.warmup + cfg.measure);
    }
    for (auto &a : auditors)
        a->finalCheck(eq.now());
}

} // namespace memnet
