#include "memnet/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "audit/audit.hh"
#include "dram/dram_params.hh"
#include "mgmt/aware.hh"
#include "mgmt/manager.hh"
#include "mgmt/static_taper.hh"
#include "net/boundary.hh"
#include "net/network.hh"
#include "obs/debug_trace.hh"
#include "obs/obs.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/partition.hh"
#include "workload/processor.hh"

namespace memnet
{

const char *
sizeClassName(SizeClass s)
{
    return s == SizeClass::Small ? "small" : "big";
}

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::FullPower:
        return "FP";
      case Policy::Unaware:
        return "unaware";
      case Policy::Aware:
        return "aware";
      case Policy::StaticTaper:
        return "static";
    }
    return "?";
}

const char *const kUtilBucketNames[kUtilBuckets] = {
    "0-1%", "1-5%", "5-10%", "10-20%", "20-100%"};

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << workload << "/" << topologyName(topology) << "/"
       << sizeClassName(sizeClass) << "/" << policyName(policy);
    return os.str();
}

namespace
{

/** Utilization bucket index for Figure 13. */
int
utilBucket(double u)
{
    if (u < 0.01)
        return 0;
    if (u < 0.05)
        return 1;
    if (u < 0.10)
        return 2;
    if (u < 0.20)
        return 3;
    return 4;
}

/** Map a bandwidth-mode index to the 16/8/4/1-lane reporting group. */
int
laneGroup(BwMechanism mech, std::size_t mode_idx)
{
    // VWL modes map directly; DVFS modes are grouped by their closest
    // bandwidth equivalent; mechanism None is always "16 lanes".
    if (mech == BwMechanism::None)
        return 0;
    return static_cast<int>(std::min<std::size_t>(mode_idx, 3));
}

} // namespace

Tick
effectiveMeasure(const SystemConfig &cfg)
{
    if (const char *env = std::getenv("MEMNET_SIM_US")) {
        const long v = std::atol(env);
        if (v > 0)
            return us(v);
    }
    return cfg.measure;
}

class SimulatorImpl
{
  public:
    explicit SimulatorImpl(const SystemConfig &cfg) : cfg(cfg) {}

    RunResult
    run()
    {
        // Per-run profiler capture: attributes every phase recorded on
        // this thread between here and the end of run() to this
        // RunResult, which stays correct when Runner reuses a thread
        // or ParallelRunner runs several sims concurrently.
        prof::ScopedCapture capture("sim/run");
        // The construction phase can't sit in its own block (everything
        // built here outlives it), so the scope is closed by hand right
        // before the warmup dispatch.
        prof::Scope build{"sim/build"};

        const WorkloadProfile &profile = workloadByName(cfg.workload);
        const int n = profile.modulesFor(cfg.chunkBytes());

        Topology topo = Topology::build(cfg.topology, n);
        topo.validate();

        DramParams dram;
        RooConfig roo;
        roo.enabled = cfg.roo;
        roo.wakeupPs = cfg.rooWakeupPs;

        AddressMap amap;
        amap.chunkBytes = cfg.chunkBytes();
        amap.interleavePages = cfg.interleavePages;
        amap.modules = n;

        HmcPowerModel pm(cfg.ioAttribution);
        LinkErrorModel errors;
        errors.flitErrorRate = cfg.linkFlitErrorRate;

        // Partitioned kernel (sim/partition.hh): the processor runs on
        // partition 0 and the channel network on partition 1, coupled
        // through the host-interface boundary (net/boundary.hh). A
        // single-channel run has exactly one channel to offload, so any
        // cfg.partitions > 1 behaves as 2. Serial runs alias both
        // queue names onto the one queue.
        const bool partitioned = cfg.partitions > 1;
        EventQueue procEq;
        std::unique_ptr<EventQueue> chanEqOwned;
        if (partitioned)
            chanEqOwned = std::make_unique<EventQueue>();
        EventQueue &netEq = partitioned ? *chanEqOwned : procEq;

        Network net(netEq, topo, dram, cfg.mechanism, roo, pm, amap,
                    errors);

        // Requests cross the host-interface SERDES FIFO before the
        // channel root (net/boundary.hh). The port is not a Network,
        // so the processor can't self-wire the response path — attach
        // the host explicitly. Partitioned runs route through the
        // boundary twin (HostOutbox) instead.
        std::unique_ptr<PartitionRunner> runner;
        std::unique_ptr<PartitionedChannel> chan;
        std::unique_ptr<HostPort> hostIf;
        TrafficTarget *target = nullptr;
        if (partitioned) {
            std::vector<Tick> look(4, 0);
            look[0 * 2 + 1] = PartitionedChannel::kHostLookaheadPs;
            look[1 * 2 + 0] = PartitionedChannel::kChannelLookaheadPs;
            runner = std::make_unique<PartitionRunner>(
                std::vector<EventQueue *>{&procEq, &netEq},
                std::move(look),
                [&chan](int dst, BoundaryMessage &m) {
                    if (dst == 0)
                        chan->applyAtHost(m);
                    else
                        chan->applyAtChannel(m);
                });
            chan = std::make_unique<PartitionedChannel>(
                procEq, net, 0, 1, runner->mail());
            target = &chan->outbox();
        } else {
            hostIf = std::make_unique<HostPort>(procEq, net);
            target = hostIf.get();
        }

        ProcessorParams pp;
        pp.cores = cfg.cores;
        pp.maxReadsPerCore = cfg.maxReadsPerCore;
        pp.maxWritesPerCore = cfg.maxWritesPerCore;
        pp.seed = cfg.seed;
        pp.watchdogTimeoutPs = watchdogTimeout();
        Processor proc(procEq, *target, profile, pp);
        net.setHost(&proc);

        // Fault injection: only constructed for a non-empty plan so a
        // default config's event stream is bit-identical to the
        // pre-fault-model simulator. Faults degrade links, so the
        // injector lives on the channel partition.
        std::unique_ptr<FaultInjector> injector;
        if (!cfg.faults.empty()) {
            injector = std::make_unique<FaultInjector>(
                netEq, net, cfg.faults, cfg.seed);
            injector->start(0);
        }

        std::unique_ptr<PowerManager> mgr;
        std::unique_ptr<StaticTaperManager> taper;
        ManagerParams mp;
        mp.alphaPct = cfg.alphaPct;
        mp.epochLen = cfg.epochLen;
        switch (cfg.policy) {
          case Policy::FullPower:
            break;
          case Policy::Unaware:
            mgr = std::make_unique<UnawareManager>(net, cfg.mechanism,
                                                   roo, mp);
            break;
          case Policy::Aware: {
            AwareOptions opts;
            opts.ispIterations = cfg.aware.ispIterations;
            opts.congestionDiscount = cfg.aware.congestionDiscount;
            opts.wakeCoordination = cfg.aware.wakeCoordination;
            opts.grantPool = cfg.aware.grantPool;
            mgr = std::make_unique<AwareManager>(net, cfg.mechanism,
                                                 roo, mp, opts);
            break;
          }
          case Policy::StaticTaper:
            taper = std::make_unique<StaticTaperManager>(
                net, cfg.mechanism);
            taper->apply();
            break;
        }
        if (mgr)
            mgr->start(0);

        // Observability: all hooks are passive callbacks from existing
        // events, so an instrumented run is bit-identical to a bare one;
        // with nothing requested no hub is constructed at all.
        if (!cfg.obs.traceSpec.empty())
            obs::setTraceSpec(cfg.obs.traceSpec);
        std::unique_ptr<obs::ObsHub> hub;
        if (cfg.obs.active()) {
            std::vector<EventQueue *> obsQueues;
            if (partitioned)
                obsQueues = {&procEq, &netEq};
            hub = std::make_unique<obs::ObsHub>(cfg.obs, net, mgr.get(),
                                                std::move(obsQueues));
        }

        // Runtime invariant auditor (src/audit): passive like obs, so
        // an audited run stays bit-identical to a bare one. Debug
        // builds always audit; Release opts in via cfg.audit or
        // MEMNET_AUDIT.
        std::unique_ptr<audit::Auditor> auditor;
        if (audit::enabledFor(cfg.audit)) {
            auditor = std::make_unique<audit::Auditor>(net);
            // The packet census reads processor state from the channel
            // partition's epoch events. Those fire during merged
            // tick-steps — every worker parked, so the read is
            // race-free and deterministic.
            auditor->setProcessor(&proc);
            auditor->attach(mgr.get());
        }

        proc.start(0);

        build.close();
        const auto wall_start = std::chrono::steady_clock::now();
        const Tick measure = effectiveMeasure(cfg);
        // Manager epochs read link stats and (audited) processor state;
        // aligning sync points on the epoch grid makes them fire in
        // merged tick-steps with every partition at the same tick.
        const Tick grid = mgr ? cfg.epochLen : 0;
        {
            MEMNET_PROF_SCOPE("sim/warmup");
            if (runner)
                runner->runUntil(cfg.warmup, grid);
            else
                procEq.runUntil(cfg.warmup);
        }
        net.resetStats();
        proc.resetStats();
        if (hub)
            hub->onMeasureStart(procEq.now());
        if (auditor)
            auditor->onMeasureStart(procEq.now());
        const Tick end = cfg.warmup + measure;
        {
            MEMNET_PROF_SCOPE("sim/measure");
            if (runner)
                runner->runUntil(end, grid);
            else
                procEq.runUntil(end);
        }
        if (auditor)
            auditor->finalCheck(procEq.now());
        const double wall_secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();

        RunResult r;
        {
            MEMNET_PROF_SCOPE("sim/collect");
            r = collect(procEq, net, proc, mgr.get(), injector.get(),
                        measure);
        }
        r.profile.eventsFired = procEq.fired();
        r.profile.eventsScheduled = procEq.scheduledTotal();
        r.profile.wallSeconds = wall_secs;
        r.profile.simSeconds = toSeconds(procEq.now());
        r.profile.packetsIssued = proc.packetPool().acquired();
        r.profile.packetHeapAllocs = proc.packetPool().heapAllocated();
        r.profile.auditChecksRun = auditor ? auditor->checksRun() : 0;
        r.profile.eventsDescheduled = procEq.descheduledTotal();
        r.profile.peakQueueDepth = procEq.peakPending();
        r.profile.dispatchWindows = procEq.dispatchWindows();
        r.profile.dispatchWindowPs = procEq.dispatchWindowPs();
        if (partitioned) {
            // The health counters aggregate across partition queues:
            // rates sum, the high-water mark takes the max, and the
            // dispatch-rate histogram sums elementwise.
            r.profile.eventsFired += netEq.fired();
            r.profile.eventsScheduled += netEq.scheduledTotal();
            r.profile.eventsDescheduled += netEq.descheduledTotal();
            r.profile.peakQueueDepth = std::max<std::uint64_t>(
                r.profile.peakQueueDepth, netEq.peakPending());
            const std::vector<std::uint64_t> &cw =
                netEq.dispatchWindows();
            if (cw.size() > r.profile.dispatchWindows.size())
                r.profile.dispatchWindows.resize(cw.size(), 0);
            for (std::size_t i = 0; i < cw.size(); ++i)
                r.profile.dispatchWindows[i] += cw[i];

            r.profile.partitions = runner->partitions();
            const std::vector<PartitionLaneStats> &ls =
                runner->laneStats();
            for (int p = 0; p < runner->partitions(); ++p) {
                const EventQueue &q = p == 0 ? procEq : netEq;
                PartitionLane lane;
                lane.eventsFired = q.fired();
                lane.eventsScheduled = q.scheduledTotal();
                lane.peakQueueDepth = q.peakPending();
                lane.windows = ls[p].windows;
                lane.barrierWaitNs = ls[p].barrierWaitNs;
                r.profile.partitionLanes.push_back(lane);
            }
        }
        r.eventsFired = r.profile.eventsFired;
        if (hub)
            hub->finish(procEq.now());
        // Close the capture last so the phase rows cover collect() and
        // the obs flush as well as the dispatch loops.
        r.profile.profPhases = capture.finish();
        return r;
    }

  private:
    /** Resolve the watchdog policy (see SystemConfig::watchdogTimeoutPs). */
    Tick
    watchdogTimeout() const
    {
        if (cfg.watchdogTimeoutPs > 0)
            return cfg.watchdogTimeoutPs;
        if (cfg.watchdogTimeoutPs == 0 && !cfg.faults.empty())
            return us(300);
        return 0;
    }

    RunResult
    collect(EventQueue &eq, Network &net, Processor &proc,
            PowerManager *mgr, const FaultInjector *injector,
            Tick measure)
    {
        RunResult r;
        r.config = cfg;
        r.numModules = net.numModules();
        const double secs = toSeconds(measure);

        const EnergyBreakdown e = net.collectEnergy(eq.now());
        const PowerBreakdown total = PowerBreakdown::fromEnergy(e, secs);
        r.totalNetworkPowerW = total.totalW();
        r.perHmc = total.scaled(1.0 / r.numModules);
        r.idleIoFrac = r.totalNetworkPowerW > 0
                           ? total.idleIoW / r.totalNetworkPowerW
                           : 0.0;

        r.completedReads = proc.completedReads();
        r.readsPerSec = static_cast<double>(r.completedReads) / secs;
        r.avgReadLatencyNs = proc.avgReadLatencyNs();
        r.avgModulesTraversed = net.avgModulesTraversed();
        r.violations = mgr ? mgr->violations() : 0;
        r.eventsFired = eq.fired();

        const double chan_req =
            net.requestLink(0).utilization(secs);
        const double chan_resp =
            net.responseLink(0).utilization(secs);
        r.channelUtil = 0.5 * (chan_req + chan_resp);

        double util_sum = 0.0;
        int links = 0;
        for (Link *l : net.allLinks()) {
            const double u = l->utilization(secs);
            util_sum += u;
            ++links;
            const int b = utilBucket(u);
            const LinkStats &ls = l->stats();
            r.reliability.retries += ls.retries;
            r.reliability.replays += ls.replays;
            r.reliability.retrains += ls.retrains;
            r.reliability.retrainSeconds += ls.retrainSeconds;
            r.reliability.degradedSeconds += ls.degradedSeconds;
            for (std::size_t k = 0; k < ls.modeSeconds.size(); ++k) {
                if (ls.modeSeconds[k] <= 0.0)
                    continue;
                r.linkHours[b][laneGroup(cfg.mechanism, k)] +=
                    ls.modeSeconds[k];
            }
        }
        r.avgLinkUtil = links ? util_sum / links : 0.0;
        if (injector)
            r.reliability.faultEvents = injector->stats().total();

        r.latency = net.latencySummary();
        r.energy = net.energySummary(eq.now());

        const double link_full_w = net.powerModel().linkFullPowerW();
        for (int m = 0; m < net.numModules(); ++m) {
            const Module &mod = net.module(m);
            ModuleDetail d;
            d.id = m;
            d.highRadix = mod.radix() == Radix::High;
            d.hopDistance = net.topology().hopDistance(m);
            d.dramAccesses = mod.dramAccesses();
            d.flitsRouted = mod.flitsRouted();
            d.requestLinkUtil = net.requestLink(m).utilization(secs);
            d.responseLinkUtil = net.responseLink(m).utilization(secs);
            auto power_frac = [&](const Link &l) {
                const LinkStats &ls = l.stats();
                return secs > 0 ? (ls.idleIoJ() + ls.activeIoJ()) /
                                      (link_full_w * secs)
                                : 1.0;
            };
            d.requestLinkPowerFrac = power_frac(net.requestLink(m));
            d.responseLinkPowerFrac = power_frac(net.responseLink(m));
            r.modules.push_back(d);
        }
        return r;
    }

    SystemConfig cfg;
};

Simulator::Simulator(const SystemConfig &cfg)
    : impl(std::make_unique<SimulatorImpl>(cfg))
{
}

Simulator::~Simulator() = default;

RunResult
Simulator::run()
{
    return impl->run();
}

RunResult
runSimulation(const SystemConfig &cfg)
{
    return Simulator(cfg).run();
}

} // namespace memnet
