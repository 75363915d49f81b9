#include "memnet/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/parallel.hh"
#include "memnet/system.hh"
#include "obs/obs.hh"
#include "sim/log.hh"

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

/** The per-module RunResult of a one-channel system after its run. */
RunResult
collect(System &sys)
{
    const SystemConfig &cfg = sys.cfg;
    Network &net = *sys.nets[0];
    const Tick now = sys.procEq.now();
    RunResult r;
    r.config = cfg;
    r.numModules = net.numModules();
    const double secs = toSeconds(sys.measure);

    const EnergyAttribution ledger = net.energyAttribution(now);
    const PowerBreakdown total = PowerBreakdown::fromEnergy(ledger, secs);
    r.totalNetworkPowerW = total.totalW();
    r.perHmc = total.scaled(1.0 / r.numModules);
    r.idleIoFrac = r.totalNetworkPowerW > 0
                       ? total.idleIoW / r.totalNetworkPowerW
                       : 0.0;

    r.completedReads = sys.proc->completedReads();
    r.readsPerSec = static_cast<double>(r.completedReads) / secs;
    r.avgReadLatencyNs = sys.proc->avgReadLatencyNs();
    r.avgModulesTraversed = net.avgModulesTraversed();
    r.violations = sys.mgrs.empty() ? 0 : sys.mgrs[0]->violations();

    const double chan_req = net.requestLink(0).utilization(secs);
    const double chan_resp = net.responseLink(0).utilization(secs);
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
    if (!sys.injectors.empty())
        r.reliability.faultEvents = sys.injectors[0]->stats().total();

    r.latency = net.latencySummary();
    r.energy = summarizeEnergy(ledger, net.collectEnergySketches(now));

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

} // namespace

Tick
effectiveMeasure(const SystemConfig &cfg)
{
    const char *env = std::getenv("MEMNET_SIM_US");
    if (!env || !*env)
        return cfg.measure;
    long v = 0;
    if (!parseNumber(env, &v) || v <= 0)
        throw std::invalid_argument(
            std::string("MEMNET_SIM_US='") + env +
            "' is not a positive whole number of microseconds");
    return us(v);
}

RunResult
Simulator::run()
{
    // Per-run profiler capture: attributes every phase recorded on this
    // thread between here and the end of run() to this RunResult, which
    // stays correct when Runner reuses a thread or ParallelRunner runs
    // several sims concurrently.
    prof::ScopedCapture capture("sim/run");
    // The construction phase can't sit in its own block (everything
    // built here outlives it), so the scope is closed by hand right
    // before the warmup dispatch.
    prof::Scope build{"sim/build"};
    System sys(cfg, 1, ChannelSpread::InterleaveLines);

    // Observability: all hooks are passive callbacks from existing
    // events, so an instrumented run is bit-identical to a bare one;
    // with nothing requested no hub is constructed at all.
    std::unique_ptr<obs::ObsHub> hub;
    if (cfg.obs.active())
        hub = std::make_unique<obs::ObsHub>(cfg.obs, *sys.nets[0],
                                            sys.manager(0));

    build.close();
    const auto wall_start = std::chrono::steady_clock::now();
    sys.run([&] {
        if (hub)
            hub->onMeasureStart(sys.procEq.now());
    });
    const double wall_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    RunResult r;
    {
        MEMNET_PROF_SCOPE("sim/collect");
        r = collect(sys);
    }
    // The health counters aggregate across partition queues: rates
    // sum, the high-water mark takes the max, and the dispatch-rate
    // histogram sums elementwise.
    RunProfile &p = r.profile;
    const std::vector<EventQueue *> queues = sys.queues();
    for (std::size_t i = 0; i < queues.size(); ++i) {
        const EventQueue &q = *queues[i];
        p.eventsFired += q.fired();
        p.eventsScheduled += q.scheduledTotal();
        p.eventsDescheduled += q.descheduledTotal();
        p.peakQueueDepth =
            std::max<std::uint64_t>(p.peakQueueDepth, q.peakPending());
        const std::vector<std::uint64_t> &w = q.dispatchWindows();
        if (w.size() > p.dispatchWindows.size())
            p.dispatchWindows.resize(w.size(), 0);
        for (std::size_t k = 0; k < w.size(); ++k)
            p.dispatchWindows[k] += w[k];
        if (sys.runner) {
            const PartitionLaneStats &ls = sys.runner->laneStats()[i];
            p.partitionLanes.push_back({q.fired(), q.scheduledTotal(),
                                        q.peakPending(), ls.windows,
                                        ls.barrierWaitNs});
        }
    }
    if (sys.runner)
        p.partitions = sys.runner->partitions();
    p.dispatchWindowPs = sys.procEq.dispatchWindowPs();
    p.wallSeconds = wall_secs;
    p.simSeconds = toSeconds(sys.procEq.now());
    p.packetsIssued = sys.proc->packetPool().acquired();
    p.packetHeapAllocs = sys.proc->packetPool().heapAllocated();
    p.auditChecksRun =
        sys.auditors.empty() ? 0 : sys.auditors[0]->checksRun();
    r.eventsFired = p.eventsFired;
    if (hub)
        hub->finish();
    // The phase rows cover collect() and the obs flush as well as the
    // dispatch loops.
    p.profPhases = capture.finish();
    // Written last, so the dump's run is r byte for byte, host phases
    // included. collect() flushed the energy ledgers at this tick.
    if (!cfg.obs.statsJsonPath.empty()) {
        std::ofstream f(cfg.obs.statsJsonPath);
        if (!f) {
            memnet_warn("cannot open stats JSON path: ",
                        cfg.obs.statsJsonPath);
            return r;
        }
        writeStatsJson(f, Runner::key(cfg), r, *sys.nets[0],
                       sys.manager(0), queues);
        f.close();
        if (!f)
            memnet_warn("stats JSON write failed (disk full?): ",
                        cfg.obs.statsJsonPath);
    }
    return r;
}

RunResult
runSimulation(const SystemConfig &cfg)
{
    return Simulator(cfg).run();
}

} // namespace memnet
