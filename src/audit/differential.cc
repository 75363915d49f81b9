#include "audit/differential.hh"

#include <cmath>
#include <sstream>

namespace memnet
{
namespace audit
{

namespace
{

class Differ
{
  public:
    explicit Differ(const DiffOptions &opts) : opts(opts) {}

    void
    field(const std::string &name, double a, double b)
    {
        if (opts.relTol <= 0.0) {
            if (a == b)
                return;
        } else {
            const double scale =
                std::max(std::fabs(a), std::fabs(b));
            if (std::fabs(a - b) <= opts.relTol * scale)
                return;
        }
        out.push_back(DiffEntry{name, a, b});
    }

    void
    field(const std::string &name, std::uint64_t a, std::uint64_t b)
    {
        if (a != b)
            out.push_back(DiffEntry{name, static_cast<double>(a),
                                    static_cast<double>(b)});
    }

    std::vector<DiffEntry> take() { return std::move(out); }

  private:
    const DiffOptions opts;
    std::vector<DiffEntry> out;
};

void
diffPower(Differ &d, const std::string &prefix, const PowerBreakdown &a,
          const PowerBreakdown &b)
{
    d.field(prefix + ".idleIoW", a.idleIoW, b.idleIoW);
    d.field(prefix + ".activeIoW", a.activeIoW, b.activeIoW);
    d.field(prefix + ".logicLeakW", a.logicLeakW, b.logicLeakW);
    d.field(prefix + ".logicDynW", a.logicDynW, b.logicDynW);
    d.field(prefix + ".dramLeakW", a.dramLeakW, b.dramLeakW);
    d.field(prefix + ".dramDynW", a.dramDynW, b.dramDynW);
}

void
diffPercentiles(Differ &d, const std::string &prefix,
                const LatencyPercentiles &a, const LatencyPercentiles &b)
{
    d.field(prefix + ".samples", a.samples, b.samples);
    d.field(prefix + ".sumPs", a.sumPs, b.sumPs);
    d.field(prefix + ".p50Ps", a.p50Ps, b.p50Ps);
    d.field(prefix + ".p90Ps", a.p90Ps, b.p90Ps);
    d.field(prefix + ".p99Ps", a.p99Ps, b.p99Ps);
    d.field(prefix + ".p999Ps", a.p999Ps, b.p999Ps);
    d.field(prefix + ".maxPs", a.maxPs, b.maxPs);
}

} // namespace

std::vector<DiffEntry>
diffRunResults(const RunResult &a, const RunResult &b,
               const DiffOptions &opts)
{
    Differ d(opts);
    d.field("numModules", static_cast<std::uint64_t>(a.numModules),
            static_cast<std::uint64_t>(b.numModules));
    diffPower(d, "perHmc", a.perHmc, b.perHmc);
    d.field("totalNetworkPowerW", a.totalNetworkPowerW,
            b.totalNetworkPowerW);
    d.field("idleIoFrac", a.idleIoFrac, b.idleIoFrac);
    d.field("readsPerSec", a.readsPerSec, b.readsPerSec);
    d.field("avgReadLatencyNs", a.avgReadLatencyNs, b.avgReadLatencyNs);
    d.field("channelUtil", a.channelUtil, b.channelUtil);
    d.field("avgLinkUtil", a.avgLinkUtil, b.avgLinkUtil);
    d.field("avgModulesTraversed", a.avgModulesTraversed,
            b.avgModulesTraversed);
    d.field("completedReads", a.completedReads, b.completedReads);
    d.field("violations", a.violations, b.violations);

    // RunProfile: the simulation-determined counters must match; the
    // wall-clock fields (wallSeconds, eventsPerSec, profPhases) are
    // deliberately NOT compared — profiled runs diff clean against
    // unprofiled ones. Event-count and queue-shape counters are only
    // compared between runs of the same kernel layout: a partitioned
    // run replays boundary crossings through pipe events the serial
    // kernel doesn't have, so its event stream is a strict superset
    // even when every simulated result above is bit-identical.
    if (a.profile.partitions == b.profile.partitions) {
        d.field("eventsFired", a.eventsFired, b.eventsFired);
        d.field("profile.eventsScheduled", a.profile.eventsScheduled,
                b.profile.eventsScheduled);
        d.field("profile.eventsDescheduled",
                a.profile.eventsDescheduled,
                b.profile.eventsDescheduled);
        d.field("profile.peakQueueDepth", a.profile.peakQueueDepth,
                b.profile.peakQueueDepth);
        d.field("profile.dispatchWindows.size",
                static_cast<std::uint64_t>(
                    a.profile.dispatchWindows.size()),
                static_cast<std::uint64_t>(
                    b.profile.dispatchWindows.size()));
        const std::size_t nw =
            std::min(a.profile.dispatchWindows.size(),
                     b.profile.dispatchWindows.size());
        for (std::size_t wdx = 0; wdx < nw; ++wdx) {
            std::ostringstream name;
            name << "profile.dispatchWindows[" << wdx << "]";
            d.field(name.str(), a.profile.dispatchWindows[wdx],
                    b.profile.dispatchWindows[wdx]);
        }
    }
    d.field("profile.packetsIssued", a.profile.packetsIssued,
            b.profile.packetsIssued);

    d.field("reliability.retries", a.reliability.retries,
            b.reliability.retries);
    d.field("reliability.replays", a.reliability.replays,
            b.reliability.replays);
    d.field("reliability.retrains", a.reliability.retrains,
            b.reliability.retrains);
    d.field("reliability.retrainSeconds", a.reliability.retrainSeconds,
            b.reliability.retrainSeconds);
    d.field("reliability.degradedSeconds",
            a.reliability.degradedSeconds,
            b.reliability.degradedSeconds);
    d.field("reliability.faultEvents", a.reliability.faultEvents,
            b.reliability.faultEvents);

    // An observatory is absent only from records loaded from journals
    // written before it existed; there is nothing to compare then.
    if (a.latency.enabled && b.latency.enabled) {
        const LatencyBreakdown &la = a.latency;
        const LatencyBreakdown &lb = b.latency;
        diffPercentiles(d, "latency.endToEnd", la.endToEnd, lb.endToEnd);
        diffPercentiles(d, "latency.queue", la.queue, lb.queue);
        diffPercentiles(d, "latency.wakeStall", la.wakeStall, lb.wakeStall);
        diffPercentiles(d, "latency.retrainStall", la.retrainStall,
                        lb.retrainStall);
        diffPercentiles(d, "latency.serialization", la.serialization,
                        lb.serialization);
        diffPercentiles(d, "latency.dram", la.dram, lb.dram);
        d.field("latency.wakeStallSeconds", la.wakeStallSeconds,
                lb.wakeStallSeconds);
        d.field("latency.retrainStallSeconds", la.retrainStallSeconds,
                lb.retrainStallSeconds);
        d.field("latency.queuePeak", la.queuePeak, lb.queuePeak);
    }
    if (a.energy.enabled && b.energy.enabled) {
        const EnergyAttribution &ea = a.energy.attribution;
        const EnergyAttribution &eb = b.energy.attribution;
        d.field("energy.txJ", ea.txJ, eb.txJ);
        d.field("energy.retrainJ", ea.retrainJ, eb.retrainJ);
        for (std::size_t i = 0; i < ea.idleModeJ.size(); ++i)
            d.field("energy.idleModeJ[" + std::to_string(i) + "]",
                    ea.idleModeJ[i], eb.idleModeJ[i]);
        d.field("energy.sleepJ", ea.sleepJ, eb.sleepJ);
        d.field("energy.wakeJ", ea.wakeJ, eb.wakeJ);
        d.field("energy.serdesLeakJ", ea.serdesLeakJ, eb.serdesLeakJ);
        d.field("energy.routerJ", ea.routerJ, eb.routerJ);
        d.field("energy.dramLeakJ", ea.dramLeakJ, eb.dramLeakJ);
        d.field("energy.dramDynJ", ea.dramDynJ, eb.dramDynJ);
        d.field("energy.idleIoJ", ea.idleIoJ, eb.idleIoJ);
        d.field("energy.activeIoJ", ea.activeIoJ, eb.activeIoJ);
        diffPercentiles(d, "energy.utilization", a.energy.utilization,
                        b.energy.utilization);
        diffPercentiles(d, "energy.occupancy", a.energy.occupancy,
                        b.energy.occupancy);
    }

    for (int u = 0; u < kUtilBuckets; ++u) {
        for (int l = 0; l < kLaneModes; ++l) {
            std::ostringstream name;
            name << "linkHours[" << u << "][" << l << "]";
            d.field(name.str(), a.linkHours[u][l], b.linkHours[u][l]);
        }
    }

    d.field("modules.size",
            static_cast<std::uint64_t>(a.modules.size()),
            static_cast<std::uint64_t>(b.modules.size()));
    const std::size_t n = std::min(a.modules.size(), b.modules.size());
    for (std::size_t m = 0; m < n; ++m) {
        const ModuleDetail &ma = a.modules[m];
        const ModuleDetail &mb = b.modules[m];
        std::ostringstream p;
        p << "modules[" << m << "]";
        d.field(p.str() + ".dramAccesses", ma.dramAccesses,
                mb.dramAccesses);
        d.field(p.str() + ".flitsRouted", ma.flitsRouted,
                mb.flitsRouted);
        d.field(p.str() + ".requestLinkUtil", ma.requestLinkUtil,
                mb.requestLinkUtil);
        d.field(p.str() + ".responseLinkUtil", ma.responseLinkUtil,
                mb.responseLinkUtil);
        d.field(p.str() + ".requestLinkPowerFrac",
                ma.requestLinkPowerFrac, mb.requestLinkPowerFrac);
        d.field(p.str() + ".responseLinkPowerFrac",
                ma.responseLinkPowerFrac, mb.responseLinkPowerFrac);
    }
    return d.take();
}

std::vector<DiffEntry>
diffResultMaps(const std::map<std::string, RunResult> &a,
               const std::map<std::string, RunResult> &b,
               const DiffOptions &opts)
{
    std::vector<DiffEntry> out;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() || ib != b.end()) {
        if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
            out.push_back(DiffEntry{"only_in_a:" + ia->first, 1.0, 0.0});
            ++ia;
        } else if (ia == a.end() || ib->first < ia->first) {
            out.push_back(DiffEntry{"only_in_b:" + ib->first, 0.0, 1.0});
            ++ib;
        } else {
            for (DiffEntry &e :
                 diffRunResults(ia->second, ib->second, opts)) {
                e.field = ia->first + ": " + e.field;
                out.push_back(std::move(e));
            }
            ++ia;
            ++ib;
        }
    }
    return out;
}

std::vector<DiffEntry>
diffMultiVsSingle(const MultiChannelResult &mc, const RunResult &r,
                  const DiffOptions &opts)
{
    Differ d(opts);
    d.field("totalModules",
            static_cast<std::uint64_t>(mc.totalModules),
            static_cast<std::uint64_t>(r.numModules));
    d.field("totalPowerW", mc.totalPowerW, r.totalNetworkPowerW);
    d.field("readsPerSec", mc.readsPerSec, r.readsPerSec);
    d.field("idleIoFrac", mc.idleIoFrac, r.idleIoFrac);
    if (!mc.channelUtil.empty())
        d.field("channelUtil", mc.channelUtil[0], r.channelUtil);
    return d.take();
}

std::string
describeDiffs(const std::vector<DiffEntry> &diffs)
{
    if (diffs.empty())
        return "";
    std::ostringstream os;
    os.precision(17);
    for (const DiffEntry &e : diffs)
        os << e.field << ": " << e.a << " != " << e.b << "\n";
    return os.str();
}

} // namespace audit
} // namespace memnet
