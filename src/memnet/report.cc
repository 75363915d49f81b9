#include "memnet/report.hh"

#include <algorithm>
#include <cstdio>

#include "memnet/experiment.hh"

namespace memnet
{

void
printRunSummary(const RunResult &r)
{
    std::printf("run: %s\n", r.config.describe().c_str());
    std::printf("  modules: %d   network power: %.2f W "
                "(%.2f W per HMC, %.0f%% idle I/O)\n",
                r.numModules, r.totalNetworkPowerW, r.perHmc.totalW(),
                r.idleIoFrac * 100);
    std::printf("  throughput: %.1f M reads/s   avg read latency: "
                "%.0f ns\n",
                r.readsPerSec / 1e6, r.avgReadLatencyNs);
    std::printf("  channel util: %.0f%%   avg link util: %.0f%%   "
                "modules/access: %.2f\n",
                r.channelUtil * 100, r.avgLinkUtil * 100,
                r.avgModulesTraversed);
    if (r.latency.enabled && r.latency.endToEnd.samples) {
        const LatencyBreakdown &lat = r.latency;
        auto ns = [](std::uint64_t ps) {
            return static_cast<double>(ps) / 1e3;
        };
        std::printf("  latency: p50 %.1f ns  p99 %.1f ns  p999 %.1f ns"
                    "  max %.1f ns (%llu reads)\n",
                    ns(lat.endToEnd.p50Ps), ns(lat.endToEnd.p99Ps),
                    ns(lat.endToEnd.p999Ps), ns(lat.endToEnd.maxPs),
                    static_cast<unsigned long long>(
                        lat.endToEnd.samples));
        const double total =
            static_cast<double>(lat.endToEnd.sumPs);
        if (total > 0) {
            auto share = [total](std::uint64_t sum) {
                return 100.0 * static_cast<double>(sum) / total;
            };
            std::printf("  breakdown: queue %.1f%%  wake stall %.1f%%  "
                        "retrain stall %.1f%%  ser %.1f%%  dram %.1f%%\n",
                        share(lat.queue.sumPs),
                        share(lat.wakeStall.sumPs),
                        share(lat.retrainStall.sumPs),
                        share(lat.serialization.sumPs),
                        share(lat.dram.sumPs));
        }
    }
    if (r.energy.enabled && r.energy.attribution.totalJ() > 0) {
        const EnergyAttribution &ea = r.energy.attribution;
        const double total = ea.totalJ();
        auto share = [total](double j) { return 100.0 * j / total; };
        std::printf("  energy: %.4f J — tx %.1f%%  idle floor %.1f%%  "
                    "sleep %.1f%%  wake %.1f%%  retrain %.1f%%\n",
                    total, share(ea.txJ), share(ea.idleFloorJ()),
                    share(ea.sleepJ), share(ea.wakeJ),
                    share(ea.retrainJ));
        std::printf("    module causes: serdes leak %.1f%%  router "
                    "%.1f%%  dram leak %.1f%%  dram dyn %.1f%%   "
                    "occupancy p99: %llu pkts\n",
                    share(ea.serdesLeakJ), share(ea.routerJ),
                    share(ea.dramLeakJ), share(ea.dramDynJ),
                    static_cast<unsigned long long>(
                        r.energy.occupancy.p99Ps));
    }
    if (r.violations)
        std::printf("  AMS violations: %llu\n",
                    static_cast<unsigned long long>(r.violations));
    if (r.reliability.any()) {
        const ReliabilityStats &rel = r.reliability;
        std::printf("  reliability: %llu CRC retries, %llu replays, "
                    "%llu retrains (%.1f us), %.1f us degraded, "
                    "%llu fault events\n",
                    static_cast<unsigned long long>(rel.retries),
                    static_cast<unsigned long long>(rel.replays),
                    static_cast<unsigned long long>(rel.retrains),
                    rel.retrainSeconds * 1e6,
                    rel.degradedSeconds * 1e6,
                    static_cast<unsigned long long>(rel.faultEvents));
    }
    if (r.profile.eventsFired) {
        const RunProfile &p = r.profile;
        std::printf("  profile: %llu events (%llu scheduled) in "
                    "%.2f s wall, %.2f M events/s, %.1f us simulated "
                    "per wall second\n",
                    static_cast<unsigned long long>(p.eventsFired),
                    static_cast<unsigned long long>(p.eventsScheduled),
                    p.wallSeconds, p.eventsPerSec() / 1e6,
                    p.simRate() * 1e6);
        // Memory-pressure high-water marks, visible without
        // --stats-json: the pool's peak live-packet count and the
        // event queue's peak pending depth.
        std::printf("  peaks: packet pool %llu packets, event queue "
                    "%llu pending\n",
                    static_cast<unsigned long long>(p.packetHeapAllocs),
                    static_cast<unsigned long long>(p.peakQueueDepth));
        if (p.packetsIssued) {
            std::printf("  packets: %llu issued, %llu pooled "
                        "(%llu heap allocations avoided)\n",
                        static_cast<unsigned long long>(p.packetsIssued),
                        static_cast<unsigned long long>(
                            p.packetHeapAllocs),
                        static_cast<unsigned long long>(
                            p.packetAllocsAvoided()));
        }
        if (p.peakQueueDepth) {
            std::printf("  event queue: peak depth %llu, %llu "
                        "descheduled\n",
                        static_cast<unsigned long long>(p.peakQueueDepth),
                        static_cast<unsigned long long>(
                            p.eventsDescheduled));
        }
        if (!p.profPhases.empty()) {
            // Rank by self time (inclusive minus direct children), so
            // a parent whose time is all in one child doesn't shadow
            // it.
            std::vector<prof::ProfPhase> rows = p.profPhases;
            for (prof::ProfPhase &ph : rows) {
                std::uint64_t kids = 0;
                for (const prof::ProfPhase &c : p.profPhases) {
                    if (c.path.size() > ph.path.size() + 1 &&
                        c.path.compare(0, ph.path.size(), ph.path) ==
                            0 &&
                        c.path[ph.path.size()] == ';' &&
                        c.path.find(';', ph.path.size() + 1) ==
                            std::string::npos)
                        kids += c.ns;
                }
                ph.ns = ph.ns > kids ? ph.ns - kids : 0;
            }
            std::sort(rows.begin(), rows.end(),
                      [](const prof::ProfPhase &a,
                         const prof::ProfPhase &b) {
                          return a.ns > b.ns;
                      });
            std::printf("  host phases (self time):");
            int shown = 0;
            for (const prof::ProfPhase &ph : rows) {
                if (!ph.ns)
                    break;
                std::printf("%s %s %.2f ms", shown ? "," : "",
                            ph.path.c_str(),
                            static_cast<double>(ph.ns) / 1e6);
                if (++shown == 4)
                    break;
            }
            std::printf("\n");
        }
    }
}

SeedProfileSummary
summarizeSeedProfiles(const std::vector<const RunResult *> &runs)
{
    SeedProfileSummary s;
    std::vector<double> rates;
    for (const RunResult *r : runs) {
        if (!r)
            continue;
        ++s.runs;
        rates.push_back(r->profile.eventsPerSec());
        s.totalWallSeconds += r->profile.wallSeconds;
        s.totalEventsFired += r->profile.eventsFired;
    }
    if (rates.empty())
        return s;
    std::sort(rates.begin(), rates.end());
    s.minEventsPerSec = rates.front();
    s.maxEventsPerSec = rates.back();
    const std::size_t n = rates.size();
    s.medianEventsPerSec = n % 2 ? rates[n / 2]
                                 : 0.5 * (rates[n / 2 - 1] +
                                          rates[n / 2]);
    return s;
}

void
printSeedProfileSummary(const SeedProfileSummary &s)
{
    if (!s.runs)
        return;
    std::printf("profile over %d runs: %.2f/%.2f/%.2f M events/s "
                "(min/median/max), %llu events in %.2f s wall total\n",
                s.runs, s.minEventsPerSec / 1e6,
                s.medianEventsPerSec / 1e6, s.maxEventsPerSec / 1e6,
                static_cast<unsigned long long>(s.totalEventsFired),
                s.totalWallSeconds);
}

void
printModuleReport(const RunResult &r)
{
    TextTable t({"module", "radix", "hops", "DRAM accesses",
                 "flits routed", "req util", "resp util", "req power",
                 "resp power"});
    for (const ModuleDetail &m : r.modules) {
        t.addRow({std::to_string(m.id), m.highRadix ? "high" : "low",
                  std::to_string(m.hopDistance),
                  std::to_string(m.dramAccesses),
                  std::to_string(m.flitsRouted),
                  TextTable::pct(m.requestLinkUtil),
                  TextTable::pct(m.responseLinkUtil),
                  TextTable::pct(m.requestLinkPowerFrac, 0),
                  TextTable::pct(m.responseLinkPowerFrac, 0)});
    }
    t.print();
}

void
printPowerBreakdown(const RunResult &r)
{
    TextTable t({"component", "W per HMC", "share"});
    const double total = r.perHmc.totalW();
    auto row = [&](const char *name, double w) {
        t.addRow({name, TextTable::fmt(w),
                  TextTable::pct(total > 0 ? w / total : 0)});
    };
    row("Idle I/O", r.perHmc.idleIoW);
    row("Active I/O", r.perHmc.activeIoW);
    row("Logic leakage", r.perHmc.logicLeakW);
    row("Logic dynamic", r.perHmc.logicDynW);
    row("DRAM leakage", r.perHmc.dramLeakW);
    row("DRAM dynamic", r.perHmc.dramDynW);
    row("total", total);
    t.print();
}

void
printLinkHours(const RunResult &r)
{
    double total = 0;
    for (const auto &bucket : r.linkHours)
        for (double v : bucket)
            total += v;
    if (total <= 0) {
        std::printf("(no link-hour data)\n");
        return;
    }
    TextTable t({"utilization", "16 lanes", "8 lanes", "4 lanes",
                 "1 lane"});
    for (int b = 0; b < kUtilBuckets; ++b) {
        std::vector<std::string> row = {kUtilBucketNames[b]};
        for (int l = 0; l < kLaneModes; ++l)
            row.push_back(TextTable::pct(r.linkHours[b][l] / total));
        t.addRow(row);
    }
    t.print();
}

} // namespace memnet
