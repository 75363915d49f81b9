/**
 * @file
 * Human-readable run reports built from RunResult, used by the example
 * applications and handy for downstream users exploring a design.
 */

#ifndef MEMNET_MEMNET_REPORT_HH
#define MEMNET_MEMNET_REPORT_HH

#include <vector>

#include "memnet/config.hh"

namespace memnet
{

/** One-paragraph summary: power, performance, utilization. */
void printRunSummary(const RunResult &r);

/** Per-module table: radix, hops, traffic, link state. */
void printModuleReport(const RunResult &r);

/** Figure-5-style component breakdown of one run. */
void printPowerBreakdown(const RunResult &r);

/** The Figure-13-style link-hours matrix of one run. */
void printLinkHours(const RunResult &r);

/**
 * Wall-clock profile aggregated over seed replicas: the spread of the
 * per-run event rates plus the totals, so a --seeds sweep reports all
 * of its runs instead of just the last one.
 */
struct SeedProfileSummary
{
    int runs = 0;
    double minEventsPerSec = 0.0;
    double medianEventsPerSec = 0.0;
    double maxEventsPerSec = 0.0;
    double totalWallSeconds = 0.0;
    std::uint64_t totalEventsFired = 0;
};

SeedProfileSummary
summarizeSeedProfiles(const std::vector<const RunResult *> &runs);

/** One-line rendering of a SeedProfileSummary. */
void printSeedProfileSummary(const SeedProfileSummary &s);

} // namespace memnet

#endif // MEMNET_MEMNET_REPORT_HH
