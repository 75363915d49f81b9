/**
 * @file
 * Plain-data observability options, embeddable in SystemConfig without
 * pulling any of the obs machinery into the public config header.
 *
 * Everything defaults to off. An empty path disables the corresponding
 * output; with all outputs disabled no observability object is even
 * constructed, so a disabled run is bit-identical to a build without
 * the subsystem.
 *
 * None of these fields participate in Runner's memoization key: they
 * affect only what is written to disk, never the simulation itself.
 */

#ifndef MEMNET_OBS_OPTIONS_HH
#define MEMNET_OBS_OPTIONS_HH

#include <string>

namespace memnet
{

struct ObsOptions
{
    /**
     * Write the run's stats dump here at end of run: its bench JSON
     * record plus the end-of-run component counters (writeStatsJson).
     */
    std::string statsJsonPath;

    /** Stream one JSON object per management epoch (JSONL) here. */
    std::string epochJsonlPath;

    /** Write a Chrome trace-event file (chrome://tracing, Perfetto). */
    std::string chromeTracePath;

    /**
     * Debug-trace spec applied at run start (see obs/debug_trace.hh),
     * e.g. "LinkPM:2,ISP". Empty leaves the MEMNET_TRACE env in charge.
     */
    std::string traceSpec;

    /** True when the obs hub has a file to write (not the stats dump). */
    bool
    active() const
    {
        return !epochJsonlPath.empty() || !chromeTracePath.empty();
    }
};

} // namespace memnet

#endif // MEMNET_OBS_OPTIONS_HH
