/**
 * @file
 * Component-scoped debug tracing (gem5 DPRINTF-style), layered on the
 * sim/log backend.
 *
 *   MEMNET_TRACE(LinkPM, "link ", id, " slept after ", idle, " ps");
 *   MEMNET_TRACE_V(ISP, 2, "scatter pcs=", pcs);   // verbosity >= 2
 *
 * Filtering is runtime-configurable per component with a verbosity
 * level, via the MEMNET_TRACE environment variable or setTraceSpec():
 *
 *   MEMNET_TRACE="LinkPM"          LinkPM at verbosity 1
 *   MEMNET_TRACE="LinkPM:2,ISP"    LinkPM at 2, ISP at 1
 *   MEMNET_TRACE="all:2"           everything at verbosity 2
 *
 * Output goes through the log sink (see sim/log.hh), so the test
 * harness can capture trace lines like warnings.
 *
 * Cost: a disabled trace point is one relaxed global-array load and a
 * compare; message formatting only happens when the point is enabled.
 * Compiling with -DMEMNET_DEBUG_TRACE=0 removes trace points entirely
 * (release/perf builds); the default build keeps them.
 *
 * This file is part of the observability subsystem (src/obs) but is
 * compiled into the base sim library so that net/, mgmt/, and sim/
 * itself can trace without a dependency cycle.
 */

#ifndef MEMNET_OBS_DEBUG_TRACE_HH
#define MEMNET_OBS_DEBUG_TRACE_HH

#include <atomic>

#include "sim/log.hh"

#ifndef MEMNET_DEBUG_TRACE
#define MEMNET_DEBUG_TRACE 1
#endif

namespace memnet
{
namespace obs
{

/** Traceable components. Keep kTraceCompNames in sync. */
enum class TraceComp : int
{
    Sim,      ///< event queue, fault injector, run phases
    Net,      ///< network routing, modules
    LinkPM,   ///< link power state: sleep/wake/mode/retrain
    Mgmt,     ///< epoch machinery, violations
    ISP,      ///< iterative slowdown propagation detail
    Workload, ///< processor / trace replay
    NumComps,
};

/** Component name as used in trace specs and output prefixes. */
const char *traceCompName(TraceComp c);

/**
 * Configure filtering from a spec string ("LinkPM:2,ISP" or "all").
 * Unknown component names and levels that are not whole numbers >= 0
 * ("LinkPM:x", "LinkPM:1x", "LinkPM:-1") are reported with memnet_warn
 * and their item is skipped. An empty spec disables everything.
 */
void setTraceSpec(const std::string &spec);

/** Current verbosity of @p c (0 = disabled). */
int traceVerbosity(TraceComp c);

namespace detail
{

/** Lazily applies $MEMNET_TRACE once, then answers the level check. */
bool traceEnabledSlow(TraceComp c, int level);

/**
 * Levels are atomics so parallel sweep workers can hit trace points
 * while another thread performs the one-time $MEMNET_TRACE application
 * (or a harness flips a component) without a data race; the disabled
 * fast path stays a single relaxed load.
 */
extern std::atomic<int> traceLevels[static_cast<int>(TraceComp::NumComps)];
extern std::atomic<bool> traceEnvApplied;

inline bool
traceEnabled(TraceComp c, int level)
{
    if (!traceEnvApplied.load(std::memory_order_acquire))
        return traceEnabledSlow(c, level);
    return traceLevels[static_cast<int>(c)].load(
               std::memory_order_relaxed) >= level;
}

void traceEmit(TraceComp c, const std::string &msg);

} // namespace detail

} // namespace obs
} // namespace memnet

#if MEMNET_DEBUG_TRACE

/** Trace at verbosity 1. */
#define MEMNET_TRACE(comp, ...)                                             \
    MEMNET_TRACE_V(comp, 1, __VA_ARGS__)

/** Trace at an explicit verbosity level. */
#define MEMNET_TRACE_V(comp, level, ...)                                    \
    do {                                                                    \
        if (::memnet::obs::detail::traceEnabled(                            \
                ::memnet::obs::TraceComp::comp, (level))) {                 \
            ::memnet::obs::detail::traceEmit(                               \
                ::memnet::obs::TraceComp::comp,                             \
                ::memnet::detail::formatMessage(__VA_ARGS__));              \
        }                                                                   \
    } while (0)

#else

#define MEMNET_TRACE(comp, ...)                                             \
    do {                                                                    \
    } while (0)
#define MEMNET_TRACE_V(comp, level, ...)                                    \
    do {                                                                    \
    } while (0)

#endif // MEMNET_DEBUG_TRACE

#endif // MEMNET_OBS_DEBUG_TRACE_HH
