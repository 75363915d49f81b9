#include "obs/debug_trace.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <system_error>

namespace memnet
{
namespace obs
{

namespace
{

const char *const kTraceCompNames[] = {
    "Sim", "Net", "LinkPM", "Mgmt", "ISP", "Workload",
};

static_assert(sizeof(kTraceCompNames) / sizeof(kTraceCompNames[0]) ==
                  static_cast<std::size_t>(TraceComp::NumComps),
              "trace component names out of sync");

/** Case-insensitive component lookup; -1 when unknown. */
int
compByName(const std::string &name)
{
    for (int i = 0; i < static_cast<int>(TraceComp::NumComps); ++i) {
        const char *n = kTraceCompNames[i];
        if (name.size() != std::strlen(n))
            continue;
        bool eq = true;
        for (std::size_t k = 0; k < name.size(); ++k) {
            if (std::tolower(static_cast<unsigned char>(name[k])) !=
                std::tolower(static_cast<unsigned char>(n[k]))) {
                eq = false;
                break;
            }
        }
        if (eq)
            return i;
    }
    return -1;
}

/** Guards the one-time env application and spec rewrites. */
std::mutex &
traceConfigMutex()
{
    static std::mutex m;
    return m;
}

/** Parse and apply a spec; caller holds traceConfigMutex(). */
void
applySpecLocked(const std::string &spec)
{
    for (auto &l : detail::traceLevels)
        l.store(0, std::memory_order_relaxed);

    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        int level = 1;
        const std::size_t colon = item.find(':');
        if (colon != std::string::npos) {
            const char *first = item.data() + colon + 1;
            const char *last = item.data() + item.size();
            const auto [ptr, ec] = std::from_chars(first, last, level);
            if (first == last || ec != std::errc() || ptr != last ||
                level < 0) {
                memnet_warn("bad trace level in trace spec item '", item,
                            "' (want a whole number >= 0)");
                continue;
            }
            item.resize(colon);
        }

        if (item == "all" || item == "ALL" || item == "All") {
            for (auto &l : detail::traceLevels)
                l.store(level, std::memory_order_relaxed);
            continue;
        }
        const int c = compByName(item);
        if (c < 0) {
            memnet_warn("unknown trace component '", item,
                        "' in trace spec (known: Sim, Net, LinkPM, "
                        "Mgmt, ISP, Workload, all)");
            continue;
        }
        detail::traceLevels[c].store(level, std::memory_order_relaxed);
    }
}

} // namespace

namespace detail
{

std::atomic<int> traceLevels[static_cast<int>(TraceComp::NumComps)] = {};
std::atomic<bool> traceEnvApplied{false};

bool
traceEnabledSlow(TraceComp c, int level)
{
    // First trace point reached: apply $MEMNET_TRACE exactly once
    // (unless setTraceSpec() already configured us explicitly). The
    // mutex makes concurrent first trace points from parallel sweep
    // workers apply the env exactly once.
    {
        std::lock_guard<std::mutex> lock(traceConfigMutex());
        if (!traceEnvApplied.load(std::memory_order_relaxed)) {
            if (const char *env = std::getenv("MEMNET_TRACE"))
                applySpecLocked(env);
            traceEnvApplied.store(true, std::memory_order_release);
        }
    }
    return traceLevels[static_cast<int>(c)].load(
               std::memory_order_relaxed) >= level;
}

void
traceEmit(TraceComp c, const std::string &msg)
{
    ::memnet::detail::logLine(LogLevel::Trace,
                              std::string(traceCompName(c)) + ": " + msg);
}

} // namespace detail

const char *
traceCompName(TraceComp c)
{
    return kTraceCompNames[static_cast<int>(c)];
}

int
traceVerbosity(TraceComp c)
{
    return detail::traceLevels[static_cast<int>(c)].load(
        std::memory_order_relaxed);
}

void
setTraceSpec(const std::string &spec)
{
    // Explicit configuration wins over (and suppresses) the env var.
    std::lock_guard<std::mutex> lock(traceConfigMutex());
    detail::traceEnvApplied.store(true, std::memory_order_release);
    applySpecLocked(spec);
}

} // namespace obs
} // namespace memnet
