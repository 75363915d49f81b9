#include "sim/log.hh"

#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace memnet
{

namespace
{

/** Active sink for non-fatal lines; empty means "default stderr". */
LogSink activeSink;

/**
 * Serializes sink replacement and delivery so concurrent simulation
 * runs (ParallelRunner workers) can't interleave lines or race a
 * replacement mid-call. Recursive so a sink that itself warns (e.g. a
 * capturing harness hitting an unexpected condition) doesn't deadlock.
 */
std::recursive_mutex &
logMutex()
{
    static std::recursive_mutex m;
    return m;
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform:
        return "info";
      case LogLevel::Warn:
        return "warn";
    }
    return "log";
}

LogSink
setLogSink(LogSink sink)
{
    std::lock_guard<std::recursive_mutex> lock(logMutex());
    LogSink prev = std::move(activeSink);
    activeSink = std::move(sink);
    return prev;
}

bool
closeOutput(std::ofstream &os, const char *output, const std::string &path)
{
    os.close();
    if (os)
        return true;
    memnet_warn(output, " write failed (disk full?): ", path);
    return false;
}

namespace detail
{

namespace
{

/**
 * Thrown by panic/fatal in unit tests instead of aborting the process.
 * Production binaries never enable this.
 */
bool throwOnError = false;

/** Set on a thread while a ScopedFatalThrows lives there. */
thread_local bool threadFatalThrows = false;

} // namespace

/** Test hook: make panic/fatal throw std::runtime_error instead. */
void
setThrowOnError(bool enable)
{
    throwOnError = enable;
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    if (throwOnError)
        throw std::runtime_error("panic: " + msg);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    if (throwOnError || threadFatalThrows)
        throw std::runtime_error("fatal: " + msg);
    std::exit(1);
}

void
logLine(LogLevel level, const std::string &msg)
{
    // Delivery happens under the lock: a sink is never invoked
    // concurrently with itself or with its own replacement.
    std::lock_guard<std::recursive_mutex> lock(logMutex());
    if (activeSink) {
        activeSink(level, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n", logLevelName(level), msg.c_str());
}

void
warnImpl(const std::string &msg)
{
    logLine(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    logLine(LogLevel::Inform, msg);
}

} // namespace detail

bool
fatalThrows()
{
    return detail::threadFatalThrows;
}

ScopedFatalThrows::ScopedFatalThrows(bool enable)
    : prev_(detail::threadFatalThrows)
{
    detail::threadFatalThrows = enable;
}

ScopedFatalThrows::~ScopedFatalThrows()
{
    detail::threadFatalThrows = prev_;
}

} // namespace memnet
