/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() is for internal invariant violations (simulator bugs); fatal()
 * is for user errors (bad configuration). Both terminate, except that
 * fatal() throws under a ScopedFatalThrows. warn() and inform() only
 * print.
 *
 * Non-fatal output (warn/inform) is routed through a replaceable
 * LogSink so harnesses can capture and assert on it; the default sink
 * writes to stderr.
 *
 * Sink replacement and line delivery are serialized by one process-wide
 * mutex, so concurrent simulation runs (see memnet/parallel.hh) neither
 * interleave within a line nor race a setLogSink() call. A sink
 * installed for a parallel sweep must itself tolerate being called from
 * worker threads.
 */

#ifndef MEMNET_SIM_LOG_HH
#define MEMNET_SIM_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iosfwd>
#include <sstream>
#include <string>

namespace memnet
{

/** Severity of one non-fatal log line. */
enum class LogLevel
{
    Inform, ///< status messages
    Warn,   ///< non-fatal warnings
};

/** Prefix used for a level by the default stderr sink ("warn", ...). */
const char *logLevelName(LogLevel level);

/** Receives every non-fatal log line (message without prefix/newline). */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Replace the process-wide log sink; an empty function restores the
 * default stderr sink. Returns the previous sink (empty when the
 * default was active) so scoped captures can restore it.
 */
LogSink setLogSink(LogSink sink);

/**
 * Close @p os, an output file, and check that everything written to it
 * reached @p path: a full disk often fails only the flush at close.
 * @return false, with the warning "<output> write failed (disk full?):
 * <path>", when it did not.
 */
bool closeOutput(std::ofstream &os, const char *output,
                 const std::string &path);

namespace detail
{

/** Fold any streamable arguments into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    ((os << args), ...);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Deliver one line to the active sink (used by warn/inform). */
void logLine(LogLevel level, const std::string &msg);

/** Test hook: panic/fatal throw std::runtime_error instead of aborting. */
void setThrowOnError(bool enable);

} // namespace detail

/** Whether memnet_fatal throws on the calling thread. */
bool fatalThrows();

/**
 * While alive, memnet_fatal on the constructing thread throws
 * std::runtime_error instead of exiting the process when @p enable
 * (else it exits). ParallelRunner holds one around each config, so a
 * bad config in a sweep becomes a recorded failure; outside a sweep
 * fatal still exits. The partitioned kernel installs the caller's
 * fatalThrows() in each lane thread it starts. Panics (bugs) abort
 * either way.
 */
class ScopedFatalThrows
{
  public:
    explicit ScopedFatalThrows(bool enable = true);
    ~ScopedFatalThrows();
    ScopedFatalThrows(const ScopedFatalThrows &) = delete;
    ScopedFatalThrows &operator=(const ScopedFatalThrows &) = delete;

  private:
    bool prev_;
};

/** Abort on a simulator bug; never a user error. */
#define memnet_panic(...)                                                   \
    ::memnet::detail::panicImpl(                                            \
        __FILE__, __LINE__, ::memnet::detail::formatMessage(__VA_ARGS__))

/** Exit on a user/configuration error. */
#define memnet_fatal(...)                                                   \
    ::memnet::detail::fatalImpl(                                            \
        __FILE__, __LINE__, ::memnet::detail::formatMessage(__VA_ARGS__))

/** Non-fatal warning to stderr. */
#define memnet_warn(...)                                                    \
    ::memnet::detail::warnImpl(::memnet::detail::formatMessage(__VA_ARGS__))

/** Status message to stderr. */
#define memnet_inform(...)                                                  \
    ::memnet::detail::informImpl(                                           \
        ::memnet::detail::formatMessage(__VA_ARGS__))

/** Cheap always-on assertion used for simulator invariants. */
#define memnet_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            memnet_panic("assertion failed: " #cond " ", ##__VA_ARGS__);    \
        }                                                                   \
    } while (0)

} // namespace memnet

#endif // MEMNET_SIM_LOG_HH
