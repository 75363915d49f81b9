#include "memnet/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "obs/prof.hh"
#include "sim/cancel.hh"
#include "sim/log.hh"

namespace memnet
{

int
resolveJobs(int jobs)
{
    if (jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }
    return jobs < 1 ? 1 : jobs;
}

void
forEachChunk(std::size_t chunks, int threads,
             const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorMu;
    const auto work = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < chunks;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };
    const std::size_t n = std::min<std::size_t>(resolveJobs(threads), chunks);
    std::vector<std::thread> helpers;
    helpers.reserve(n);
    for (std::size_t t = 1; t < n; ++t) {
        try {
            helpers.emplace_back(work);
        } catch (const std::system_error &) {
            break; // the threads already running take the rest
        }
    }
    work();
    for (std::thread &th : helpers)
        th.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

ParallelRunner::ParallelRunner(Runner &runner, int jobs)
    : runner_(runner), jobs_(resolveJobs(jobs))
{
}

namespace
{

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The steady-clock tick @p seconds after @p startNs, saturating at
 * the largest tick: a huge budget must never wrap into the past and
 * kill the config at its first poll.
 */
std::int64_t
deadlineAfter(std::int64_t startNs, double seconds)
{
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    const double budgetNs = seconds * 1e9;
    if (!(budgetNs < 9e18)) // 285 years; also nan
        return kNever;
    const auto budget = static_cast<std::int64_t>(budgetNs);
    return startNs > kNever - budget ? kNever : startNs + budget;
}

/**
 * The hang watchdog of one ParallelRunner::run call: a cancel flag and
 * a deadline per config, and a monitor thread that raises a config's
 * flag once its deadline passes. deadlineNs == 0 means the config is
 * not running. Destruction stops and joins the monitor.
 */
class Watchdog
{
  public:
    Watchdog(std::size_t configs, double budgetSec)
        : budgetSec_(budgetSec), slots_(configs)
    {
        // The monitor wakes often enough that a budget overrun is
        // bounded by ~1/8 of the budget (floor 2 ms so tiny test
        // budgets still trip promptly, ceiling 100 ms to keep the
        // thread near-idle).
        const auto interval = std::chrono::milliseconds(
            static_cast<std::int64_t>(
                std::clamp(budgetSec * 1e3 / 8, 2.0, 100.0)));
        monitor_ = std::thread([this, interval] {
            std::unique_lock<std::mutex> lock(mu_);
            while (!cv_.wait_for(lock, interval, [this] { return done_; })) {
                const std::int64_t now = steadyNowNs();
                for (Slot &s : slots_) {
                    const std::int64_t deadline =
                        s.deadlineNs.load(std::memory_order_acquire);
                    if (deadline != 0 && now >= deadline)
                        s.cancel.store(true, std::memory_order_relaxed);
                }
            }
        });
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        monitor_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Start config @p i's budget at @p startNs; @return its flag. */
    const std::atomic<bool> *
    arm(std::size_t i, std::int64_t startNs)
    {
        slots_[i].deadlineNs.store(deadlineAfter(startNs, budgetSec_),
                                   std::memory_order_release);
        return &slots_[i].cancel;
    }

    /** Config @p i finished: stop watching it. */
    void
    disarm(std::size_t i)
    {
        slots_[i].deadlineNs.store(0, std::memory_order_release);
    }

  private:
    struct Slot
    {
        std::atomic<bool> cancel{false};
        std::atomic<std::int64_t> deadlineNs{0};
    };

    double budgetSec_;
    std::vector<Slot> slots_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread monitor_;
};

} // namespace

void
ParallelRunner::run(const std::vector<SystemConfig> &configs)
{
    if (configs.empty())
        return;

    std::optional<Watchdog> watchdog;
    if (configTimeoutSec_ > 0.0)
        watchdog.emplace(configs.size(), configTimeoutSec_);
    std::mutex failuresMu;

    // Configs are claimed one at a time from a shared index: they vary
    // wildly in cost (size class x simulated time), so static
    // partitioning would leave threads idle behind the slowest shard.
    forEachChunk(configs.size(), jobs_, [&](std::size_t i) {
        const SystemConfig &cfg = configs[i];
        const std::int64_t startNs = steadyNowNs();
        // Without a watchdog the thread keeps the flag it has.
        const ScopedCancelFlag scoped(watchdog ? watchdog->arm(i, startNs)
                                               : cancelFlag());
        const auto fail = [&](const std::string &message, bool timeout) {
            const double wall =
                static_cast<double>(steadyNowNs() - startNs) / 1e9;
            runner_.markFailed(cfg);
            std::lock_guard<std::mutex> lock(failuresMu);
            failures_.push_back(
                {cfg, Runner::key(cfg), message, timeout, wall});
        };
        try {
            const ScopedFatalThrows scopedFatal;
            runner_.get(cfg);
        } catch (const CancelledError &e) {
            fail(e.what(), true);
        } catch (const std::exception &e) {
            fail(e.what(), false);
        } catch (...) {
            fail("unknown exception", false);
        }
        if (watchdog)
            watchdog->disarm(i);
    });

    std::sort(failures_.begin(), failures_.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  return a.key < b.key;
              });
}

void
applyRunEnvironment(const char *simUs, const char *audit,
                    std::span<SystemConfig> configs)
{
    const std::string window = simUs ? simUs : "";
    const std::string audited = audit ? audit : "";
    long v = 0;
    // At most half the tick range, so warmup + measure cannot overflow.
    if (!window.empty() &&
        (!parseNumber(window, &v) || v <= 0 || v > kTickMax / us(2)))
        throw std::invalid_argument(
            "MEMNET_SIM_US='" + window +
            "' is not a positive whole number of microseconds");
    if (!audited.empty() && audited != "0" && audited != "1")
        throw std::invalid_argument("MEMNET_AUDIT='" + audited +
                                    "' is not 0 or 1");
    for (SystemConfig &cfg : configs) {
        if (!window.empty())
            cfg.measure = us(v);
        cfg.audit = cfg.audit || audited == "1";
    }
}

const char *
SweepOptions::usage()
{
    return "[--jobs <n>] [--profile <path>] [--journal <path>] "
           "[--resume <path>] [--config-timeout <seconds>] "
           "[--failure-manifest <path>]";
}

bool
SweepOptions::parseFlag(int argc, char **argv, int &i, std::string *err)
{
    const std::string flag = argv[i];
    std::string *path = flag == "--profile"            ? &profilePath
                        : flag == "--journal"          ? &journalPath
                        : flag == "--resume"           ? &resumePath
                        : flag == "--failure-manifest" ? &manifestPath
                                                       : nullptr;
    if (!path && flag != "--jobs" && flag != "--config-timeout")
        return false;
    if (i + 1 >= argc) {
        *err = "missing value for " + flag;
        return true;
    }
    const std::string value = argv[++i];
    if (path) {
        *path = value;
    } else if (flag == "--jobs") {
        if (!parseNumber(value, &jobs))
            *err = "bad --jobs value: '" + value + "'";
    } else if (!parseNumber(value, &configTimeoutSec) ||
               configTimeoutSec < 0.0) {
        *err = "--config-timeout must be finite seconds >= 0 (got '" +
               value + "')";
    }
    return true;
}

namespace
{

/**
 * Can @p path be opened for writing? Opened for append, so an existing
 * file's contents survive; a file the probe created is removed again.
 */
bool
preflightWritable(const std::string &path, const char *flag)
{
    if (path.empty())
        return true;
    std::error_code ec;
    const bool existed =
        std::filesystem::exists(std::filesystem::symlink_status(path, ec));
    if (!std::ofstream(path, std::ios::app)) {
        memnet_warn("cannot open ", flag, " output file: ", path);
        return false;
    }
    if (!existed)
        std::filesystem::remove(path, ec);
    return true;
}

} // namespace

SweepFrontEnd::SweepFrontEnd(std::string tool, SweepOptions opts)
    : tool_(std::move(tool)), opts_(std::move(opts)),
      journal_(opts_.journalPath)
{
}

bool
SweepFrontEnd::preflight(
    const std::vector<std::pair<const char *, std::string>> &extra) const
{
    std::vector<std::pair<const char *, std::string>> outputs = {
        {"--profile", opts_.profilePath},
        {"--journal", opts_.journalPath},
        {"--failure-manifest", opts_.manifestPath}};
    outputs.insert(outputs.end(), extra.begin(), extra.end());
    for (const auto &[flag, path] : outputs) {
        if (!preflightWritable(path, flag))
            return false;
    }
    return true;
}

bool
SweepFrontEnd::run(Runner &runner, const std::vector<SystemConfig> &configs)
{
    if (!opts_.profilePath.empty())
        prof::setEnabled(true);

    if (!opts_.resumePath.empty()) {
        std::map<std::string, RunResult> pool;
        JournalLoadStats stats;
        std::string err;
        if (!loadJournal(opts_.resumePath, &pool, &stats, &err)) {
            memnet_warn("--resume failed: ", err);
            return false;
        }
        memnet_inform("resume: loaded ", stats.loaded, " result(s) from ",
                      opts_.resumePath, " (", stats.corrupt,
                      " damaged record(s) skipped)");
        runner.addResumePool(std::move(pool));
    }
    if (!opts_.journalPath.empty()) {
        if (!journal_.open())
            return false;
        runner.setJournal(&journal_);
    }

    ParallelRunner engine(runner, opts_.jobs);
    engine.setConfigTimeout(opts_.configTimeoutSec);
    engine.run(configs);
    failures_ = engine.failures();
    return true;
}

int
SweepFrontEnd::finish(Runner &runner)
{
    runner.setJournal(nullptr);
    int rc = 0;
    if (!failures_.empty()) {
        rc = 1;
        memnet_warn("sweep finished with ", failures_.size(),
                    " failed config(s); they report zeros and are "
                    "absent from JSON output");
        for (const RunFailure &f : failures_)
            memnet_warn("  failed: ", f.config.describe(),
                        f.timeout ? " [watchdog]" : "", ": ", f.message);
        if (!opts_.manifestPath.empty()) {
            std::ofstream os(opts_.manifestPath);
            if (os) {
                writeFailureManifest(os, tool_, opts_.configTimeoutSec,
                                     failures_);
                closeOutput(os, "failure manifest", opts_.manifestPath);
            } else {
                memnet_warn("cannot open --failure-manifest output file: ",
                            opts_.manifestPath);
            }
        }
    }
    // Did a resumed sweep skip the finished work? One line answers it
    // without diffing journals.
    if (!opts_.journalPath.empty() || !opts_.resumePath.empty()) {
        const std::string appended =
            opts_.journalPath.empty()
                ? ""
                : "; appended " + std::to_string(journal_.appended()) +
                      " record(s) to " + opts_.journalPath;
        memnet_inform("crash-safety: ", runner.runsExecuted(),
                      " run(s) executed, ", runner.resumedHits(),
                      " resumed from journal", appended);
    }
    // The snapshot merges the whole sweep: helper threads' trees are
    // retained past the join.
    if (!opts_.profilePath.empty() &&
        !prof::writeSnapshotFile(opts_.profilePath))
        rc = 1;
    return rc;
}

} // namespace memnet
