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
#include <memory>
#include <mutex>
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
forEachChunk(std::size_t chunks, const std::function<void(std::size_t)> &fn)
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
    const std::size_t threads =
        std::min<std::size_t>(resolveJobs(0), chunks);
    std::vector<std::thread> helpers;
    helpers.reserve(threads);
    for (std::size_t t = 1; t < threads; ++t) {
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

const char *
failurePolicyName(FailurePolicy p)
{
    return p == FailurePolicy::Abort ? "abort" : "isolate";
}

bool
parseFailurePolicy(const std::string &s, FailurePolicy *out)
{
    if (s == "abort") {
        *out = FailurePolicy::Abort;
        return true;
    }
    if (s == "isolate") {
        *out = FailurePolicy::Isolate;
        return true;
    }
    return false;
}

ParallelRunner::ParallelRunner(Runner &runner, int jobs)
    : runner_(runner), jobs_(resolveJobs(jobs))
{
}

namespace
{

/**
 * Per-worker watchdog state. The worker publishes a deadline when it
 * starts a config; the monitor thread raises the cancel flag once the
 * deadline passes. deadlineNs == 0 means idle (nothing to watch).
 */
struct WatchSlot
{
    std::atomic<bool> cancel{false};
    std::atomic<std::int64_t> deadlineNs{0};
};

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

} // namespace

void
ParallelRunner::run(const std::vector<SystemConfig> &configs)
{
    if (configs.empty())
        return;

    const int workers =
        std::min<int>(jobs_, static_cast<int>(configs.size()));
    const bool watchdog = configTimeoutSec_ > 0.0;
    if (workers <= 1 && !watchdog && policy_ == FailurePolicy::Abort) {
        // The historical serial path, byte-for-byte: with no robustness
        // feature active the engine must not perturb anything (the
        // perf-baseline CI gate measures this loop).
        for (const SystemConfig &cfg : configs)
            runner_.get(cfg);
        return;
    }

    // Work-stealing over a shared index: configs vary wildly in cost
    // (size class x simulated time), so static partitioning would leave
    // workers idle behind the slowest shard.
    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorMu;
    const int poolSize = std::max(workers, 1);
    const std::unique_ptr<WatchSlot[]> slots(new WatchSlot[poolSize]);

    auto recordFailure = [&](const SystemConfig &cfg,
                             const std::string &message, bool isTimeout,
                             double wallSeconds) {
        {
            std::lock_guard<std::mutex> lock(errorMu);
            failures_.push_back({cfg, Runner::key(cfg), message,
                                 isTimeout, wallSeconds});
            if (policy_ == FailurePolicy::Abort && !firstError)
                firstError = std::current_exception();
        }
        if (policy_ == FailurePolicy::Isolate)
            runner_.markFailed(cfg);
    };

    auto worker = [&](int slot) {
        MEMNET_PROF_SCOPE("parallel/worker");
        WatchSlot &ws = slots[slot];
        const ScopedCancelFlag scoped(watchdog ? &ws.cancel : nullptr);
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= configs.size())
                return;
            const std::int64_t startNs = steadyNowNs();
            if (watchdog) {
                // Order matters: clear any stale cancellation before
                // arming, so a flag raised for the previous config
                // cannot kill this one at its first poll.
                ws.cancel.store(false, std::memory_order_relaxed);
                ws.deadlineNs.store(
                    deadlineAfter(startNs, configTimeoutSec_),
                    std::memory_order_release);
            }
            const auto wall = [startNs] {
                return static_cast<double>(steadyNowNs() - startNs) /
                       1e9;
            };
            try {
                MEMNET_PROF_SCOPE("parallel/job");
                runner_.get(configs[i]);
            } catch (const CancelledError &e) {
                recordFailure(configs[i], e.what(), true, wall());
            } catch (const std::exception &e) {
                recordFailure(configs[i], e.what(), false, wall());
            } catch (...) {
                recordFailure(configs[i], "unknown exception", false,
                              wall());
                // Keep draining: other indices may still be claimed by
                // peers blocked on this key in Runner::get().
            }
            if (watchdog)
                ws.deadlineNs.store(0, std::memory_order_release);
        }
    };

    // The monitor wakes often enough that a budget overrun is bounded
    // by ~1/8 of the budget (floor 2 ms so tiny test budgets still trip
    // promptly, ceiling 100 ms to keep the thread near-idle).
    std::mutex monMu;
    std::condition_variable monCv;
    bool monDone = false;
    std::thread monitor;
    if (watchdog) {
        const auto interval = std::chrono::milliseconds(
            static_cast<std::int64_t>(
                std::clamp(configTimeoutSec_ * 1e3 / 8, 2.0, 100.0)));
        monitor = std::thread([&, interval] {
            std::unique_lock<std::mutex> lock(monMu);
            while (!monDone) {
                monCv.wait_for(lock, interval);
                if (monDone)
                    break;
                const std::int64_t now = steadyNowNs();
                for (int s = 0; s < poolSize; ++s) {
                    const std::int64_t deadline =
                        slots[s].deadlineNs.load(
                            std::memory_order_acquire);
                    if (deadline != 0 && now >= deadline)
                        slots[s].cancel.store(
                            true, std::memory_order_relaxed);
                }
            }
        });
    }

    std::vector<std::thread> pool;
    pool.reserve(poolSize);
    for (int t = 0; t < poolSize; ++t)
        pool.emplace_back(worker, t);
    for (std::thread &th : pool)
        th.join();
    if (monitor.joinable()) {
        {
            std::lock_guard<std::mutex> lock(monMu);
            monDone = true;
        }
        monCv.notify_all();
        monitor.join();
    }

    std::sort(failures_.begin(), failures_.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  return a.key < b.key;
              });

    if (firstError) {
        if (failures_.size() > 1) {
            memnet_warn("parallel sweep: ", failures_.size() - 1,
                        " additional failure(s) suppressed under the "
                        "abort policy; rethrowing the first");
            for (std::size_t f = 0; f < failures_.size(); ++f) {
                memnet_warn("  failed [", f + 1, "/", failures_.size(),
                            "] ", failures_[f].config.describe(), ": ",
                            failures_[f].message);
            }
        }
        std::rethrow_exception(firstError);
    }
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
           "[--resume <path>] [--failure-policy <abort|isolate>] "
           "[--config-timeout <seconds>] [--failure-manifest <path>]";
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
    if (!path && flag != "--jobs" && flag != "--failure-policy" &&
        flag != "--config-timeout")
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
    } else if (flag == "--failure-policy") {
        if (!parseFailurePolicy(value, &policy))
            *err = "--failure-policy must be 'abort' or 'isolate' (got '" +
                   value + "')";
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
    engine.setFailurePolicy(opts_.policy);
    engine.setConfigTimeout(opts_.configTimeoutSec);
    try {
        engine.run(configs);
    } catch (const std::exception &e) {
        runner.setJournal(nullptr);
        memnet_warn("sweep failed: ", e.what());
        return false;
    }
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
                writeFailureManifest(os, tool_,
                                     failurePolicyName(opts_.policy),
                                     opts_.configTimeoutSec, failures_);
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
    // The snapshot merges the whole sweep: worker threads' trees are
    // retained past the join.
    if (!opts_.profilePath.empty() &&
        !prof::writeSnapshotFile(opts_.profilePath))
        rc = 1;
    return rc;
}

} // namespace memnet
