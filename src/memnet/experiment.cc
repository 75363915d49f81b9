#include "memnet/experiment.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

#include "memnet/journal.hh"
#include "sim/log.hh"
#include "workload/profile.hh"

namespace memnet
{

const std::vector<TopologyKind> &
allTopologies()
{
    static const std::vector<TopologyKind> v = {
        TopologyKind::DaisyChain, TopologyKind::TernaryTree,
        TopologyKind::Star, TopologyKind::DdrxLike};
    return v;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> v = [] {
        std::vector<std::string> names;
        for (const WorkloadProfile &w : allWorkloads())
            names.push_back(w.name);
        return names;
    }();
    return v;
}

std::string
Runner::key(const SystemConfig &cfg)
{
    // Hot enough to matter at sweep scale (every get() builds a key):
    // a plain string appender with std::to_chars instead of an
    // ostringstream. Doubles use shortest-round-trip formatting, which
    // is injective — two distinct values never share a spelling.
    std::string k;
    k.reserve(128 + cfg.workload.size() + 48 * cfg.faults.events.size());
    char buf[32];
    const auto num = [&k, &buf](auto v) {
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        k.append(buf, res.ptr);
    };
    const auto field = [&k, &num](auto v) {
        num(v);
        k.push_back('|');
    };
    k += cfg.workload;
    k.push_back('|');
    field(static_cast<int>(cfg.topology));
    field(static_cast<int>(cfg.sizeClass));
    field(static_cast<int>(cfg.mechanism));
    field(static_cast<int>(cfg.roo));
    field(cfg.rooWakeupPs);
    field(static_cast<int>(cfg.policy));
    field(cfg.alphaPct);
    field(cfg.epochLen);
    field(static_cast<int>(cfg.interleavePages));
    field(cfg.warmup);
    field(cfg.measure);
    field(cfg.seed);
    field(cfg.cores);
    field(cfg.maxReadsPerCore);
    field(cfg.maxWritesPerCore);
    field(static_cast<int>(cfg.ioAttribution));
    field(cfg.linkFlitErrorRate);
    // The aware block is ','-separated: streaming the four values with
    // no separators let lookalike neighbours collide (e.g. a two-digit
    // ispIterations against a one-digit one absorbing a flag digit).
    num(cfg.aware.ispIterations);
    k.push_back(',');
    num(static_cast<int>(cfg.aware.congestionDiscount));
    k.push_back(',');
    num(static_cast<int>(cfg.aware.wakeCoordination));
    k.push_back(',');
    num(static_cast<int>(cfg.aware.grantPool));
    k.push_back('|');
    field(cfg.watchdogTimeoutPs);
    num(cfg.faults.flapMeanPeriodPs);
    k.push_back(',');
    num(cfg.faults.flapWindowPs);
    for (const FaultSpec &f : cfg.faults.events) {
        k.push_back(';');
        num(static_cast<int>(f.kind));
        k.push_back(',');
        num(f.at);
        k.push_back(',');
        num(f.link);
        k.push_back(',');
        num(f.durationPs);
        k.push_back(',');
        num(f.survivingLanes);
        k.push_back(',');
        num(f.flitErrorRate);
    }
    // cfg.partitions selects nothing, so it is not in the key.
    return k;
}

SystemConfig
Runner::fullPowerBaseline(SystemConfig cfg)
{
    cfg.policy = Policy::FullPower;
    cfg.mechanism = BwMechanism::None;
    cfg.roo = false;
    cfg.interleavePages = false;
    return cfg;
}

const RunResult &
Runner::get(const SystemConfig &cfg)
{
    const std::string k = key(cfg);
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        auto it = cache.find(k);
        if (it != cache.end())
            return it->second;
        if (failedKeys.count(k))
            return placeholder;
        auto rp = resumePool.find(k);
        if (rp != resumePool.end()) {
            // Promote the journal record on first request, moving its
            // map node; the pool entry is spent so a later --resume load
            // can re-fill it.
            ++resumed;
            return cache.insert(resumePool.extract(rp)).position->second;
        }
        if (collecting) {
            // First pass of a --jobs bench run: record, don't simulate.
            if (pendingKeys.insert(k).second)
                pendingConfigs.push_back(cfg);
            return placeholder;
        }
        if (inflight.insert(k).second)
            break;
        // Another thread is simulating this config; wait for it.
        cv.wait(lock);
    }
    lock.unlock();
    RunResult r;
    try {
        r = runSimulation(cfg);
    } catch (...) {
        // Release the key so waiters retry (and hit the same error)
        // instead of deadlocking on a result that will never arrive.
        lock.lock();
        inflight.erase(k);
        cv.notify_all();
        throw;
    }
    // Journal (its own mutex, flushed) before publishing: a crash
    // after this line can only lose results no caller ever observed.
    // The pointer is read under the cache lock but the file write
    // happens outside it, so workers don't serialize on disk I/O.
    lock.lock();
    RunJournal *j = journal;
    lock.unlock();
    if (j)
        j->append(k, r);
    lock.lock();
    ++executed;
    if (verbose) {
        std::fprintf(stderr, "  [run %3d] %-40s P=%6.2fW perf=%8.3g\n",
                     executed, cfg.describe().c_str(),
                     r.totalNetworkPowerW, r.readsPerSec);
    }
    // References into the sorted map stay valid across later inserts.
    const RunResult &slot = cache.emplace(k, std::move(r)).first->second;
    inflight.erase(k);
    cv.notify_all();
    return slot;
}

void
Runner::beginCollect()
{
    std::lock_guard<std::mutex> lock(mu);
    memnet_assert(inflight.empty(),
                  "beginCollect() while runs are in flight");
    collecting = true;
    pendingConfigs.clear();
    pendingKeys.clear();
}

void
Runner::addResumePool(std::map<std::string, RunResult> pool)
{
    std::lock_guard<std::mutex> lock(mu);
    // Map nodes move whole: no key is copied, no result moved.
    for (auto it = pool.begin(); it != pool.end();) {
        auto node = pool.extract(it++);
        // Keys already promoted (or freshly simulated) stay as they
        // are; among pending pool entries the latest load wins, the
        // same dedup rule loadJournal applies within one file.
        if (cache.count(node.key()))
            continue;
        resumePool.erase(node.key());
        resumePool.insert(std::move(node));
    }
}

void
Runner::markFailed(const SystemConfig &cfg)
{
    std::lock_guard<std::mutex> lock(mu);
    failedKeys.insert(key(cfg));
}

std::vector<SystemConfig>
Runner::endCollect()
{
    std::lock_guard<std::mutex> lock(mu);
    collecting = false;
    pendingKeys.clear();
    return std::exchange(pendingConfigs, {});
}

double
Runner::degradation(const SystemConfig &cfg)
{
    const RunResult &base = get(fullPowerBaseline(cfg));
    const RunResult &r = get(cfg);
    if (base.readsPerSec <= 0.0)
        return 0.0;
    return 1.0 - r.readsPerSec / base.readsPerSec;
}

double
Runner::powerReduction(const SystemConfig &cfg)
{
    const RunResult &base = get(fullPowerBaseline(cfg));
    const RunResult &r = get(cfg);
    if (base.totalNetworkPowerW <= 0.0)
        return 0.0;
    return 1.0 - r.totalNetworkPowerW / base.totalNetworkPowerW;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    memnet_assert(cells.size() == headers_.size(),
                  "table row width mismatch");
    rows_.push_back(std::move(cells));
}

std::string
TextTable::fmt(double v, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TextTable::pct(double v, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

void
TextTable::print() const
{
    std::vector<std::size_t> w(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        w[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            w[c] = std::max(w[c], row[c].size());

    auto line = [&](const std::vector<std::string> &cells) {
        std::string out;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                out += "  ";
            // Left-align the first column, right-align the rest.
            const std::size_t pad = w[c] - cells[c].size();
            if (c == 0) {
                out += cells[c] + std::string(pad, ' ');
            } else {
                out += std::string(pad, ' ') + cells[c];
            }
        }
        std::printf("%s\n", out.c_str());
    };

    line(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < w.size(); ++c)
        total += w[c] + (c ? 2 : 0);
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        line(row);
}

void
printBanner(const std::string &title, const std::string &subtitle)
{
    std::printf("\n=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
}

} // namespace memnet
