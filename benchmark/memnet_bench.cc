/**
 * @file
 * memnet_bench: the benchmark program behind benchmark/run.py.
 *
 *   memnet_bench --workload <name> --seed <n> --seconds <s> --out <dir>
 *                [--trace]
 *
 * One process runs one workload. It builds the workload's inputs from
 * --seed and sets up kSetups times (their median is setup_s), then
 * repeats the workload until --seconds of host time are spent, and
 * prints one JSON object of raw samples as the last line of stdout.
 * run.py turns the samples into medians and quartiles.
 *
 * With --trace it records a span around every public call it
 * makes, enables the host profiler (prof::snapshot), and writes
 * <workload>.trace.json (Chrome trace) and <workload>.layers.json (the
 * per-layer metrics) into --out. Untraced and traced repetitions
 * alternate, so trace_overhead_frac compares the two in one process.
 *
 * It uses memnet's public API only, and sets only the
 * SystemConfig fields workload, topology, sizeClass, mechanism, roo,
 * policy, alphaPct, warmup, measure, seed and partitions. Every other
 * field keeps its default, so deleting a knob cannot break it.
 *
 * Output identity: each repetition's model outputs are written as a
 * canonical hex-float dump (no kernel counters, no host times) and
 * digested with memnet::crc32. Repetitions must agree with each other,
 * the sweep with plain Simulator::run, the partitioned multichannel run
 * with the serial kernel, and every journal record with its source.
 * run.py also compares the digest with benchmark/expected/ for the
 * seeds recorded there. A mismatch counts as a failed operation.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/multichannel.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"
#include "memnet/simulator.hh"
#include "obs/json.hh"
#include "obs/prof.hh"

#ifndef MEMNET_BENCH_COMPILER
#define MEMNET_BENCH_COMPILER "unknown"
#endif
#ifndef MEMNET_BENCH_BUILD_TYPE
#define MEMNET_BENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace memnet;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Workload sizes. A repetition takes a few host seconds on a 4-core
// x86 host, so a 20 s run holds at least three of them.

/** Workers of every ParallelRunner this program starts: 4 workers on a
 *  4-core host made the sweep's wall time noisy. */
constexpr int kWorkers = 2;
constexpr Tick kSweepWarmup = us(20);
/** One 100 us management epoch lands inside the window. */
constexpr Tick kSweepMeasure = us(100);

constexpr Tick kLongWarmup = us(100);
constexpr Tick kLongMeasure = us(3000);

constexpr int kMcChannels = 4;
constexpr int kMcPartitions = 4;
constexpr Tick kMcWarmup = us(100);
constexpr Tick kMcMeasure = us(1200);
/** Single-channel partitioned run that exposes lane statistics, which
 *  MultiChannelResult does not carry. */
constexpr Tick kMcProbeMeasure = us(300);

/** 56 sources x 144 seed variants = 8064 journal records. */
constexpr int kJournalVariants = 144;
constexpr Tick kJournalSourceMeasure = us(20);

constexpr int kSetups = 5;

// ---------------------------------------------------------------------
// Spans around the public calls this program makes (traced repetitions).

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    int rep = -1;
};

class SpanRecorder
{
  public:
    /** RAII span; records nothing while the recorder is off. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *name) : rec_(rec)
        {
            if (!rec_)
                return;
            idx_ = static_cast<int>(rec_->spans_.size());
            rec_->spans_.push_back(
                Span{name, rec_->nowUs(), 0.0, rec_->open_, rec_->rep_});
            rec_->open_ = idx_;
        }

        ~Scope()
        {
            if (!rec_)
                return;
            Span &s = rec_->spans_[static_cast<std::size_t>(idx_)];
            s.endUs = rec_->nowUs();
            rec_->open_ = s.parent;
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int idx_ = -1;
    };

    Scope open(const char *name) { return Scope(on_ ? this : nullptr, name); }

    /** Record while @p on, tagging spans with repetition @p rep. */
    void
    setRecording(bool on, int rep)
    {
        on_ = on;
        rep_ = rep;
    }

    /** Summed duration of every span named @p name, in seconds. */
    double
    totalSeconds(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            if (s.name == name)
                sum += s.endUs - s.startUs;
        return sum * 1e-6;
    }

    /** Chrome-trace JSON; args carry id, parent, repetition, self time. */
    void
    writeChromeTrace(std::ostream &os) const
    {
        std::vector<double> childUs(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childUs[static_cast<std::size_t>(s.parent)] +=
                    s.endUs - s.startUs;
        obs::JsonWriter w(os);
        w.beginObject();
        w.key("traceEvents");
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("ph", "X");
            w.field("pid", std::int64_t{1});
            w.field("tid", std::int64_t{1});
            w.field("ts", s.startUs);
            w.field("dur", s.endUs - s.startUs);
            w.key("args");
            w.beginObject();
            w.field("id", static_cast<std::int64_t>(i));
            w.field("parent", static_cast<std::int64_t>(s.parent));
            w.field("rep", static_cast<std::int64_t>(s.rep));
            w.field("self_us", s.endUs - s.startUs - childUs[i]);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    }

    bool on_ = false;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
    int rep_ = -1;
};

// ---------------------------------------------------------------------
// Canonical dump of model outputs. Doubles are hex floats, so the dump
// and its CRC change exactly when a simulated value changes. Kernel
// counters and host times stay out: an optimisation may legitimately
// fire fewer events for the same results.

class Dump
{
  public:
    void f(const std::string &name, double v) { line(name, hexDouble(v)); }

    void
    u(const std::string &name, std::uint64_t v)
    {
        line(name, std::to_string(v));
    }

    std::uint32_t
    digest() const
    {
        return crc32(text_.data(), text_.size());
    }

  private:
    void
    line(const std::string &name, const std::string &v)
    {
        text_ += name;
        text_ += '=';
        text_ += v;
        text_ += '\n';
    }

    std::string text_;
};

void
dumpPower(Dump &d, const std::string &p, const PowerBreakdown &b)
{
    d.f(p + ".idle_io_w", b.idleIoW);
    d.f(p + ".active_io_w", b.activeIoW);
    d.f(p + ".logic_leak_w", b.logicLeakW);
    d.f(p + ".logic_dyn_w", b.logicDynW);
    d.f(p + ".dram_leak_w", b.dramLeakW);
    d.f(p + ".dram_dyn_w", b.dramDynW);
}

void
dumpPercentiles(Dump &d, const std::string &p, const LatencyPercentiles &q)
{
    d.u(p + ".samples", q.samples);
    d.u(p + ".sum", q.sumPs);
    d.u(p + ".p50", q.p50Ps);
    d.u(p + ".p90", q.p90Ps);
    d.u(p + ".p99", q.p99Ps);
    d.u(p + ".p999", q.p999Ps);
    d.u(p + ".max", q.maxPs);
}

void
dumpLatency(Dump &d, const LatencyBreakdown &l)
{
    dumpPercentiles(d, "lat.end_to_end", l.endToEnd);
    dumpPercentiles(d, "lat.queue", l.queue);
    dumpPercentiles(d, "lat.wake_stall", l.wakeStall);
    dumpPercentiles(d, "lat.retrain_stall", l.retrainStall);
    dumpPercentiles(d, "lat.serialization", l.serialization);
    dumpPercentiles(d, "lat.dram", l.dram);
    d.f("lat.wake_stall_s", l.wakeStallSeconds);
    d.f("lat.retrain_stall_s", l.retrainStallSeconds);
    d.u("lat.queue_peak", l.queuePeak);
}

void
dumpEnergy(Dump &d, const EnergySummary &e)
{
    const EnergyAttribution &a = e.attribution;
    d.f("energy.tx_j", a.txJ);
    d.f("energy.retrain_j", a.retrainJ);
    for (std::size_t i = 0; i < a.idleModeJ.size(); ++i)
        d.f("energy.idle_mode_j." + std::to_string(i), a.idleModeJ[i]);
    d.f("energy.sleep_j", a.sleepJ);
    d.f("energy.wake_j", a.wakeJ);
    d.f("energy.serdes_leak_j", a.serdesLeakJ);
    d.f("energy.router_j", a.routerJ);
    d.f("energy.dram_leak_j", a.dramLeakJ);
    d.f("energy.dram_dyn_j", a.dramDynJ);
    d.f("energy.idle_io_j", a.idleIoJ);
    d.f("energy.active_io_j", a.activeIoJ);
    dumpPercentiles(d, "energy.utilization", e.utilization);
    dumpPercentiles(d, "energy.occupancy", e.occupancy);
}

std::uint32_t
digestRun(const RunResult &r)
{
    Dump d;
    dumpPower(d, "per_hmc", r.perHmc);
    d.f("total_w", r.totalNetworkPowerW);
    d.f("idle_io_frac", r.idleIoFrac);
    d.f("reads_per_s", r.readsPerSec);
    d.u("completed_reads", r.completedReads);
    d.u("violations", r.violations);
    d.f("avg_read_latency_ns", r.avgReadLatencyNs);
    dumpLatency(d, r.latency);
    dumpEnergy(d, r.energy);
    for (int b = 0; b < kUtilBuckets; ++b)
        for (int m = 0; m < kLaneModes; ++m)
            d.f("link_hours." + std::to_string(b) + "." + std::to_string(m),
                r.linkHours[b][m]);
    for (const ModuleDetail &m : r.modules) {
        const std::string p = "module." + std::to_string(m.id);
        d.u(p + ".high_radix", m.highRadix);
        d.u(p + ".hops", static_cast<std::uint64_t>(m.hopDistance));
        d.u(p + ".dram_accesses", m.dramAccesses);
        d.u(p + ".flits_routed", m.flitsRouted);
        d.f(p + ".req_util", m.requestLinkUtil);
        d.f(p + ".resp_util", m.responseLinkUtil);
        d.f(p + ".req_power_frac", m.requestLinkPowerFrac);
        d.f(p + ".resp_power_frac", m.responseLinkPowerFrac);
    }
    return d.digest();
}

std::uint32_t
digestMultiChannel(const MultiChannelResult &r)
{
    Dump d;
    d.f("total_w", r.totalPowerW);
    d.f("reads_per_s", r.readsPerSec);
    d.f("idle_io_frac", r.idleIoFrac);
    d.u("modules", static_cast<std::uint64_t>(r.totalModules));
    for (std::size_t c = 0; c < r.channelPower.size(); ++c) {
        const std::string p = "channel." + std::to_string(c);
        dumpPower(d, p, r.channelPower[c]);
        d.f(p + ".util", r.channelUtil[c]);
        d.u(p + ".modules",
            static_cast<std::uint64_t>(r.channelModules[c]));
    }
    dumpLatency(d, r.latency);
    dumpEnergy(d, r.energy);
    return d.digest();
}

/** Digest of per-key digests, in key order. */
std::uint32_t
combine(const std::map<std::string, std::uint32_t> &digests)
{
    Dump d;
    for (const auto &[k, v] : digests)
        d.u(k, v);
    return d.digest();
}

// ---------------------------------------------------------------------
// Per-layer metrics of traced repetitions.

/** Every per-layer metric; a workload reports 0 for a layer it
 *  bypasses. Must match the per_layer list of BENCHMARK.json. */
const char *const kLayerNames[] = {
    "sim.events_fired",
    "sim.events_descheduled",
    "sim.peak_queue_depth",
    "sim.dispatch_self_s",
    "sim.ns_per_event",
    "sim.events_per_s",
    "sim.partition.windows",
    "sim.partition.events_per_window",
    "sim.partition.barrier_wait_share",
    "sim.partition.worker_self_s",
    "sim.partition.speedup_vs_serial",
    "net.packets_issued",
    "net.flits_routed",
    "net.pool_hit_ratio",
    "net.route_self_s",
    "net.inject_self_s",
    "net.pkt_pool_self_s",
    "dram.accesses",
    "workload.reads_completed",
    "mgmt.epochs",
    "mgmt.isp_rounds",
    "mgmt.epoch_self_s",
    "mgmt.isp_round_self_s",
    "mgmt.us_per_epoch",
    "mgmt.violations",
    "memnet.sim_build_self_s",
    "memnet.sim_collect_self_s",
    "memnet.parallel.worker_busy_share",
    "memnet.parallel.worker_idle_s",
    "memnet.mc_fanout_self_s",
    "memnet.runner.runs_executed",
    "memnet.runner.resumed_hits",
    "memnet.runner.key_us_per_call",
    "memnet.runner.resume_get_s",
    "memnet.journal.append_us_per_record",
    "memnet.journal.load_us_per_record",
    "memnet.journal.records_corrupt",
    "memnet.report.bench_json_s",
    "memnet.report.bench_json_bytes",
    "audit.checks_run",
    "trace_overhead_frac",
};

using Layers = std::map<std::string, double>;

struct PhaseTotals
{
    double selfS = 0.0;
    double inclS = 0.0;
    double count = 0.0;
};

/** Profiler phases by name; self time summed over every path that ends
 *  in the phase. */
void
sumPhases(const prof::PhaseTree &t, std::map<std::string, PhaseTotals> &out)
{
    for (const prof::PhaseTree &c : t.children) {
        PhaseTotals &p = out[c.name];
        p.selfS += static_cast<double>(c.selfNs()) * 1e-9;
        p.inclS += static_cast<double>(c.ns) * 1e-9;
        p.count += static_cast<double>(c.count);
        sumPhases(c, out);
    }
}

/** What the traced repetitions measured, for Workload::layers. */
struct TraceData
{
    /** Profiler phases per traced repetition. */
    std::map<std::string, PhaseTotals> phases;
    const SpanRecorder *spans = nullptr;
    int tracedReps = 0;
    double tracedWallS = 0.0;   ///< median traced repetition
    double untracedWallS = 0.0; ///< median untraced repetition

    PhaseTotals
    phase(const char *name) const
    {
        auto it = phases.find(name);
        return it == phases.end() ? PhaseTotals{} : it->second;
    }

    /** Span time per traced repetition. */
    double
    spanS(const char *name) const
    {
        return spans->totalSeconds(name) / std::max(1, tracedReps);
    }
};

/** Counts of one repetition from public RunResult fields. */
struct RunCounts
{
    double eventsFired = 0, eventsDescheduled = 0, peakQueueDepth = 0;
    double packetsIssued = 0, allocsAvoided = 0, flitsRouted = 0;
    double dramAccesses = 0, readsCompleted = 0, violations = 0;
    double auditChecks = 0;

    void
    add(const RunResult &r)
    {
        eventsFired += static_cast<double>(r.profile.eventsFired);
        eventsDescheduled +=
            static_cast<double>(r.profile.eventsDescheduled);
        peakQueueDepth = std::max(
            peakQueueDepth, static_cast<double>(r.profile.peakQueueDepth));
        packetsIssued += static_cast<double>(r.profile.packetsIssued);
        allocsAvoided +=
            static_cast<double>(r.profile.packetAllocsAvoided());
        for (const ModuleDetail &m : r.modules) {
            flitsRouted += static_cast<double>(m.flitsRouted);
            dramAccesses += static_cast<double>(m.dramAccesses);
        }
        readsCompleted += static_cast<double>(r.completedReads);
        violations += static_cast<double>(r.violations);
        auditChecks += static_cast<double>(r.profile.auditChecksRun);
    }

    void
    into(Layers &l) const
    {
        l["sim.events_fired"] = eventsFired;
        l["sim.events_descheduled"] = eventsDescheduled;
        l["sim.peak_queue_depth"] = peakQueueDepth;
        l["net.packets_issued"] = packetsIssued;
        l["net.flits_routed"] = flitsRouted;
        l["net.pool_hit_ratio"] =
            packetsIssued > 0 ? allocsAvoided / packetsIssued : 0.0;
        l["dram.accesses"] = dramAccesses;
        l["workload.reads_completed"] = readsCompleted;
        l["mgmt.violations"] = violations;
        l["audit.checks_run"] = auditChecks;
    }
};

/** Host time of the simulation layers, from the profiler phases. */
void
simLayers(Layers &l, const TraceData &t, double eventsPerRep)
{
    const PhaseTotals dispatch = t.phase("eq/dispatch");
    l["sim.dispatch_self_s"] = dispatch.selfS;
    l["sim.ns_per_event"] =
        eventsPerRep > 0 ? dispatch.inclS / eventsPerRep * 1e9 : 0.0;
    l["sim.events_per_s"] =
        t.untracedWallS > 0 ? eventsPerRep / t.untracedWallS : 0.0;
    l["sim.partition.worker_self_s"] = t.phase("part/worker").selfS;
    l["net.route_self_s"] = t.phase("net/route").selfS;
    l["net.inject_self_s"] = t.phase("net/inject").selfS;
    l["net.pkt_pool_self_s"] =
        t.phase("net/pkt_alloc").selfS + t.phase("net/pkt_dispose").selfS;
    const PhaseTotals epoch = t.phase("mgmt/epoch");
    l["mgmt.epochs"] = epoch.count;
    l["mgmt.isp_rounds"] = t.phase("mgmt/isp_round").count;
    l["mgmt.epoch_self_s"] = epoch.selfS;
    l["mgmt.isp_round_self_s"] = t.phase("mgmt/isp_round").selfS;
    l["mgmt.us_per_epoch"] =
        epoch.count > 0 ? epoch.inclS / epoch.count * 1e6 : 0.0;
    l["memnet.sim_build_self_s"] = t.phase("sim/build").selfS;
    l["memnet.sim_collect_self_s"] = t.phase("sim/collect").selfS;
    l["memnet.mc_fanout_self_s"] = t.phase("mc/fanout").selfS;
}

// ---------------------------------------------------------------------
// Workloads. All are closed-loop batch jobs driven from this process.

struct Context
{
    std::uint64_t seed = 1;
    std::string outDir;
    SpanRecorder spans;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First failure messages, echoed in the output. */
    std::vector<std::string> failures;

    /** Count @p ops failed operations, described by @p msg. */
    void
    fail(std::uint64_t ops, const std::string &msg)
    {
        failed += ops;
        if (failures.size() < 20)
            failures.push_back(msg);
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs from ctx.seed and warm up; run kSetups times. */
    virtual void setup(Context &ctx) = 0;
    /** One repetition; returns its host seconds. */
    virtual double rep(Context &ctx) = 0;
    /** Checks after the last repetition, untimed. */
    virtual void finish(Context &ctx, bool traced) {}
    /** Simulated microseconds per repetition (0: simulates nothing). */
    virtual double simUsPerRep() const = 0;
    /** Results produced or served per repetition. */
    virtual double resultsPerRep() const = 0;
    virtual std::uint32_t digest() const = 0;
    /** Per-config host seconds over all repetitions (sweep only). */
    virtual std::vector<double> runSeconds() const { return {}; }
    virtual void layers(Layers &l, const TraceData &t) const = 0;
};

SystemConfig
makeConfig(const std::string &workload, TopologyKind topo, SizeClass size,
           Policy policy, Tick warmup, Tick measure, std::uint64_t seed)
{
    SystemConfig c;
    c.workload = workload;
    c.topology = topo;
    c.sizeClass = size;
    c.mechanism = BwMechanism::Vwl;
    c.roo = true;
    c.policy = policy;
    c.alphaPct = 5.0;
    c.warmup = warmup;
    c.measure = measure;
    c.seed = seed;
    return c;
}

/**
 * The warm-up pass of setup: the same configs simulated for a tenth of
 * their window, which builds every network and fills lazily built
 * tables before the first timed repetition.
 */
std::vector<SystemConfig>
warmupConfigs(std::vector<SystemConfig> cfgs)
{
    for (SystemConfig &c : cfgs) {
        c.measure = (c.warmup + c.measure) / 10;
        c.warmup = 0;
    }
    return cfgs;
}

/**
 * sweep: what users wait on to reproduce a figure. A fig15 slice, 14
 * workloads x 4 topologies x {small, big}, VWL+ROO, alpha 5%, with the
 * unaware and aware policies on a checkerboard over workload and
 * topology: 112 distinct configs on a 2-worker ParallelRunner with a
 * run journal attached, as --journal does. Per-run build, warmup and
 * management epochs dominate; no work is shared between configs.
 */
class SweepWorkload : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        configs_.clear();
        const std::vector<std::string> &names = workloadNames();
        const std::vector<TopologyKind> &topos = allTopologies();
        for (std::size_t w = 0; w < names.size(); ++w)
            for (std::size_t t = 0; t < topos.size(); ++t)
                for (SizeClass size : {SizeClass::Small, SizeClass::Big})
                    configs_.push_back(makeConfig(
                        names[w], topos[t], size,
                        (w + t) % 2 ? Policy::Aware : Policy::Unaware,
                        kSweepWarmup, kSweepMeasure, ctx.seed));
        Runner runner;
        ParallelRunner(runner, kWorkers).run(warmupConfigs(configs_));
    }

    double
    rep(Context &ctx) override
    {
        const std::string path = ctx.outDir + "/sweep.journal.jsonl";
        std::filesystem::remove(path);
        ctx.attempted += configs_.size();
        Runner runner;
        RunJournal journal(path);
        const auto t0 = Clock::now();
        try {
            auto span = ctx.spans.open("rep");
            if (!journal.open())
                throw std::runtime_error("cannot open " + path);
            runner.setJournal(&journal);
            ParallelRunner pool(runner, kWorkers);
            auto run = ctx.spans.open("memnet.parallel.run");
            pool.run(configs_);
        } catch (const std::exception &e) {
            ctx.fail(configs_.size(), std::string("sweep: ") + e.what());
            return secondsSince(t0);
        }
        const double wall = secondsSince(t0);
        runner.setJournal(nullptr);

        std::map<std::string, std::uint32_t> digests;
        counts_ = RunCounts{};
        for (const auto &[key, r] : runner.results()) {
            digests[key] = digestRun(r);
            runS_.push_back(r.profile.wallSeconds);
            counts_.add(r);
            auto first = first_.find(key);
            if (!first_.empty() &&
                (first == first_.end() || first->second != digests[key]))
                ctx.fail(1, "sweep: output changed between repetitions: " +
                                key);
        }
        const std::size_t n = configs_.size();
        const std::size_t done =
            std::min<std::size_t>(digests.size(), journal.appended());
        if (done != n)
            ctx.fail(n > done ? n - done : 1,
                     "sweep: " + std::to_string(digests.size()) +
                         " results and " +
                         std::to_string(journal.appended()) +
                         " journal records for " + std::to_string(n) +
                         " configs");
        if (counts_.auditChecks > 0)
            ctx.fail(1, "sweep: the invariant auditor ran");
        if (first_.empty())
            first_ = std::move(digests);
        runsExecuted_ = runner.runsExecuted();
        return wall;
    }

    void
    finish(Context &ctx, bool traced) override
    {
        // ParallelRunner must match a plain serial Simulator::run: spot
        // check two configs chosen by the seed.
        const std::size_t n = configs_.size();
        for (std::size_t i : {static_cast<std::size_t>(ctx.seed % n),
                              static_cast<std::size_t>(
                                  (ctx.seed * 7919 + 13) % n)}) {
            ++ctx.attempted;
            const SystemConfig &c = configs_[i];
            const std::uint32_t serial = digestRun(Simulator(c).run());
            auto it = first_.find(Runner::key(c));
            if (it == first_.end() || it->second != serial)
                ctx.fail(1, "sweep: ParallelRunner result differs from "
                            "Simulator::run for " +
                                c.describe());
        }
    }

    double
    simUsPerRep() const override
    {
        return static_cast<double>(configs_.size()) *
               toSeconds(kSweepWarmup + kSweepMeasure) * 1e6;
    }

    double
    resultsPerRep() const override
    {
        return static_cast<double>(configs_.size());
    }

    std::uint32_t digest() const override { return combine(first_); }

    std::vector<double> runSeconds() const override { return runS_; }

    void
    layers(Layers &l, const TraceData &t) const override
    {
        counts_.into(l);
        simLayers(l, t, counts_.eventsFired);
        const double job = t.phase("parallel/job").inclS;
        const double capacity = kWorkers * t.spanS("memnet.parallel.run");
        l["memnet.parallel.worker_busy_share"] =
            capacity > 0 ? job / capacity : 0.0;
        l["memnet.parallel.worker_idle_s"] = std::max(0.0, capacity - job);
        l["memnet.runner.runs_executed"] = runsExecuted_;
    }

  private:
    std::vector<SystemConfig> configs_;
    /** Per-config digests of the first repetition. */
    std::map<std::string, std::uint32_t> first_;
    std::vector<double> runS_;
    RunCounts counts_;
    int runsExecuted_ = 0;
};

/**
 * long_run: one Simulator::run of mixC on a 13-module daisychain with
 * network-aware management, serial kernel. The event hot path (sim
 * dispatch, net route and link, dram, ISP rounds along the deepest
 * chain) with almost no setup share; bypasses the sweep engine and
 * serialization.
 */
class LongRunWorkload : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        cfg_ = makeConfig("mixC", TopologyKind::DaisyChain, SizeClass::Big,
                          Policy::Aware, kLongWarmup, kLongMeasure,
                          ctx.seed);
        Simulator(warmupConfigs({cfg_})[0]).run();
    }

    double
    rep(Context &ctx) override
    {
        ++ctx.attempted;
        const auto t0 = Clock::now();
        RunResult r;
        {
            auto span = ctx.spans.open("rep");
            auto run = ctx.spans.open("memnet.simulator.run");
            Simulator sim(cfg_);
            r = sim.run();
        }
        const double wall = secondsSince(t0);
        const std::uint32_t d = digestRun(r);
        if (reps_++ == 0)
            digest_ = d;
        else if (d != digest_)
            ctx.fail(1, "long_run: output changed between repetitions");
        if (r.profile.auditChecksRun > 0)
            ctx.fail(1, "long_run: the invariant auditor ran");
        counts_ = RunCounts{};
        counts_.add(r);
        return wall;
    }

    double
    simUsPerRep() const override
    {
        return toSeconds(kLongWarmup + kLongMeasure) * 1e6;
    }

    double resultsPerRep() const override { return 1.0; }

    std::uint32_t digest() const override { return digest_; }

    void
    layers(Layers &l, const TraceData &t) const override
    {
        counts_.into(l);
        simLayers(l, t, counts_.eventsFired);
    }

  private:
    SystemConfig cfg_;
    std::uint32_t digest_ = 0;
    int reps_ = 0;
    RunCounts counts_;
};

/**
 * multichannel: one runMultiChannel of 4 channels x mixA on big star
 * networks (16 modules), network-aware, on the 4-partition barrier
 * kernel. The intra-run parallel path; the other workloads bypass
 * sim/partition. The serial kernel's output is the reference.
 */
class MultiChannelWorkload : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        mc_.base = makeConfig("mixA", TopologyKind::Star, SizeClass::Big,
                              Policy::Aware, kMcWarmup, kMcMeasure,
                              ctx.seed);
        mc_.base.partitions = kMcPartitions;
        mc_.channels = kMcChannels;
        MultiChannelConfig warm = mc_;
        warm.base = warmupConfigs({mc_.base})[0];
        runMultiChannel(warm);
    }

    double
    rep(Context &ctx) override
    {
        ++ctx.attempted;
        const auto t0 = Clock::now();
        MultiChannelResult r;
        {
            auto span = ctx.spans.open("rep");
            auto run = ctx.spans.open("memnet.run_multichannel");
            r = runMultiChannel(mc_);
        }
        const double wall = secondsSince(t0);
        digests_.push_back(digestMultiChannel(r));
        reads_ = r.readsPerSec * toSeconds(mc_.base.measure);
        return wall;
    }

    void
    finish(Context &ctx, bool traced) override
    {
        // The serial kernel is the reference: every partitioned
        // repetition must match it bit for bit.
        MultiChannelConfig serial = mc_;
        serial.base.partitions = 1;
        ++ctx.attempted;
        const auto t0 = Clock::now();
        serialDigest_ = digestMultiChannel(runMultiChannel(serial));
        serialWallS_ = secondsSince(t0);
        for (std::uint32_t d : digests_)
            if (d != serialDigest_)
                ctx.fail(1, "multichannel: partitioned output differs "
                            "from the serial kernel");
        if (traced) {
            SystemConfig probe = mc_.base;
            probe.measure = kMcProbeMeasure;
            probe.partitions = 2;
            probe_ = Simulator(probe).run();
        }
    }

    double
    simUsPerRep() const override
    {
        return toSeconds(kMcWarmup + kMcMeasure) * 1e6;
    }

    double resultsPerRep() const override { return 1.0; }

    std::uint32_t digest() const override { return serialDigest_; }

    void
    layers(Layers &l, const TraceData &t) const override
    {
        simLayers(l, t, 0.0);
        l["workload.reads_completed"] = reads_;
        const RunProfile &p = probe_.profile;
        double windows = 0, events = 0, waitNs = 0;
        for (const PartitionLane &lane : p.partitionLanes) {
            windows += static_cast<double>(lane.windows);
            events += static_cast<double>(lane.eventsFired);
            waitNs += static_cast<double>(lane.barrierWaitNs);
        }
        const double lanes = static_cast<double>(p.partitionLanes.size());
        l["sim.partition.windows"] = windows;
        l["sim.partition.events_per_window"] =
            windows > 0 ? events / windows : 0.0;
        l["sim.partition.barrier_wait_share"] =
            lanes > 0 && p.wallSeconds > 0
                ? waitNs * 1e-9 / (lanes * p.wallSeconds)
                : 0.0;
        l["sim.partition.speedup_vs_serial"] =
            t.untracedWallS > 0 ? serialWallS_ / t.untracedWallS : 0.0;
    }

  private:
    MultiChannelConfig mc_;
    std::vector<std::uint32_t> digests_;
    std::uint32_t serialDigest_ = 0;
    double serialWallS_ = 0.0;
    double reads_ = 0.0;
    RunResult probe_;
};

/**
 * journal_replay: the --resume plus --json path, all shared work and no
 * simulation. Append 8064 records to a fresh journal, loadJournal it,
 * serve every key from Runner's resume pool, and write the bench JSON.
 * The records are 56 short-window results simulated during setup, each
 * under 144 seed variants.
 */
class JournalReplayWorkload : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        std::vector<SystemConfig> cfgs;
        for (const std::string &wl : workloadNames())
            for (TopologyKind topo : allTopologies())
                cfgs.push_back(makeConfig(wl, topo, SizeClass::Small,
                                          Policy::Aware, 0,
                                          kJournalSourceMeasure, ctx.seed));
        Runner runner;
        ParallelRunner(runner, kWorkers).run(cfgs);
        sources_.clear();
        sourceDigests_.clear();
        variants_.clear();
        for (const auto &kv : runner.results()) {
            sources_.push_back(kv.second);
            sourceDigests_.push_back(digestRun(kv.second));
            for (int v = 0; v < kJournalVariants; ++v) {
                SystemConfig c = kv.second.config;
                c.seed = ctx.seed * kJournalVariants + v;
                variants_.push_back(c);
            }
        }
    }

    double
    rep(Context &ctx) override
    {
        const std::string path = ctx.outDir + "/journal_replay.jsonl";
        const std::string jsonPath = ctx.outDir + "/journal_replay.json";
        std::filesystem::remove(path);
        const std::size_t n = variants_.size();
        ctx.attempted += n;
        Runner runner;
        JournalLoadStats stats;
        std::vector<const RunResult *> got;
        got.reserve(n);
        const auto t0 = Clock::now();
        try {
            auto span = ctx.spans.open("rep");
            std::vector<std::string> keys;
            keys.reserve(n);
            {
                auto s = ctx.spans.open("memnet.runner.key");
                for (const SystemConfig &c : variants_)
                    keys.push_back(Runner::key(c));
            }
            {
                auto s = ctx.spans.open("memnet.journal.append");
                RunJournal journal(path);
                if (!journal.open())
                    throw std::runtime_error("cannot open " + path);
                for (std::size_t i = 0; i < n; ++i) {
                    RunResult &src = sources_[i / kJournalVariants];
                    const std::uint64_t seed = src.config.seed;
                    src.config.seed = variants_[i].seed;
                    journal.append(keys[i], src);
                    src.config.seed = seed;
                }
                if (!journal.ok() || journal.appended() != n)
                    throw std::runtime_error("journal append failed");
            }
            std::map<std::string, RunResult> loaded;
            {
                auto s = ctx.spans.open("memnet.journal.load");
                std::string err;
                if (!loadJournal(path, &loaded, &stats, &err))
                    throw std::runtime_error(err);
            }
            {
                auto s = ctx.spans.open("memnet.runner.get");
                runner.addResumePool(std::move(loaded));
                for (const SystemConfig &c : variants_)
                    got.push_back(&runner.get(c));
            }
            {
                auto s = ctx.spans.open("memnet.report.bench_json");
                std::ofstream os(jsonPath);
                writeBenchResultsJson(os, "journal_replay",
                                      runner.results());
                if (!os)
                    throw std::runtime_error("cannot write " + jsonPath);
            }
        } catch (const std::exception &e) {
            ctx.fail(n, std::string("journal_replay: ") + e.what());
            return secondsSince(t0);
        }
        const double wall = secondsSince(t0);

        std::uint64_t mismatched = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (digestRun(*got[i]) != sourceDigests_[i / kJournalVariants])
                ++mismatched;
        if (mismatched)
            ctx.fail(mismatched, "journal_replay: " +
                                     std::to_string(mismatched) +
                                     " records changed in the round trip");
        if (stats.corrupt || stats.loaded != n)
            ctx.fail(std::max<std::uint64_t>(
                         stats.corrupt,
                         n > stats.loaded ? n - stats.loaded : 0),
                     "journal_replay: loaded " + std::to_string(stats.loaded) +
                         " records, " + std::to_string(stats.corrupt) +
                         " corrupt");
        if (runner.resumedHits() != n || runner.runsExecuted() != 0)
            ctx.fail(1, "journal_replay: " +
                            std::to_string(runner.resumedHits()) +
                            " resumed hits and " +
                            std::to_string(runner.runsExecuted()) +
                            " simulations for " + std::to_string(n) +
                            " requests");
        corrupt_ = static_cast<double>(stats.corrupt);
        resumedHits_ = static_cast<double>(runner.resumedHits());
        runsExecuted_ = runner.runsExecuted();
        jsonBytes_ = static_cast<double>(std::filesystem::file_size(jsonPath));
        return wall;
    }

    double simUsPerRep() const override { return 0.0; }

    double
    resultsPerRep() const override
    {
        return static_cast<double>(variants_.size());
    }

    std::uint32_t
    digest() const override
    {
        std::map<std::string, std::uint32_t> byKey;
        for (std::size_t i = 0; i < sources_.size(); ++i)
            byKey[Runner::key(sources_[i].config)] = sourceDigests_[i];
        return combine(byKey);
    }

    void
    layers(Layers &l, const TraceData &t) const override
    {
        const double n = resultsPerRep();
        l["memnet.runner.runs_executed"] = runsExecuted_;
        l["memnet.runner.resumed_hits"] = resumedHits_;
        l["memnet.runner.key_us_per_call"] =
            t.spanS("memnet.runner.key") / n * 1e6;
        l["memnet.runner.resume_get_s"] = t.spanS("memnet.runner.get");
        l["memnet.journal.append_us_per_record"] =
            t.spanS("memnet.journal.append") / n * 1e6;
        l["memnet.journal.load_us_per_record"] =
            t.spanS("memnet.journal.load") / n * 1e6;
        l["memnet.journal.records_corrupt"] = corrupt_;
        l["memnet.report.bench_json_s"] = t.spanS("memnet.report.bench_json");
        l["memnet.report.bench_json_bytes"] = jsonBytes_;
    }

  private:
    std::vector<RunResult> sources_;
    std::vector<std::uint32_t> sourceDigests_;
    std::vector<SystemConfig> variants_;
    double corrupt_ = 0, resumedHits_ = 0, jsonBytes_ = 0;
    int runsExecuted_ = 0;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sweep")
        return std::make_unique<SweepWorkload>();
    if (name == "long_run")
        return std::make_unique<LongRunWorkload>();
    if (name == "multichannel")
        return std::make_unique<MultiChannelWorkload>();
    if (name == "journal_replay")
        return std::make_unique<JournalReplayWorkload>();
    return nullptr;
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "memnet_bench: %s\nusage: memnet_bench --workload "
                 "sweep|long_run|multichannel|journal_replay --seed N "
                 "--seconds S --out DIR [--trace]\n",
                 why);
    std::exit(2);
}

/**
 * Peak resident set in MB since the last resetPeakRss(), from Linux's
 * VmHWM. getrusage's ru_maxrss is no use here: it survives exec, so it
 * would report the peak of the Python process that started this one.
 */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * Restart VmHWM from the current resident set, so memory still held
 * from setup keeps counting. The peak of one repetition depends on how
 * worker threads interleave, so memnet_bench reports the median over
 * repetitions rather than the process-wide maximum.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
writeNumbers(obs::JsonWriter &w, const char *key,
             const std::vector<double> &v)
{
    w.key(key);
    w.beginArray();
    for (double x : v)
        w.value(x);
    w.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName, outDir;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            workloadName = next();
        } else if (a == "--seed") {
            const std::string v = next();
            char *end = nullptr;
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a non-negative integer");
            haveSeed = true;
        } else if (a == "--seconds") {
            const std::string v = next();
            char *end = nullptr;
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (a == "--out") {
            outDir = next();
        } else if (a == "--trace") {
            trace = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    std::unique_ptr<Workload> workload = makeWorkload(workloadName);
    if (!workload || !haveSeed || seconds <= 0.0 || outDir.empty())
        usage("--workload, --seed, --seconds and --out are required");

    // Each of these silently changes the work being measured.
    for (const char *env : {"MEMNET_SIM_US", "MEMNET_AUDIT", "MEMNET_TRACE"}) {
        if (std::getenv(env)) {
            std::fprintf(stderr,
                         "memnet_bench: refusing to run with %s set\n", env);
            return 2;
        }
    }
#ifndef NDEBUG
    std::fprintf(stderr, "memnet_bench: refusing to run a build without "
                         "NDEBUG (assertions and the auditor are on)\n");
    return 2;
#endif

    std::filesystem::create_directories(outDir);
    Context ctx;
    ctx.seed = seed;
    ctx.outDir = outDir;

    const auto entry = Clock::now();
    std::vector<double> setupS;
    try {
        for (int i = 0; i < kSetups; ++i) {
            const auto t0 = i == 0 ? entry : Clock::now();
            workload->setup(ctx);
            setupS.push_back(secondsSince(t0));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memnet_bench: setup failed: %s\n", e.what());
        return 1;
    }

    // Repeat until the next repetition would overrun --seconds. A traced
    // run alternates untraced and traced repetitions, at least one each.
    std::vector<double> wallS, tracedWallS, peakRss;
    prof::reset();
    const auto loop = Clock::now();
    for (int rep = 0;; ++rep) {
        const bool traced = trace && rep % 2 == 1;
        const auto t0 = Clock::now();
        prof::setEnabled(traced);
        ctx.spans.setRecording(traced, rep);
        resetPeakRss();
        double wall = 0.0;
        try {
            wall = workload->rep(ctx);
        } catch (const std::exception &e) {
            wall = secondsSince(t0);
            ctx.fail(1, std::string("repetition threw: ") + e.what());
        }
        prof::setEnabled(false);
        ctx.spans.setRecording(false, -1);
        (traced ? tracedWallS : wallS).push_back(wall);
        if (!traced)
            peakRss.push_back(peakRssMb());
        const bool owed = trace && (wallS.empty() || tracedWallS.empty());
        if (!owed && secondsSince(loop) + secondsSince(t0) > seconds)
            break;
    }
    try {
        workload->finish(ctx, trace);
    } catch (const std::exception &e) {
        ctx.fail(1, std::string("final check threw: ") + e.what());
    }

    Layers layers;
    if (trace) {
        TraceData t;
        t.spans = &ctx.spans;
        t.tracedReps = static_cast<int>(tracedWallS.size());
        t.tracedWallS = median(tracedWallS);
        t.untracedWallS = median(wallS);
        sumPhases(prof::snapshot(), t.phases);
        for (auto &kv : t.phases) {
            kv.second.selfS /= t.tracedReps;
            kv.second.inclS /= t.tracedReps;
            kv.second.count /= t.tracedReps;
        }
        for (const char *n : kLayerNames)
            layers[n] = 0.0;
        workload->layers(layers, t);
        layers["trace_overhead_frac"] =
            t.untracedWallS > 0 ? t.tracedWallS / t.untracedWallS - 1.0
                                : 0.0;
        std::ofstream spansOs(outDir + "/" + workloadName + ".trace.json");
        ctx.spans.writeChromeTrace(spansOs);
        std::ofstream layersOs(outDir + "/" + workloadName + ".layers.json");
        obs::JsonWriter lw(layersOs);
        lw.beginObject();
        for (const auto &[k, v] : layers)
            lw.field(k, v);
        lw.endObject();
        layersOs << "\n";
    }

    char digest[16];
    std::snprintf(digest, sizeof(digest), "%08x", workload->digest());

    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("workload", workloadName);
    w.field("seed", seed);
    w.field("traced", trace);
    w.field("compiler", MEMNET_BENCH_COMPILER);
    w.field("build_type", MEMNET_BENCH_BUILD_TYPE);
    w.field("nproc",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    writeNumbers(w, "setup_s", setupS);
    writeNumbers(w, "wall_s", wallS);
    writeNumbers(w, "traced_wall_s", tracedWallS);
    w.field("sim_us_per_rep", workload->simUsPerRep());
    w.field("results_per_rep", workload->resultsPerRep());
    writeNumbers(w, "run_s", workload->runSeconds());
    writeNumbers(w, "peak_rss_mb", peakRss);
    w.field("attempted", ctx.attempted);
    w.field("failed", ctx.failed);
    w.key("failures");
    w.beginArray();
    for (const std::string &f : ctx.failures)
        w.value(f);
    w.endArray();
    w.field("digest", std::string(digest));
    if (trace) {
        w.key("layers");
        w.beginObject();
        for (const auto &[k, v] : layers)
            w.field(k, v);
        w.endObject();
    }
    w.endObject();
    std::printf("%s\n", os.str().c_str());
    return 0;
}
