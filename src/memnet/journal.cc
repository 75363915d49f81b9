#include "memnet/journal.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <mutex>
#include <set>
#include <type_traits>
#include <utility>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "mgmt/manager.hh"
#include "net/network.hh"
#include "obs/json.hh"
#include "sim/log.hh"

namespace memnet
{

namespace
{

constexpr char kHexDigits[] = "0123456789abcdef";

/** Write glibc's "%a" spelling of @p v at @p o; returns the end. */
char *
writeHexDouble(char *o, double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const unsigned biased = static_cast<unsigned>(bits >> 52) & 0x7FFu;
    std::uint64_t mant = bits & ((std::uint64_t{1} << 52) - 1);
    if (bits >> 63)
        *o++ = '-';
    if (biased == 0x7FF) {
        std::memcpy(o, mant ? "nan" : "inf", 3);
        return o + 3;
    }
    // Subnormals print as 0x0.<fraction>p-1022, zero as 0x0p+0.
    const int exp = biased ? static_cast<int>(biased) - 1023
                           : (mant ? -1022 : 0);
    *o++ = '0';
    *o++ = 'x';
    *o++ = biased ? '1' : '0';
    if (mant) {
        int digits = 13;
        for (; (mant & 0xFu) == 0; mant >>= 4)
            --digits;
        *o++ = '.';
        for (int i = digits - 1; i >= 0; --i, mant >>= 4)
            o[i] = kHexDigits[mant & 0xFu];
        o += digits;
    }
    *o++ = 'p';
    *o++ = exp < 0 ? '-' : '+';
    return std::to_chars(o, o + 4, exp < 0 ? -exp : exp).ptr;
}

/** Longest double spelling: "-0x1.fffffffffffffp-1022", or in decimal
 *  "-2.2250738585072014e-308" (shortest round-trip form). */
constexpr std::size_t kHexDoubleMax = 24;

/** Canonical decimal, exactly as std::to_chars writes it. */
template <typename T>
bool
parseDecimal(std::string_view s, T *out)
{
    const std::size_t sign = !s.empty() && s[0] == '-';
    if (s.size() == sign || s[sign] < '0' || s[sign] > '9' ||
        (s[sign] == '0' && s.size() > 1))
        return false;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
    return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

/* ----------------------------------------------------------------- *
 * The field list. One function per journaled struct names each member
 * once, in the order every writer since the first journal has used; a
 * Writer visitor appends it, a Reader visitor consumes it. Every
 * scalar is a JSON string (decimal integers, hex-float doubles), so
 * nothing is squeezed through a double. optional() marks the groups
 * later writers inserted, retired() the groups they no longer write;
 * see docs/ROBUSTNESS.md for their history.
 * ----------------------------------------------------------------- */

/** A LatencyPercentiles object (also the energy congestion sketches). */
template <class V, class P>
void
sketch(V &v, std::string_view k, P &p)
{
    v.object(k, [&] {
        v.num("samples", p.samples);
        v.num("sum_ps", p.sumPs);
        v.num("p50_ps", p.p50Ps);
        v.num("p90_ps", p.p90Ps);
        v.num("p99_ps", p.p99Ps);
        v.num("p999_ps", p.p999Ps);
        v.num("max_ps", p.maxPs);
    });
}

template <class V, class C>
void
configFields(V &v, C &c)
{
    v.str("workload", c.workload);
    v.enumeration("topology", c.topology, TopologyKind::DdrxLike);
    v.enumeration("size_class", c.sizeClass, SizeClass::Big);
    v.enumeration("mechanism", c.mechanism, BwMechanism::Dvfs);
    v.boolean("roo", c.roo);
    v.num("roo_wakeup_ps", c.rooWakeupPs);
    v.enumeration("io_attribution", c.ioAttribution,
                  IoAttribution::PerLink);
    v.hex("link_flit_error_rate", c.linkFlitErrorRate);
    v.num("watchdog_timeout_ps", c.watchdogTimeoutPs);
    v.enumeration("policy", c.policy, Policy::StaticTaper);
    v.hex("alpha_pct", c.alphaPct);
    v.num("epoch_len", c.epochLen);
    v.object("aware", [&] {
        v.num("isp_iterations", c.aware.ispIterations);
        v.boolean("congestion_discount", c.aware.congestionDiscount);
        v.boolean("wake_coordination", c.aware.wakeCoordination);
        v.boolean("grant_pool", c.aware.grantPool);
    });
    v.boolean("interleave_pages", c.interleavePages);
    v.num("warmup", c.warmup);
    v.num("measure", c.measure);
    v.num("seed", c.seed);
    v.num("cores", c.cores);
    v.num("max_reads_per_core", c.maxReadsPerCore);
    v.num("max_writes_per_core", c.maxWritesPerCore);
    v.optional([&] {
        // Kept so journals interchange with older builds. There the
        // first member counted event-kernel partitions, whose runs
        // matched serial ones bit for bit, so any count reads. The
        // other two selected a sync mode; a record of any mode but
        // this one is rejected, since its results differ.
        v.positive("partitions");
        v.constant("partition_sync", "barrier");
        v.constant("lax_window_ps", "10000000");
    });
    v.object("faults", [&] {
        v.num("flap_mean_period_ps", c.faults.flapMeanPeriodPs);
        v.num("flap_window_ps", c.faults.flapWindowPs);
        v.list("events", c.faults.events, [&](auto &f) {
            v.object({}, [&] {
                v.enumeration("kind", f.kind, FaultKind::ErrorBurst);
                v.num("at", f.at);
                v.num("link", f.link);
                v.num("duration_ps", f.durationPs);
                v.num("surviving_lanes", f.survivingLanes);
                v.hex("flit_error_rate", f.flitErrorRate);
            });
        });
    });
}

template <class V, class R>
void
resultFields(V &v, R &r)
{
    v.num("num_modules", r.numModules);
    v.object("per_hmc_w", [&] {
        v.hex("idle_io", r.perHmc.idleIoW);
        v.hex("active_io", r.perHmc.activeIoW);
        v.hex("logic_leak", r.perHmc.logicLeakW);
        v.hex("logic_dyn", r.perHmc.logicDynW);
        v.hex("dram_leak", r.perHmc.dramLeakW);
        v.hex("dram_dyn", r.perHmc.dramDynW);
    });
    v.hex("total_network_w", r.totalNetworkPowerW);
    v.hex("idle_io_frac", r.idleIoFrac);
    v.hex("reads_per_sec", r.readsPerSec);
    v.hex("avg_read_latency_ns", r.avgReadLatencyNs);
    v.hex("channel_util", r.channelUtil);
    v.hex("avg_link_util", r.avgLinkUtil);
    v.hex("avg_modules_traversed", r.avgModulesTraversed);
    v.num("completed_reads", r.completedReads);
    v.num("violations", r.violations);
    v.num("events_fired", r.eventsFired);
    v.object("reliability", [&] {
        v.num("retries", r.reliability.retries);
        v.num("replays", r.reliability.replays);
        v.num("retrains", r.reliability.retrains);
        v.hex("retrain_s", r.reliability.retrainSeconds);
        v.hex("degraded_s", r.reliability.degradedSeconds);
        v.num("fault_events", r.reliability.faultEvents);
    });
    auto &lat = r.latency;
    v.optional([&] {
        v.object("latency", [&] {
            v.boolean("enabled", lat.enabled);
            v.hex("wake_stall_s", lat.wakeStallSeconds);
            v.hex("retrain_stall_s", lat.retrainStallSeconds);
            v.num("queue_peak", lat.queuePeak);
            sketch(v, "end_to_end", lat.endToEnd);
            sketch(v, "queue", lat.queue);
            sketch(v, "wake_stall", lat.wakeStall);
            sketch(v, "retrain_stall", lat.retrainStall);
            sketch(v, "serialization", lat.serialization);
            sketch(v, "dram", lat.dram);
        });
    });
    auto &ea = r.energy.attribution;
    v.optional([&] {
        v.object("energy", [&] {
            v.boolean("enabled", r.energy.enabled);
            v.hex("tx_j", ea.txJ);
            v.hex("retrain_j", ea.retrainJ);
            v.array("idle_mode_j", ea.idleModeJ.size(),
                    [&](std::size_t i) { v.hex({}, ea.idleModeJ[i]); });
            v.hex("sleep_j", ea.sleepJ);
            v.hex("wake_j", ea.wakeJ);
            v.hex("serdes_leak_j", ea.serdesLeakJ);
            v.hex("router_j", ea.routerJ);
            v.hex("dram_leak_j", ea.dramLeakJ);
            v.hex("dram_dyn_j", ea.dramDynJ);
            v.hex("idle_io_j", ea.idleIoJ);
            v.hex("active_io_j", ea.activeIoJ);
            sketch(v, "utilization_ppm", r.energy.utilization);
            sketch(v, "occupancy", r.energy.occupancy);
        });
    });
    // Row-major [util bucket][lane mode] flattening of the 5x4 matrix.
    v.array("link_hours", kUtilBuckets * kLaneModes, [&](std::size_t i) {
        v.hex({}, r.linkHours[i / kLaneModes][i % kLaneModes]);
    });
    // profPhases are host wall-clock data, excluded from every
    // equivalence check and deliberately not journaled: a resumed
    // result has none, exactly like an unprofiled run.
    v.object("profile", [&] {
        v.num("events_fired", r.profile.eventsFired);
        v.num("events_scheduled", r.profile.eventsScheduled);
        v.hex("wall_s", r.profile.wallSeconds);
        v.hex("sim_s", r.profile.simSeconds);
        v.num("packets_issued", r.profile.packetsIssued);
        v.num("packet_heap_allocs", r.profile.packetHeapAllocs);
        v.num("audit_checks_run", r.profile.auditChecksRun);
        v.num("events_descheduled", r.profile.eventsDescheduled);
        v.num("peak_queue_depth", r.profile.peakQueueDepth);
        // The dispatch-rate series of older writers: read, then dropped.
        v.retired([&] {
            Tick windowPs = 0;
            std::vector<std::uint64_t> windows;
            v.num("dispatch_window_ps", windowPs);
            v.list("dispatch_windows", windows,
                   [&](auto &n) { v.num({}, n); });
        });
    });
    v.list("modules", r.modules, [&](auto &m) {
        v.object({}, [&] {
            v.num("id", m.id);
            v.boolean("high_radix", m.highRadix);
            v.num("hop_distance", m.hopDistance);
            v.num("dram_accesses", m.dramAccesses);
            v.num("flits_routed", m.flitsRouted);
            v.hex("request_link_util", m.requestLinkUtil);
            v.hex("response_link_util", m.responseLinkUtil);
            v.hex("request_link_power_frac", m.requestLinkPowerFrac);
            v.hex("response_link_power_frac", m.responseLinkPowerFrac);
        });
    });
}

/**
 * How a Writer spells numbers. Quoted (the journal): JSON strings,
 * doubles in hex-float. Plain (bench JSON): bare JSON numbers, doubles
 * in shortest round-trip decimal, non-finite doubles null.
 */
enum class Spelling
{
    Quoted,
    Plain,
};

/** Longest member key a Writer takes; every key is a literal. */
constexpr std::size_t kKeyMax = 64;

/**
 * A visitor that appends the fields as compact JSON to one string. An
 * empty key is an array cell. Each scalar member (comma, quoted key and
 * value) is built on the stack and appended once.
 */
template <Spelling S>
class Writer
{
  public:
    explicit Writer(std::string &out) : out(out) {}

    void
    str(std::string_view k, std::string_view s)
    {
        member(k, [](char *o) {
            *o++ = '"';
            return o;
        });
        obs::appendJsonEscaped(out, s);
        out += '"';
    }

    void
    boolean(std::string_view k, bool b)
    {
        member(k, [b](char *o) {
            return b ? std::copy_n("true", 4, o) : std::copy_n("false", 5, o);
        });
    }

    template <typename T>
    void
    num(std::string_view k, T v)
    {
        number(k, [v](char *o) { return std::to_chars(o, o + 24, v).ptr; });
    }

    /** A double: hex-float in the journal, decimal in bench JSON. */
    void
    hex(std::string_view k, double v)
    {
        number(k, [v](char *o) {
            return S == Spelling::Quoted ? writeHexDouble(o, v)
                   : std::isfinite(v)
                       ? std::to_chars(o, o + kHexDoubleMax, v).ptr
                       : std::copy_n("null", 4, o);
        });
    }

    template <typename E>
    void
    enumeration(std::string_view k, E e, E)
    {
        num(k, static_cast<int>(e));
    }

    void constant(std::string_view k, std::string_view lit) { str(k, lit); }

    void positive(std::string_view k) { num(k, 1); }

    template <typename Fn>
    void
    object(std::string_view k, Fn fn)
    {
        open(k, '{');
        fn();
        out += '}';
    }

    template <typename Fn>
    void optional(Fn fn) { fn(); }

    template <typename Fn>
    void retired(Fn) {}

    template <typename Fn>
    void
    array(std::string_view k, std::size_t n, Fn cell)
    {
        open(k, '[');
        for (std::size_t i = 0; i < n; ++i)
            cell(i);
        out += ']';
    }

    template <typename T, typename Fn>
    void
    list(std::string_view k, const std::vector<T> &items, Fn fn)
    {
        array(k, items.size(), [&](std::size_t i) { fn(items[i]); });
    }

  private:
    /**
     * Append, in one call, the separator comma, the quoted key @p k and
     * what @p fill writes (at most 32 bytes) at the pointer it is given;
     * it returns the end of what it wrote.
     */
    template <typename Fill>
    void
    member(std::string_view k, Fill fill)
    {
        char buf[kKeyMax + 40];
        char *o = buf;
        // A comma unless this opens a container or the document.
        const char last = out.empty() ? '{' : out.back();
        if (last != '{' && last != '[' && last != ':')
            *o++ = ',';
        memnet_assert(k.size() <= kKeyMax, "journal key too long: ", k);
        if (!k.empty()) {
            *o++ = '"';
            o = std::copy(k.begin(), k.end(), o);
            *o++ = '"';
            *o++ = ':';
        }
        out.append(buf, fill(o) - buf);
    }

    /** A container's key and its opening bracket @p c. */
    void
    open(std::string_view k, char c)
    {
        member(k, [c](char *o) {
            *o++ = c;
            return o;
        });
    }

    /** A number @p put writes: quoted in the journal, bare in bench JSON. */
    template <typename Put>
    void
    number(std::string_view k, Put put)
    {
        member(k, [&](char *o) {
            if constexpr (S == Spelling::Quoted) {
                *o++ = '"';
                o = put(o);
                *o++ = '"';
                return o;
            } else {
                return put(o);
            }
        });
    }

    std::string &out;
};

/** The host-side data no journal keeps; bench JSON only. */
void
hostFields(Writer<Spelling::Plain> &v, const RunProfile &p)
{
    v.list("prof_phases", p.profPhases, [&](auto &ph) {
        v.object({}, [&] {
            v.str("path", ph.path);
            v.num("ns", ph.ns);
            v.num("count", ph.count);
        });
    });
    // Deprecated, and always empty since the kernel has one queue.
    v.array("partition_lanes", 0, [](std::size_t) {});
}

/** One bench --json run: the journal record, then the host object. */
void
benchRun(Writer<Spelling::Plain> &w, const std::string &key,
         const RunResult &r)
{
    w.object({}, [&] {
        w.str("key", key);
        w.object("config", [&] { configFields(w, r.config); });
        w.object("result", [&] { resultFields(w, r); });
        w.object("host", [&] { hostFields(w, r.profile); });
    });
}

/**
 * A stats dump's "components": the end-of-run counters of one channel
 * that no record keeps. Each link's cause buckets must already be
 * flushed to now (Network::energyAttribution); module terms are computed
 * at now.
 */
void
componentsFields(Writer<Spelling::Plain> &v, Network &net,
                 const PowerManager *mgr)
{
    v.list("links", net.allLinks(), [&](const Link *l) {
        const LinkStats &s = l->stats();
        v.object({}, [&] {
            v.num("id", l->id());
            v.hex("idle_energy_j", s.idleIoJ());
            v.hex("active_energy_j", s.activeIoJ());
            v.hex("tx_energy_j", s.txJ);
            v.hex("retrain_energy_j", s.retrainJ);
            v.hex("sleep_energy_j", s.sleepJ);
            v.hex("wake_energy_j", s.wakeJ);
            v.num("flits", s.flits);
            v.num("packets", s.packets);
            v.num("read_packets", s.readPackets);
            v.num("retries", s.retries);
            v.num("replays", s.replays);
            v.num("retrains", s.retrains);
            v.hex("retrain_s", s.retrainSeconds);
            v.hex("degraded_s", s.degradedSeconds);
            v.hex("off_s", s.offSeconds);
            v.hex("wake_stall_s", s.wakeStallSeconds);
            v.hex("retrain_stall_s", s.retrainStallSeconds);
            v.num("queue_peak", s.queuePeak);
        });
    });
    const Tick now = net.eventQueue().now();
    v.array("modules", net.numModules(), [&](std::size_t m) {
        const ModuleEnergyTerms t = net.moduleEnergy(static_cast<int>(m), now);
        v.object({}, [&] {
            v.num("id", m);
            v.hex("serdes_leak_j", t.logicLeakJ);
            v.hex("router_j", t.logicDynJ);
            v.hex("dram_leak_j", t.dramLeakJ);
            v.hex("dram_dyn_j", t.dramDynJ);
        });
    });
    // Absent for the policies without epoch machinery.
    if (mgr) {
        v.object("mgmt", [&] {
            v.num("epochs", mgr->epochs());
            v.object("isp", [&] {
                v.num("rounds_total", mgr->ispRoundsTotal());
                v.num("last_rounds", mgr->lastIspRounds());
            });
            v.hex("grant_pool_ps", mgr->grantPoolRemaining());
        });
    }
    v.object("event_queue",
             [&] { v.num("pending", net.eventQueue().pending()); });
    v.object("net",
             [&] { v.num("injected_packets", net.injectedPackets()); });
}

/**
 * A visitor that hands every scalar member, with its path in the
 * record's "result" object, to a callback.
 */
class Walker
{
  public:
    using Fn = std::function<void(const std::string &, ConstFieldRef)>;

    explicit Walker(const Fn &fn) : fn(fn) {}

    template <typename T>
    void
    num(std::string_view k, const T &v)
    {
        object(k, [&] { fn(path, &v); });
    }

    void hex(std::string_view k, const double &v) { num(k, v); }

    void boolean(std::string_view k, const bool &b) { num(k, b); }

    template <typename F>
    void optional(F body) { body(); }

    template <typename F>
    void retired(F) {}

    template <typename F>
    void
    array(std::string_view k, std::size_t n, F cell)
    {
        object(k, [&] {
            const std::size_t mark = path.size();
            for (std::size_t i = 0; i < n; ++i) {
                ((path += '[') += std::to_string(i)) += ']';
                cell(i);
                path.resize(mark);
            }
        });
    }

    template <typename T, typename F>
    void
    list(std::string_view k, const std::vector<T> &items, F each)
    {
        array(k, items.size(), [&](std::size_t i) { each(items[i]); });
    }

    /** Run @p body with member @p k (none: an array cell) on the path. */
    template <typename F>
    void
    object(std::string_view k, F body)
    {
        const std::size_t mark = path.size();
        if (!path.empty() && !k.empty())
            path += '.';
        path += k;
        body();
        path.resize(mark);
    }

  private:
    const Fn &fn;
    std::string path;
};

/**
 * A visitor that consumes exactly what Writer produces, in order, from
 * a view of the payload: no DOM, no whitespace, no reordering. The
 * first failure is kept as a path-tagged message ("config.faults.
 * events[0].kind: missing") and turns every later call into a no-op.
 */
class Reader
{
  public:
    explicit Reader(std::string_view text)
        : p(text.data()), end(text.data() + text.size())
    {
    }

    std::string err;

    bool ok() const { return err.empty(); }

    void
    str(std::string_view k, std::string &s)
    {
        if (member(k) && !string(&s))
            fail(k, "not a string");
    }

    void
    boolean(std::string_view k, bool &b)
    {
        if (!member(k))
            return;
        if (literal("true"))
            b = true;
        else if (literal("false"))
            b = false;
        else
            fail(k, "not a bool");
    }

    template <typename T>
    void
    num(std::string_view k, T &v)
    {
        using Wide = std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                        std::uint64_t>;
        std::string_view s;
        Wide w = 0;
        if (!member(k) || !quoted(k, &s))
            return;
        if (!parseDecimal(s, &w))
            fail(k, k.empty() ? "bad u64"
                              : (std::is_signed_v<T> ? "not an i64: '"
                                                     : "not a u64: '") +
                                    std::string(s) + "'");
        else if (!std::in_range<T>(w))
            fail(k, "out of int range");
        else
            v = static_cast<T>(w);
    }

    void
    hex(std::string_view k, double &v)
    {
        std::string_view s;
        if (!member(k))
            return;
        if (!quoted(k, &s) || !parseHexDouble(s, &v))
            fail(k, k.empty() ? "bad hex-float cell"
                              : "not a hex-float: '" + std::string(s) + "'");
    }

    /** An enum written as its integer value; @p last bounds it. */
    template <typename E>
    void
    enumeration(std::string_view k, E &e, E last)
    {
        int v = -1;
        num(k, v);
        if (live() && (v < 0 || v > static_cast<int>(last)))
            fail(k, "out of range: " + std::to_string(v));
        else if (live())
            e = static_cast<E>(v);
    }

    /** A member whose only accepted value is the string @p lit. */
    void
    constant(std::string_view k, std::string_view lit)
    {
        std::string_view s;
        if (member(k) && quoted(k, &s) && s != lit)
            fail(k, "unsupported value '" + std::string(s) +
                        "' (only '" + std::string(lit) + "' is simulated)");
    }

    /** A whole number >= 1 that selects nothing: read and dropped. */
    void
    positive(std::string_view k)
    {
        std::int64_t v = 1;
        num(k, v);
        if (live() && v < 1)
            fail(k, "not positive: " + std::to_string(v));
    }

    template <typename Fn>
    void
    object(std::string_view k, Fn fn)
    {
        if (member(k))
            nest(k, '{', "not an object", fn);
    }

    /**
     * A group of members older journals lack. Absent (the next key is
     * not the group's first), it is skipped and keeps its defaults.
     */
    template <typename Fn>
    void
    optional(Fn fn)
    {
        probing = live();
        fn();
        probing = skipping = false;
    }

    /**
     * A group later writers dropped: read like optional() when present,
     * into @p fn's own locals, which are then discarded.
     */
    template <typename Fn>
    void retired(Fn fn) { optional(fn); }

    /** Exactly @p n cells. */
    template <typename Fn>
    void
    array(std::string_view k, std::size_t n, Fn cell)
    {
        const auto wrongShape = [&] {
            fail({}, std::string(n == 8 ? "not an " : "not a ") +
                         std::to_string(n) + "-element array");
        };
        if (member(k))
            nest(k, 0, {}, [&] {
                std::size_t i = 0;
                if (!take('['))
                    return wrongShape();
                for (; live() && !take(']'); ++i)
                    i < n ? cell(i) : wrongShape();
                if (live() && i != n)
                    wrongShape();
            });
    }

    template <typename T, typename Fn>
    void
    list(std::string_view k, std::vector<T> &items, Fn fn)
    {
        if (!member(k))
            return;
        items.clear();
        nest(k, '[', "not an array", [&] {
            while (live() && !take(']')) {
                // Elements that are objects carry their index in paths.
                if constexpr (std::is_class_v<T>) {
                    char at[24] = "[";
                    char *e = std::to_chars(at + 1, at + 22, items.size()).ptr;
                    *e++ = ']';
                    T &item = items.emplace_back();
                    scoped(std::string_view(at, e - at), [&] { fn(item); });
                } else {
                    fn(items.emplace_back());
                }
            }
        });
    }

    /** The whole payload is one object. */
    template <typename Fn>
    void
    document(Fn fn)
    {
        nest({}, '{', "not an object", fn);
        if (live() && p != end)
            fail({}, "trailing content after the record");
    }

    /** Read @p fn's members with @p name prefixed to error paths. */
    template <typename Fn>
    void scoped(std::string_view name, Fn fn) { nest(name, 0, {}, fn); }

  private:
    bool live() const { return ok() && !skipping; }

    void
    fail(std::string_view k, const std::string &what)
    {
        if (!ok())
            return;
        std::string at = path;
        if (!k.empty())
            (at += at.empty() ? "" : ".") += k;
        err = (at.empty() ? "record" : at) + ": " + what;
    }

    /**
     * Extend error paths by @p name while @p fn reads. With an @p open
     * byte ('{' or '['), @p fn reads the container's members; an array
     * reader consumes its own ']'.
     */
    template <typename Fn>
    void
    nest(std::string_view name, char open, std::string_view notOpen,
         Fn fn)
    {
        const std::size_t mark = path.size();
        if (!path.empty() && !name.empty() && name[0] != '[')
            path += '.';
        path += name;
        if (!open) {
            fn();
        } else if (!take(open)) {
            fail({}, std::string(notOpen));
        } else {
            fn();
            if (open == '{' && live() && !take('}'))
                fail({}, p == end ? "truncated" : "unexpected member");
        }
        path.resize(mark);
    }

    bool take(char c) { return literal(std::string_view(&c, 1)); }

    bool
    literal(std::string_view lit)
    {
        if (!std::string_view(p, end - p).starts_with(lit))
            return false;
        p += lit.size();
        return true;
    }

    /** Consume `,"k":` (no comma first in a container, no key in cells). */
    bool
    member(std::string_view k)
    {
        if (!live())
            return false;
        const char *q = p;
        if (p[-1] != '{' && p[-1] != '[' && (q == end || *q++ != ','))
            return missing(k);
        if (!k.empty()) {
            if (static_cast<std::size_t>(end - q) < k.size() + 3 ||
                q[0] != '"' || std::memcmp(q + 1, k.data(), k.size()) ||
                q[k.size() + 1] != '"' || q[k.size() + 2] != ':')
                return missing(k);
            q += k.size() + 3;
        }
        p = q;
        probing = false;
        return true;
    }

    bool
    missing(std::string_view k)
    {
        if (probing)
            skipping = true;
        else
            fail(k, k.empty() ? "expected ',' or ']'" : "missing");
        probing = false;
        return false;
    }

    /** The first '"' after the one at p; null when p starts no string. */
    const char *
    closingQuote() const
    {
        return p == end || *p != '"'
                   ? nullptr
                   : static_cast<const char *>(
                         std::memchr(p + 1, '"', end - p - 1));
    }

    /** A string with no escapes (every number is one). */
    bool
    quoted(std::string_view k, std::string_view *s)
    {
        const char *close = closingQuote();
        if (!close) {
            fail(k, "not a string");
            return false;
        }
        *s = std::string_view(p + 1, close - p - 1);
        p = close + 1;
        return true;
    }

    /** A JSON string escaped exactly as obs::jsonEscape() writes it. */
    bool
    string(std::string *out)
    {
        // A string with no byte jsonEscape() changes is its own spelling.
        const char *close = closingQuote();
        if (close && std::none_of(p + 1, close, [](unsigned char c) {
                return c < 0x20 || c == '\\';
            })) {
            out->assign(p + 1, close);
            p = close + 1;
            return true;
        }
        const std::size_t n =
            obs::json::parseString(std::string_view(p, end - p), out);
        if (n == 0 || obs::jsonEscape(*out) != std::string_view(p + 1, n - 2))
            return false;
        p += n;
        return true;
    }

    const char *p;
    const char *end;
    /** Where the member being read sits ("config.faults.events[0]"). */
    std::string path;
    /** Inside optional() before its first member matched. */
    bool probing = false;
    /** Inside an optional() group found absent. */
    bool skipping = false;
};

/** Fixed framing around the checksummed record payload. */
constexpr std::string_view kFrameHead = "{\"journal_version\":1,\"crc32\":\"";
constexpr std::string_view kFrameMid = "\",\"record\":";
constexpr std::size_t kCrcHexLen = 8;

void
writeCrcHex(char *o, std::uint32_t crc)
{
    for (int i = kCrcHexLen - 1; i >= 0; --i, crc >>= 4)
        o[i] = kHexDigits[crc & 0xFu];
}

/** Bench JSON runs formatted per batch by one thread. */
constexpr std::size_t kRunsPerBatch = 16;

/** Journal bytes parsed per range by one thread. */
constexpr std::uintmax_t kLoadGrain = std::uintmax_t{1} << 20;

/** What one byte range of a journal holds. */
struct JournalRange
{
    std::map<std::string, RunResult> results;
    /** Lines that start in the range. */
    std::size_t lines = 0;
    std::size_t records = 0;
    /** Records whose key an earlier line of the range already had. */
    std::size_t duplicates = 0;
    /** (line number within the range, why) per damaged line. */
    std::vector<std::pair<std::size_t, std::string>> skipped;
    /** The range's own stream did not open. */
    bool unreadable = false;
};

/** Parse the lines of @p is whose first byte lies in [begin, end). */
void
parseRange(std::istream &is, std::uintmax_t begin, std::uintmax_t end,
           JournalRange *out)
{
    std::string line;
    std::uintmax_t at = begin;
    if (begin > 0) {
        // Skip the rest of the line holding byte begin - 1: it started
        // in an earlier range (or is empty, when begin starts a line).
        is.seekg(static_cast<std::streamoff>(begin - 1));
        std::getline(is, line);
        at += line.size();
    }
    while (at < end && std::getline(is, line)) {
        ++out->lines;
        at += line.size() + 1;
        if (line.empty())
            continue;
        std::string key, lineErr;
        RunResult r;
        if (!parseJournalLine(line, &key, &r, &lineErr)) {
            out->skipped.emplace_back(out->lines, std::move(lineErr));
            continue;
        }
        ++out->records;
        if (!out->results.insert_or_assign(std::move(key), std::move(r))
                 .second)
            ++out->duplicates;
    }
}

} // namespace

std::string
hexDouble(double v)
{
    char buf[kHexDoubleMax];
    return std::string(buf, writeHexDouble(buf, v));
}

bool
parseHexDouble(std::string_view s, double *out)
{
    std::uint64_t bits = 0;
    if (!s.empty() && s[0] == '-') {
        bits = std::uint64_t{1} << 63;
        s.remove_prefix(1);
    }
    if (s == "inf" || s == "nan") {
        bits |= s == "inf" ? 0x7FF0000000000000u : 0x7FF8000000000000u;
        *out = std::bit_cast<double>(bits);
        return true;
    }
    if (s.size() < 3 || s[0] != '0' || s[1] != 'x' ||
        (s[2] != '0' && s[2] != '1'))
        return false;
    const bool normal = s[2] == '1';
    s.remove_prefix(3);
    std::uint64_t mant = 0;
    if (!s.empty() && s[0] == '.') {
        int digits = 0;
        for (s.remove_prefix(1); !s.empty(); s.remove_prefix(1)) {
            // Lower-case digits only, as writeHexDouble spells them.
            const char c = s[0];
            const int d = c >= '0' && c <= '9'   ? c - '0'
                          : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                                 : -1;
            if (d < 0)
                break;
            if (++digits > 13)
                return false;
            mant = mant << 4 | static_cast<unsigned>(d);
        }
        // A written fraction has no trailing zero digit.
        if ((mant & 0xFu) == 0)
            return false;
        mant <<= 4 * (13 - digits);
    }
    if (s.size() < 3 || s[0] != 'p' || (s[1] != '+' && s[1] != '-') ||
        s[2] == '-')
        return false;
    const bool negative = s[1] == '-';
    int exp = 0;
    if (!parseDecimal(s.substr(2), &exp) || (negative && exp == 0))
        return false;
    if (negative)
        exp = -exp;
    if (normal) {
        if (exp < -1022 || exp > 1023)
            return false;
        bits |= static_cast<std::uint64_t>(exp + 1023) << 52 | mant;
    } else if (exp != (mant ? -1022 : 0)) {
        return false;
    } else {
        bits |= mant;
    }
    *out = std::bit_cast<double>(bits);
    return true;
}

std::string
journalRecordLine(const std::string &key, const RunResult &r)
{
    std::string line;
    line.reserve(4096 + 320 * r.modules.size());
    line += kFrameHead;
    line.append(kCrcHexLen, '0');
    line += kFrameMid;
    const std::size_t payloadOff = line.size();
    Writer<Spelling::Quoted> w(line);
    w.object({}, [&] {
        w.str("key", key);
        w.object("config", [&] { configFields(w, r.config); });
        w.object("result", [&] { resultFields(w, r); });
    });
    writeCrcHex(line.data() + kFrameHead.size(),
                crc32(line.data() + payloadOff, line.size() - payloadOff));
    line += "}\n";
    return line;
}

void
forEachResultField(const RunResult &r,
                   const std::function<void(const std::string &,
                                            ConstFieldRef)> &fn)
{
    Walker w(fn);
    resultFields(w, r);
}

void
writeBenchResultsJson(std::ostream &os, const std::string &bench,
                      const std::map<std::string, RunResult> &results)
{
    std::string head;
    obs::appendJsonEscaped(head, bench);
    os << "{\"schema_version\":" << kBenchJsonSchemaVersion
       << ",\"bench\":\"" << head << "\",\"runs\":[";
    // Runs are formatted in batches on every core and written in map
    // order: each batch waits for its turn, so the threads hold at most
    // one batch each, never the whole document (tens of MB for a sweep).
    std::vector<std::map<std::string, RunResult>::const_iterator> starts;
    std::size_t n = 0;
    for (auto it = results.begin(); it != results.end(); ++it, ++n)
        if (n % kRunsPerBatch == 0)
            starts.push_back(it);
    starts.push_back(results.end());
    std::mutex mu;
    std::condition_variable turnCv;
    std::size_t turn = 0;
    bool failed = false;
    forEachChunk(starts.size() - 1, /*threads=*/0, [&](std::size_t b) {
        std::string text;
        std::exception_ptr error;
        try {
            // The writer puts the comma between two runs of one batch.
            Writer<Spelling::Plain> w(text);
            for (auto it = starts[b]; it != starts[b + 1]; ++it)
                benchRun(w, it->first, it->second);
        } catch (...) {
            error = std::current_exception();
        }
        std::unique_lock<std::mutex> lock(mu);
        turnCv.wait(lock, [&] { return turn == b; });
        // After a failed batch nothing more is written, as when the
        // runs were formatted one after another.
        failed = failed || error;
        if (!failed) {
            if (b > 0)
                os.put(',');
            os.write(text.data(), static_cast<std::streamsize>(text.size()));
        }
        ++turn;
        turnCv.notify_all();
        if (error)
            std::rethrow_exception(error);
    });
    os << "]}\n";
}

void
writeStatsJson(std::ostream &os, const std::string &key, const RunResult &r,
               Network &net, const PowerManager *mgr)
{
    std::string buf;
    Writer<Spelling::Plain> w(buf);
    w.object({}, [&] {
        w.num("schema_version", kBenchJsonSchemaVersion);
        w.str("bench", "stats");
        w.array("runs", 1, [&](std::size_t) { benchRun(w, key, r); });
        w.object("components",
                 [&] { componentsFields(w, net, mgr); });
    });
    buf += '\n';
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

bool
parseJournalLine(std::string_view line, std::string *key,
                 RunResult *result, std::string *err)
{
    const auto fail = [err](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };

    if (!line.empty() && line.back() == '\n')
        line.remove_suffix(1);

    // Framing: fixed head, 8 hex digits, fixed mid, payload, '}'.
    const std::size_t payloadOff =
        kFrameHead.size() + kCrcHexLen + kFrameMid.size();
    if (line.size() < payloadOff + 1 || !line.starts_with(kFrameHead) ||
        line.substr(kFrameHead.size() + kCrcHexLen, kFrameMid.size()) !=
            kFrameMid ||
        line.back() != '}')
        return fail("bad framing (torn or foreign line)");
    const std::string_view payload =
        line.substr(payloadOff, line.size() - payloadOff - 1);

    char crc[kCrcHexLen];
    writeCrcHex(crc, crc32(payload.data(), payload.size()));
    if (line.substr(kFrameHead.size(), kCrcHexLen) !=
        std::string_view(crc, kCrcHexLen))
        return fail("checksum mismatch (torn or corrupt record)");

    Reader rd(payload);
    std::string recordedKey;
    RunResult out;
    rd.document([&] {
        rd.scoped("record", [&] { rd.str("key", recordedKey); });
        rd.object("config", [&] { configFields(rd, out.config); });
        rd.object("result", [&] { resultFields(rd, out); });
    });
    if (!rd.ok())
        return fail(rd.err);

    // The recorded key must reproduce from the deserialized config:
    // catches silent format drift (a field added to Runner::key but
    // not the journal) before it poisons a resumed sweep.
    const std::string recomputed = Runner::key(out.config);
    if (recomputed != recordedKey)
        return fail("key mismatch: recorded '" + recordedKey +
                    "' vs recomputed '" + recomputed + "'");

    *key = std::move(recordedKey);
    *result = std::move(out);
    return true;
}

bool
loadJournal(const std::string &path,
            std::map<std::string, RunResult> *out,
            JournalLoadStats *stats, std::string *err)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::file_status st = fs::status(path, ec);
    if (fs::is_directory(st)) {
        if (err)
            *err = "journal path is a directory: " + path;
        return false;
    }
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open journal: " + path;
        return false;
    }
    // A regular file splits into one range per kLoadGrain bytes, the
    // last reading to EOF; anything else (a pipe) is one range.
    const std::uintmax_t size =
        fs::is_regular_file(st) ? fs::file_size(path, ec) : 0;
    std::vector<JournalRange> ranges(
        std::max<std::uintmax_t>(1, ec ? 0 : size / kLoadGrain));
    forEachChunk(ranges.size(), /*threads=*/0, [&](std::size_t i) {
        std::ifstream own;
        if (i > 0) {
            own.open(path);
            ranges[i].unreadable = !own;
        }
        parseRange(i > 0 ? own : is, i * kLoadGrain,
                   i + 1 < ranges.size()
                       ? (i + 1) * kLoadGrain
                       : std::numeric_limits<std::uintmax_t>::max(),
                   &ranges[i]);
    });
    if (std::any_of(ranges.begin(), ranges.end(),
                    [](const JournalRange &r) { return r.unreadable; })) {
        if (err)
            *err = "cannot open journal: " + path;
        return false;
    }
    // Merge in file order, so warnings come in line order and a later
    // record replaces an earlier one with the same key.
    JournalLoadStats local;
    std::size_t lineBase = 0;
    for (JournalRange &r : ranges) {
        for (const auto &[lineNo, lineErr] : r.skipped)
            memnet_warn("journal ", path, " line ", lineBase + lineNo,
                        " skipped: ", lineErr);
        lineBase += r.lines;
        local.corrupt += r.skipped.size();
        local.records += r.records;
        local.duplicates += r.duplicates;
        // merge() moves the nodes of new keys; what stays behind are
        // keys already loaded, which this range's record replaces.
        out->merge(r.results);
        local.duplicates += r.results.size();
        for (auto &[key, result] : r.results)
            out->find(key)->second = std::move(result);
    }
    local.loaded = local.records - local.duplicates;
    if (stats)
        *stats = local;
    return true;
}

bool
RunJournal::open()
{
    std::lock_guard<std::mutex> lock(mu);
    // Seal a torn tail first: a SIGKILL mid-append can leave the file
    // ending in a partial line with no terminating newline. Appending
    // straight after it would glue the next record onto the fragment
    // and corrupt that record too. A lone newline turns the fragment
    // into its own line, which loadJournal() rejects and skips.
    {
        std::ifstream probe(path_, std::ios::binary);
        if (probe) {
            probe.seekg(0, std::ios::end);
            const std::streamoff size = probe.tellg();
            if (size > 0) {
                probe.seekg(size - 1);
                char last = '\n';
                if (probe.get(last) && last != '\n') {
                    std::ofstream seal(path_, std::ios::app);
                    seal << '\n';
                }
            }
        }
    }
    os.open(path_, std::ios::app);
    if (!os) {
        memnet_warn("cannot open run journal for append: ", path_);
        return false;
    }
    return true;
}

void
RunJournal::append(const std::string &key, const RunResult &r)
{
    const std::string line = journalRecordLine(key, r);
    std::lock_guard<std::mutex> lock(mu);
    if (!os.is_open())
        return;
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
    // One flush per record: a killed sweep loses at most the line that
    // was mid-write, which loadJournal() detects and skips.
    os.flush();
    if (!os && !warned) {
        warned = true;
        memnet_warn("run journal write failed (disk full?): ", path_);
    } else if (os) {
        ++appended_;
    }
}

void
writeFailureManifest(std::ostream &os, const std::string &source,
                     double configTimeoutSec,
                     const std::vector<RunFailure> &failures)
{
    // First failure wins per key: a duplicate config raced past the
    // isolation marker fails identically and adds no information.
    std::vector<const RunFailure *> unique;
    std::set<std::string> seen;
    for (const RunFailure &f : failures)
        if (seen.insert(f.key).second)
            unique.push_back(&f);
    std::string doc;
    Writer<Spelling::Plain> w(doc);
    Writer<Spelling::Quoted> journal(doc);
    w.object({}, [&] {
        w.num("schema_version", kFailureManifestVersion);
        w.str("source", source);
        w.hex("config_timeout_s", configTimeoutSec);
        w.list("failures", unique, [&](const RunFailure *f) {
            w.object({}, [&] {
                w.str("key", f->key);
                w.str("describe", f->config.describe());
                w.boolean("timeout", f->timeout);
                w.hex("wall_s", f->wallSeconds);
                w.str("error", f->message);
                journal.object("config",
                               [&] { configFields(journal, f->config); });
            });
        });
    });
    os << doc << "\n";
}

} // namespace memnet
