/**
 * @file
 * Tests for the observability subsystem: JSON writer/parser round-trip,
 * the stats dump, the epoch JSONL schema, Chrome-trace validity, the
 * ISP instants, and — most importantly — that enabling any of it does
 * not perturb the simulation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/simulator.hh"
#include "obs/json.hh"

#include "json_dom.hh"

namespace memnet
{
namespace
{

using obs::json::Value;

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** A short managed run: several epochs, links sleeping and waking. */
SystemConfig
obsConfig()
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.topology = TopologyKind::Star;
    cfg.sizeClass = SizeClass::Big;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg.policy = Policy::Aware;
    cfg.warmup = us(50);
    cfg.measure = us(300);
    return cfg;
}

// ---------------------------------------------------------------------------
// JsonWriter / json::parse round-trip

TEST(ObsJson, WriterParserRoundTrip)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("int", std::int64_t{-42});
    w.field("uint", std::uint64_t{18446744073709551615ULL});
    w.field("pi", 3.25);
    w.field("yes", true);
    w.field("text", std::string("quote \" slash \\ tab \t"));
    w.key("null");
    w.null();
    w.key("arr");
    w.beginArray();
    w.value(std::int64_t{1});
    w.beginObject();
    w.field("nested", false);
    w.endObject();
    w.endArray();
    w.endObject();

    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), &v, &err)) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("int")->number, -42.0);
    EXPECT_EQ(v.find("pi")->number, 3.25);
    EXPECT_TRUE(v.find("yes")->boolean);
    EXPECT_EQ(v.find("text")->string, "quote \" slash \\ tab \t");
    EXPECT_EQ(v.find("null")->kind, Value::Kind::Null);
    ASSERT_TRUE(v.find("arr")->isArray());
    ASSERT_EQ(v.find("arr")->array.size(), 2u);
    EXPECT_EQ(v.find("arr")->array[1].find("nested")->boolean, false);
}

TEST(ObsJson, StringLiteralsAreWrittenAsStrings)
{
    // Without the const char * overload a literal would convert to
    // bool and silently write `true`; memnet_bench's trace writes
    // literals through field().
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginArray();
    w.value("x");
    w.beginObject();
    w.field("ph", "X");
    w.endObject();
    w.endArray();
    EXPECT_EQ(os.str(), R"(["x",{"ph":"X"}])");
}

TEST(ObsJson, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginArray();
    w.value(std::numeric_limits<double>::infinity());
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.endArray();
    Value v;
    ASSERT_TRUE(obs::json::parse(os.str(), &v));
    ASSERT_EQ(v.array.size(), 2u);
    EXPECT_EQ(v.array[0].kind, Value::Kind::Null);
    EXPECT_EQ(v.array[1].kind, Value::Kind::Null);
}

/** What the writer's bytes are specified as: printf formatting. */
std::string
printfNumber(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
}

TEST(ObsJson, WriterBytesMatchPrintfOnRandomValues)
{
    std::mt19937_64 rng(1016);
    std::ostringstream os;
    std::string expected;
    {
        obs::JsonWriter w(os);
        w.beginArray();
        for (int i = 0; i < 400'000; ++i) {
            expected += i ? "," : "[";
            std::uint64_t bits = rng();
            if (i % 3 == 0) // small exponents: the fixed-notation range
                bits = (bits & 0x800FFFFFFFFFFFFFu) |
                       (std::uint64_t{1023 - 30 + bits % 60} << 52);
            double d;
            std::memcpy(&d, &bits, sizeof d);
            if (i % 5 == 0)
                d = static_cast<double>(static_cast<std::int64_t>(bits) >>
                                        (bits % 64)); // integral values
            w.value(d);
            expected += std::isfinite(d) ? printfNumber("%.17g", d) : "null";
            const auto n = static_cast<std::int64_t>(rng());
            w.value(n);
            (expected += ',') += std::to_string(n);
            w.value(static_cast<std::uint64_t>(n));
            (expected += ',') += std::to_string(static_cast<std::uint64_t>(n));
        }
        w.endArray();
        expected += "]";
    }
    EXPECT_EQ(os.str(), expected);
}

TEST(ObsJson, KeysAndStringsEscapeExactlyAsJsonEscape)
{
    std::mt19937_64 rng(3);
    for (int i = 0; i < 2000; ++i) {
        std::string s(rng() % 12, ' ');
        for (char &c : s)
            c = static_cast<char>(rng() % 2 ? 'a' + rng() % 26 : rng() % 128);
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.beginObject();
        w.field(s, s);
        w.endObject();
        const std::string q = '"' + obs::jsonEscape(s) + '"';
        ASSERT_EQ(os.str(), '{' + q + ':' + q + '}');
        std::string back;
        ASSERT_EQ(obs::json::parseString(q, &back), q.size());
        ASSERT_EQ(back, s);
    }
}

TEST(ObsJson, ParserRejectsMalformedInput)
{
    Value v;
    EXPECT_FALSE(obs::json::parse("{\"a\":1,}", &v));
    EXPECT_FALSE(obs::json::parse("[1 2]", &v));
    EXPECT_FALSE(obs::json::parse("{\"a\":1} trailing", &v));
    EXPECT_FALSE(obs::json::parse("", &v));
}

// ---------------------------------------------------------------------------
// End-to-end outputs of an instrumented run

class ObsRunTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Tag paths with the test name: under `ctest -j N` each TEST_F
        // is its own process, and fixed names in the shared TempDir
        // would let concurrent tests clobber each other's files.
        const std::string dir =
            ::testing::TempDir() + "obs_" +
            ::testing::UnitTest::GetInstance()->current_test_info()
                ->name() + "_";
        cfg = obsConfig();
        cfg.obs.statsJsonPath = dir + "stats.json";
        cfg.obs.epochJsonlPath = dir + "epochs.jsonl";
        cfg.obs.chromeTracePath = dir + "trace.json";
        result = runSimulation(cfg);
    }

    SystemConfig cfg;
    RunResult result;
};

TEST_F(ObsRunTest, StatsJsonIsTheBenchRunPlusComponents)
{
    // Up to the end of runs[0], the dump is byte for byte the bench
    // JSON writeBenchResultsJson writes for the same key and result.
    const std::string dump = readFile(cfg.obs.statsJsonPath);
    std::ostringstream os;
    writeBenchResultsJson(os, "stats", {{Runner::key(cfg), result}});
    const std::string tail = "]}\n";
    const std::string bench = os.str();
    ASSERT_TRUE(bench.ends_with(tail));
    const std::string head = bench.substr(0, bench.size() - tail.size());
    EXPECT_EQ(dump.substr(0, head.size()), head);
    EXPECT_EQ(dump.compare(head.size(), 15, "],\"components\":"), 0);

    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(dump, &v, &err)) << err;
    const Value *c = v.find("components");
    ASSERT_NE(c, nullptr);
    // Every link of the network (request and response per module) and
    // every module, in id order.
    const auto &links = c->find("links")->array;
    ASSERT_EQ(links.size(), 2u * result.numModules);
    for (std::size_t i = 0; i < links.size(); ++i)
        EXPECT_EQ(links[i].find("id")->number, static_cast<double>(i));
    EXPECT_EQ(c->find("modules")->array.size(),
              static_cast<std::size_t>(result.numModules));
    EXPECT_GT(c->find("mgmt")->find("epochs")->number, 0.0);
    EXPECT_EQ(c->find("event_queue")->find("depth_hist_p2")->array.size(),
              EventQueue::kDepthBuckets);
    EXPECT_GT(c->find("net")->find("injected_packets")->number, 0.0);
}

TEST_F(ObsRunTest, EpochJsonlRecordsFollowSchema)
{
    std::ifstream is(cfg.obs.epochJsonlPath);
    std::string line;
    int records = 0;
    std::size_t total_link_entries = 0;
    double last_epoch = 0.0;
    std::int64_t last_t = -1;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        Value v;
        std::string err;
        ASSERT_TRUE(obs::json::parse(line, &v, &err)) << err;
        ASSERT_TRUE(v.isObject());
        EXPECT_EQ(v.find("v")->number, 3.0);
        EXPECT_GT(v.find("epoch")->number, last_epoch);
        last_epoch = v.find("epoch")->number;
        const auto t =
            static_cast<std::int64_t>(v.find("t_ps")->number);
        EXPECT_GT(t, last_t);
        last_t = t;

        const Value *power = v.find("power_w");
        ASSERT_NE(power, nullptr);
        for (const char *k :
             {"idle_io", "active_io", "logic_leak", "dram_leak",
              "logic_dyn", "dram_dyn", "total"})
            ASSERT_NE(power->find(k), nullptr) << k;

        // Schema v3: per-cause average power from the attribution
        // ledger rides alongside the coarse power_w block.
        const Value *energy = v.find("energy_w");
        ASSERT_NE(energy, nullptr);
        for (const char *k :
             {"tx", "retrain", "idle_floor", "sleep", "wake",
              "serdes_leak", "router", "dram_leak", "dram_dyn"})
            ASSERT_NE(energy->find(k), nullptr) << k;

        const Value *mgmt = v.find("mgmt");
        ASSERT_NE(mgmt, nullptr);
        ASSERT_NE(mgmt->find("violations_total"), nullptr);

        // Schema v3 elides zero-activity links, so the array holds at
        // most every link and entries are identified by "id", not by
        // position.
        const Value *links = v.find("links");
        ASSERT_NE(links, nullptr);
        ASSERT_TRUE(links->isArray());
        EXPECT_LE(links->array.size(),
                  static_cast<std::size_t>(2 * result.numModules));
        for (const Value &le : links->array) {
            for (const char *k :
                 {"id", "reads", "actual_ps", "full_ps", "ams_ps",
                  "flo_ps", "grants", "forced_fp", "bw_mode",
                  "roo_mode", "off_s", "retrain_s", "mode_s",
                  "wake_stall_s", "retrain_stall_s", "queue_peak"})
                ASSERT_NE(le.find(k), nullptr) << k;
            const Value *ej = le.find("energy_j");
            ASSERT_NE(ej, nullptr);
            for (const char *k :
                 {"tx", "retrain", "idle_floor", "sleep", "wake"})
                ASSERT_NE(ej->find(k), nullptr) << k;
            total_link_entries++;
        }

        ASSERT_NE(v.find("faults"), nullptr);

        // Schema v2: per-epoch latency percentiles from exact sketch
        // deltas (max_ps deliberately absent — not diffable).
        const Value *lat = v.find("lat");
        ASSERT_NE(lat, nullptr);
        ASSERT_NE(lat->find("samples"), nullptr);
        for (const char *comp :
             {"end_to_end", "queue", "wake_stall", "retrain_stall",
              "serialization", "dram"}) {
            const Value *c = lat->find(comp);
            ASSERT_NE(c, nullptr) << comp;
            for (const char *k :
                 {"samples", "sum_ps", "p50_ps", "p90_ps", "p99_ps",
                  "p999_ps"})
                ASSERT_NE(c->find(k), nullptr) << comp << "." << k;
            ASSERT_EQ(c->find("max_ps"), nullptr) << comp;
        }
        ++records;
    }
    // 350 us of simulated time at the default 100 us epoch.
    EXPECT_GE(records, 2);
    // The workload drives traffic, so active links must survive the
    // v3 zero-activity elision.
    EXPECT_GT(total_link_entries, 0u);
}

TEST_F(ObsRunTest, EpochEnergyValuesAddUpAndMatchTheTrace)
{
    const char *const kPower[] = {"idle_io",   "active_io", "logic_leak",
                                  "logic_dyn", "dram_leak", "dram_dyn"};
    const char *const kCauses[] = {"tx",          "retrain", "idle_floor",
                                   "sleep",       "wake",    "serdes_leak",
                                   "router",      "dram_leak", "dram_dyn"};

    // The trace's energy_w samples by timestamp (ps).
    Value trace;
    std::string err;
    ASSERT_TRUE(obs::json::parse(readFile(cfg.obs.chromeTracePath),
                                 &trace, &err))
        << err;
    std::map<std::int64_t, const Value *> samples;
    for (const Value &e : trace.find("traceEvents")->array) {
        if (e.find("ph")->string == "C" &&
            e.find("name")->string == "energy_w")
            samples[std::llround(e.find("ts")->number * 1e6)] =
                e.find("args");
    }
    const auto nine_decimals = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9f", v);
        return std::string(buf);
    };

    std::ifstream is(cfg.obs.epochJsonlPath);
    std::string line;
    std::size_t records = 0;
    while (std::getline(is, line)) {
        Value v;
        ASSERT_TRUE(obs::json::parse(line, &v, &err)) << err;
        const auto t = static_cast<std::int64_t>(v.find("t_ps")->number);
        const Value &power = *v.find("power_w");
        const Value &energy = *v.find("energy_w");
        const double total = power.find("total")->number;
        EXPECT_GT(total, 0.0) << t;

        // power_w.total is the sum of its six Figure-5 components.
        double six = 0.0;
        for (const char *k : kPower)
            six += power.find(k)->number;
        EXPECT_NEAR(six, total, 1e-12 * total) << t;

        // The nine causes split the same joules.
        double nine = 0.0;
        for (const char *k : kCauses)
            nine += energy.find(k)->number;
        EXPECT_NEAR(nine, total, 1e-9 * total) << t;

        // The trace sample at the same tick renders the same watts at
        // its 9-decimal precision.
        const auto it = samples.find(t);
        ASSERT_NE(it, samples.end()) << "no energy_w sample at " << t;
        for (const char *k : kCauses)
            EXPECT_EQ(nine_decimals(it->second->find(k)->number),
                      nine_decimals(energy.find(k)->number))
                << k << " at " << t;
        ++records;
    }
    EXPECT_GE(records, 2u);
    EXPECT_EQ(records, samples.size());
}

TEST_F(ObsRunTest, ChromeTraceIsValidAndTimeOrdered)
{
    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(readFile(cfg.obs.chromeTracePath), &v,
                                 &err))
        << err;
    const Value *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GT(events->array.size(), 10u);

    bool saw_process_meta = false, saw_thread_meta = false;
    bool saw_span = false, saw_instant = false, saw_counter = false;
    bool saw_energy = false;
    double last_ts = -1.0;
    for (const Value &e : events->array) {
        const Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        if (ph->string == "M") {
            if (e.find("name")->string == "process_name")
                saw_process_meta = true;
            if (e.find("name")->string == "thread_name")
                saw_thread_meta = true;
            continue; // metadata carries no timestamp ordering
        }
        const Value *ts = e.find("ts");
        ASSERT_NE(ts, nullptr);
        EXPECT_GE(ts->number, last_ts);
        last_ts = ts->number;
        if (ph->string == "X") {
            saw_span = true;
            EXPECT_GE(e.find("dur")->number, 0.0);
        }
        if (ph->string == "i")
            saw_instant = true;
        if (ph->string == "C") {
            saw_counter = true;
            if (e.find("name")->string == "energy_w") {
                // The energy observatory's per-cause average-power
                // samples live on the sim-wide "energy" track, one
                // per management epoch.
                saw_energy = true;
                EXPECT_EQ(e.find("pid")->number, 1.0);
                const Value *args = e.find("args");
                ASSERT_NE(args, nullptr);
                for (const char *k :
                     {"tx", "idle_floor", "sleep", "wake", "retrain",
                      "serdes_leak", "router", "dram_leak",
                      "dram_dyn"}) {
                    ASSERT_NE(args->find(k), nullptr) << k;
                }
            } else {
                // Per-link counters (stall attribution, queue peaks)
                // live on the link's module process, never the
                // sim-wide pid.
                EXPECT_GE(e.find("pid")->number, 10.0);
                ASSERT_NE(e.find("args"), nullptr);
            }
        }
    }
    EXPECT_TRUE(saw_process_meta); // Perfetto process grouping
    EXPECT_TRUE(saw_thread_meta);
    EXPECT_TRUE(saw_span);    // link TX / off / retrain spans
    EXPECT_TRUE(saw_instant); // epoch markers
    EXPECT_TRUE(saw_counter); // stall / queue-depth counter tracks
    EXPECT_TRUE(saw_energy);  // epoch average-watts per cause
}

/** The trace's `isp` instants, keyed by timestamp in ps. */
std::multimap<std::int64_t, Value>
ispInstants(const std::string &tracePath)
{
    Value trace;
    std::string err;
    EXPECT_TRUE(obs::json::parse(readFile(tracePath), &trace, &err))
        << err;
    std::multimap<std::int64_t, Value> out;
    if (const Value *events = trace.find("traceEvents"))
        for (const Value &e : events->array)
            if (e.find("ph")->string == "i" &&
                e.find("name")->string == "isp")
                out.emplace(std::llround(e.find("ts")->number * 1e6), e);
    return out;
}

TEST_F(ObsRunTest, IspInstantsMatchEpochRecords)
{
    const auto isp = ispInstants(cfg.obs.chromeTracePath);
    std::ifstream is(cfg.obs.epochJsonlPath);
    std::string line, err;
    std::size_t records = 0;
    while (std::getline(is, line)) {
        Value v;
        ASSERT_TRUE(obs::json::parse(line, &v, &err)) << err;
        const auto t = static_cast<std::int64_t>(v.find("t_ps")->number);
        ASSERT_EQ(isp.count(t), 1u) << "isp instants at " << t;
        const Value &e = isp.find(t)->second;
        EXPECT_EQ(e.find("cat")->string, "mgmt");
        EXPECT_EQ(e.find("tid")->number, 900.0); // the mgmt track
        const Value *unused = e.find("args")->find("unused_ps");
        ASSERT_NE(unused, nullptr);
        ASSERT_TRUE(unused->isArray());
        EXPECT_EQ(static_cast<double>(unused->array.size()),
                  v.find("mgmt")->find("isp_rounds")->number)
            << t;
        // ISP iterates only while unused AMS remains.
        for (const Value &u : unused->array)
            EXPECT_GT(u.number, 0.0) << t;
        ++records;
    }
    EXPECT_GE(records, 2u);
    EXPECT_EQ(records, isp.size());

    // The unaware policy runs no ISP, so its trace has no isp instant.
    SystemConfig unaware = cfg;
    unaware.policy = Policy::Unaware;
    unaware.obs.chromeTracePath += ".unaware";
    unaware.obs.epochJsonlPath.clear();
    unaware.obs.statsJsonPath.clear();
    runSimulation(unaware);
    EXPECT_TRUE(ispInstants(unaware.obs.chromeTracePath).empty());
}

// ---------------------------------------------------------------------------
// The determinism guarantee: observability never perturbs a run

TEST(ObsDeterminism, InstrumentedRunMatchesBareRun)
{
    const RunResult bare = runSimulation(obsConfig());

    const std::string dir = ::testing::TempDir();
    SystemConfig cfg = obsConfig();
    cfg.obs.statsJsonPath = dir + "det_stats.json";
    cfg.obs.epochJsonlPath = dir + "det_epochs.jsonl";
    cfg.obs.chromeTracePath = dir + "det_trace.json";
    const RunResult inst = runSimulation(cfg);

    // Every sim-derived field must be bit-identical; wallSeconds is the
    // one legitimately varying field.
    EXPECT_EQ(bare.profile.eventsFired, inst.profile.eventsFired);
    EXPECT_EQ(bare.profile.eventsScheduled,
              inst.profile.eventsScheduled);
    EXPECT_EQ(bare.completedReads, inst.completedReads);
    EXPECT_EQ(bare.violations, inst.violations);
    EXPECT_EQ(bare.totalNetworkPowerW, inst.totalNetworkPowerW);
    EXPECT_EQ(bare.perHmc.totalW(), inst.perHmc.totalW());
    EXPECT_EQ(bare.avgReadLatencyNs, inst.avgReadLatencyNs);
    EXPECT_EQ(bare.avgLinkUtil, inst.avgLinkUtil);
    EXPECT_EQ(bare.channelUtil, inst.channelUtil);
}

} // namespace
} // namespace memnet
