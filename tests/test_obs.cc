/**
 * @file
 * Tests for the observability subsystem: JSON writer/parser round-trip,
 * the stats registry, the epoch JSONL schema, Chrome-trace validity,
 * debug-trace filtering, and — most importantly — that enabling any of
 * it does not perturb the simulation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "memnet/simulator.hh"
#include "obs/debug_trace.hh"
#include "obs/json.hh"
#include "obs/stats_registry.hh"
#include "sim/log.hh"

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
// Stats registry

TEST(StatsRegistry, RegisterFindAndScope)
{
    obs::StatsRegistry reg;
    double live = 1.5;
    reg.add("power.total_w", "total power", [&] { return live; });
    auto link = reg.scope("link3.");
    link.addInt("flits", "flits sent", [] { return std::uint64_t{7}; });

    EXPECT_EQ(reg.size(), 2u);
    ASSERT_NE(reg.find("link3.flits"), nullptr);
    EXPECT_TRUE(reg.find("link3.flits")->integral);
    EXPECT_EQ(reg.find("nope"), nullptr);

    live = 2.5; // getters read the live value at dump time
    std::ostringstream os;
    reg.dumpJson(os);
    Value v;
    ASSERT_TRUE(obs::json::parse(os.str(), &v));
    EXPECT_EQ(v.find("power.total_w")->number, 2.5);
    EXPECT_EQ(v.find("link3.flits")->number, 7.0);
}

TEST(StatsRegistry, JsonDumpIsSortedByName)
{
    obs::StatsRegistry reg;
    reg.add("zz", "", [] { return 1.0; });
    reg.add("aa", "", [] { return 2.0; });
    reg.add("mm", "", [] { return 3.0; });
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string s = os.str();
    EXPECT_LT(s.find("\"aa\""), s.find("\"mm\""));
    EXPECT_LT(s.find("\"mm\""), s.find("\"zz\""));
}

TEST(StatsRegistry, CsvDumpHasHeaderAndQuoting)
{
    obs::StatsRegistry reg;
    reg.add("a.b", "desc, with comma", [] { return 1.0; });
    std::ostringstream os;
    reg.dumpCsv(os);
    const std::string s = os.str();
    EXPECT_EQ(s.rfind("name,value,description\n", 0), 0u);
    EXPECT_NE(s.find("a.b"), std::string::npos);
    EXPECT_NE(s.find("\"desc, with comma\""), std::string::npos);
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
        cfg.obs.statsCsvPath = dir + "stats.csv";
        cfg.obs.epochJsonlPath = dir + "epochs.jsonl";
        cfg.obs.chromeTracePath = dir + "trace.json";
        result = runSimulation(cfg);
    }

    SystemConfig cfg;
    RunResult result;
};

TEST_F(ObsRunTest, StatsJsonParsesAndCoversEveryLayer)
{
    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(readFile(cfg.obs.statsJsonPath), &v,
                                 &err))
        << err;
    ASSERT_TRUE(v.isObject());

    const Value *fired = v.find("sim.events_fired");
    ASSERT_NE(fired, nullptr);
    EXPECT_GT(fired->number, 0.0);
    EXPECT_EQ(static_cast<std::uint64_t>(fired->number),
              result.profile.eventsFired);

    // One stat per layer proves the whole hierarchy registered.
    EXPECT_NE(v.find("net.injected_packets"), nullptr);
    EXPECT_NE(v.find("link0.idle_energy_j"), nullptr);
    EXPECT_NE(v.find("module0.dram_accesses"), nullptr);
    EXPECT_NE(v.find("mgmt.epochs"), nullptr);
    EXPECT_GT(v.find("mgmt.epochs")->number, 0.0);

    // Every link of the 8-module network has its group, including the
    // stall-attribution counters.
    const int links = 2 * result.numModules;
    for (int i = 0; i < links; ++i) {
        const std::string prefix = "link" + std::to_string(i);
        EXPECT_NE(v.find(prefix + ".flits"), nullptr) << prefix;
        EXPECT_NE(v.find(prefix + ".wake_stall_s"), nullptr) << prefix;
        EXPECT_NE(v.find(prefix + ".retrain_stall_s"), nullptr)
            << prefix;
        EXPECT_NE(v.find(prefix + ".queue_peak"), nullptr) << prefix;
    }

    // The latency observatory (on by default) registers its percentile
    // counters for every component.
    for (const char *comp :
         {"end_to_end", "queue", "wake_stall", "retrain_stall",
          "serialization", "dram"}) {
        for (const char *k :
             {"samples", "sum_ps", "p50_ps", "p99_ps", "max_ps"}) {
            const std::string name =
                std::string("net.lat.") + comp + "." + k;
            ASSERT_NE(v.find(name), nullptr) << name;
        }
    }
    EXPECT_EQ(
        static_cast<std::uint64_t>(
            v.find("net.lat.end_to_end.samples")->number),
        result.completedReads);
}

TEST_F(ObsRunTest, StatsCsvMatchesJson)
{
    const std::string csv = readFile(cfg.obs.statsCsvPath);
    EXPECT_EQ(csv.rfind("name,value,description\n", 0), 0u);
    EXPECT_NE(csv.find("sim.events_fired"), std::string::npos);
    EXPECT_NE(csv.find("mgmt.epochs"), std::string::npos);
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

// ---------------------------------------------------------------------------
// Debug tracing

TEST(DebugTrace, SpecParsingSetsVerbosity)
{
    obs::setTraceSpec("LinkPM:2,ISP");
    EXPECT_EQ(obs::traceVerbosity(obs::TraceComp::LinkPM), 2);
    EXPECT_EQ(obs::traceVerbosity(obs::TraceComp::ISP), 1);
    EXPECT_EQ(obs::traceVerbosity(obs::TraceComp::Net), 0);

    obs::setTraceSpec("all:3");
    EXPECT_EQ(obs::traceVerbosity(obs::TraceComp::Workload), 3);

    obs::setTraceSpec("");
    EXPECT_EQ(obs::traceVerbosity(obs::TraceComp::LinkPM), 0);
    EXPECT_EQ(obs::traceVerbosity(obs::TraceComp::Workload), 0);
}

TEST(DebugTrace, EnabledPointsReachTheLogSink)
{
    std::vector<std::string> captured;
    LogSink prev = setLogSink([&](LogLevel level, const std::string &m) {
        if (level == LogLevel::Trace)
            captured.push_back(m);
    });
    obs::setTraceSpec("LinkPM");

    MEMNET_TRACE(LinkPM, "link ", 3, " slept");
    MEMNET_TRACE(Net, "filtered out");
    MEMNET_TRACE_V(LinkPM, 2, "too verbose for level 1");

    obs::setTraceSpec("");
    setLogSink(prev);

    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "LinkPM: link 3 slept");
}

TEST(DebugTrace, ManagedRunEmitsLinkPmTraffic)
{
    std::vector<std::string> captured;
    LogSink prev = setLogSink([&](LogLevel level, const std::string &m) {
        if (level == LogLevel::Trace)
            captured.push_back(m);
    });
    SystemConfig cfg = obsConfig();
    cfg.obs.traceSpec = "LinkPM";
    runSimulation(cfg);
    obs::setTraceSpec("");
    setLogSink(prev);

    EXPECT_FALSE(captured.empty());
    for (const std::string &m : captured)
        EXPECT_EQ(m.rfind("LinkPM: ", 0), 0u) << m;
}

} // namespace
} // namespace memnet
