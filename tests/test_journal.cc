/**
 * @file
 * Tests for the crash-safe run journal (memnet/journal.hh): bit-exact
 * hex-float round-trips, self-checking record framing, torn-tail and
 * corruption rejection, last-wins duplicate handling, and the headline
 * guarantee — a resumed sweep is byte-identical to an uninterrupted
 * one.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <regex>
#include <set>
#include <sstream>

#include "audit/differential.hh"
#include "memnet/crc32.hh"
#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"
#include "memnet/simulator.hh"

#include "json_dom.hh"

namespace memnet
{
namespace
{

double
bitsToDouble(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
doubleToBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** A config exercising every serialized field, fault plan included. */
SystemConfig
fancyConfig()
{
    SystemConfig cfg;
    cfg.workload = "mixB";
    cfg.topology = TopologyKind::TernaryTree;
    cfg.sizeClass = SizeClass::Big;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg.rooWakeupPs = ns(21);
    cfg.ioAttribution = IoAttribution::PerEnd;
    cfg.linkFlitErrorRate = 1.0 / 3.0; // not decimal-representable
    cfg.watchdogTimeoutPs = us(123);
    cfg.policy = Policy::Aware;
    cfg.alphaPct = 7.5;
    cfg.epochLen = us(80);
    cfg.aware.ispIterations = 2;
    cfg.aware.congestionDiscount = false;
    cfg.interleavePages = true;
    cfg.warmup = us(11);
    cfg.measure = us(53);
    // Above 2^53: a double-backed DOM would silently round this.
    cfg.seed = (1ULL << 60) + 12345ULL;
    cfg.cores = 12;
    cfg.maxReadsPerCore = 7;
    cfg.maxWritesPerCore = 21;
    cfg.faults.flapMeanPeriodPs = us(9);
    cfg.faults.flapWindowPs = us(2);
    FaultSpec f;
    f.kind = FaultKind::LinkRetrain;
    f.at = us(15);
    f.link = 3;
    f.durationPs = ns(750);
    f.survivingLanes = 8;
    f.flitErrorRate = 0.1;
    cfg.faults.events.push_back(f);
    return cfg;
}

/** A result with adversarial values in every field. */
RunResult
fancyResult()
{
    RunResult r;
    r.config = fancyConfig();
    r.numModules = 27;
    r.perHmc.idleIoW = 1.0 / 3.0;
    r.perHmc.activeIoW = 0x1.fffffffffffffp-3;
    r.perHmc.logicLeakW = 5e-324; // smallest denormal
    r.perHmc.logicDynW = -0.0;
    r.perHmc.dramLeakW = std::numeric_limits<double>::max();
    r.perHmc.dramDynW = std::numeric_limits<double>::min();
    r.totalNetworkPowerW = 88.25;
    r.idleIoFrac = 0.1; // classic non-representable decimal
    r.readsPerSec = 1.93e8;
    r.avgReadLatencyNs = 58.321;
    r.channelUtil = 0.515;
    r.avgLinkUtil = 0.19;
    r.avgModulesTraversed = 1.48;
    r.completedReads = (1ULL << 61) + 7; // above 2^53
    r.violations = 3;
    r.reliability.retries = 11;
    r.reliability.replays = 5;
    r.reliability.retrains = 2;
    r.reliability.retrainSeconds = 1e-7;
    r.reliability.degradedSeconds = 0.25;
    r.reliability.faultEvents = 4;
    for (int b = 0; b < kUtilBuckets; ++b)
        for (int l = 0; l < kLaneModes; ++l)
            r.linkHours[b][l] = (b * kLaneModes + l) / 7.0;
    r.eventsFired = 289805;
    r.profile.eventsFired = 289805;
    r.profile.eventsScheduled = 289838;
    r.profile.wallSeconds = 0.034;
    r.profile.simSeconds = 150e-6;
    r.profile.packetsIssued = 35487;
    r.profile.packetHeapAllocs = 256;
    r.profile.auditChecksRun = 12;
    r.profile.eventsDescheduled = 9;
    r.profile.peakQueueDepth = 46;
    ModuleDetail m;
    m.id = 5;
    m.highRadix = true;
    m.hopDistance = 2;
    m.dramAccesses = 123456789;
    m.flitsRouted = 987654321;
    m.requestLinkUtil = 0.33;
    m.responseLinkUtil = 0.44;
    m.requestLinkPowerFrac = 0.55;
    m.responseLinkPowerFrac = 0.66;
    r.modules.push_back(m);
    m.id = 6;
    m.highRadix = false;
    r.modules.push_back(m);
    return r;
}

/** A tiny real sweep (shared with the resume-equivalence tests). */
std::vector<SystemConfig>
sweepConfigs()
{
    std::vector<SystemConfig> v;
    for (const char *wl : {"mixA", "mixB"}) {
        for (TopologyKind topo :
             {TopologyKind::Star, TopologyKind::DaisyChain}) {
            SystemConfig cfg;
            cfg.workload = wl;
            cfg.topology = topo;
            cfg.policy = Policy::Unaware;
            cfg.mechanism = BwMechanism::Vwl;
            cfg.warmup = us(10);
            cfg.measure = us(50);
            v.push_back(cfg);
        }
    }
    return v;
}

std::string
benchJson(const Runner &runner)
{
    std::ostringstream os;
    writeBenchResultsJson(os, "journal_test", runner.results());
    return os.str();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/**
 * tests/data/journal_fixture.jsonl: journal lines whose bytes are
 * frozen. Lines 0 and 1 were written by the codec as of the energy
 * observatory; lines 2-4 are line 1 with the members later writers
 * inserted deleted again, and lines 5-6 are lines 0-1 without the
 * members today's writer no longer emits (CRCs recomputed):
 *   0  fancyResult(), with the retired dispatch-rate series
 *   1  a real run: mixA, star, aware, VWL+ROO, 5 + 20 us, written by a
 *      build whose partitioned kernel ran it on 2 partitions
 *   2  line 1 without "energy"                      (pre-energy)
 *   3  line 2 without partitions/partition_sync/lax_window_ps
 *                                                   (pre-partition)
 *   4  line 3 without "latency"                     (pre-latency)
 *   5  line 0 without dispatch_window_ps/dispatch_windows  (today's)
 *   6  line 1 without dispatch_window_ps/dispatch_windows  (today's)
 */
constexpr char kFixturePath[] = MEMNET_TEST_DATA_DIR "/journal_fixture.jsonl";

std::vector<std::string>
fixtureLines()
{
    std::ifstream is(kFixturePath);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line + "\n");
    return lines;
}

/**
 * @p line with the first @p from in its record replaced by @p to and
 * the CRC recomputed, so the edit reaches the parser.
 */
std::string
editedLine(const std::string &line, const std::string &from,
           const std::string &to)
{
    std::string p = line.substr(line.find("\"record\":") + 9);
    p.resize(p.size() - 2); // "}\n"
    const std::size_t at = p.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    p.replace(at, from.size(), to);
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", crc32(p.data(), p.size()));
    return std::string("{\"journal_version\":1,\"crc32\":\"") + crc +
           "\",\"record\":" + p + "}\n";
}

TEST(HexDouble, RoundTripsSpecialValues)
{
    const double specials[] = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        1.0 / 3.0,
        0.1,
        5e-324, // min denormal
        -5e-324,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        3.141592653589793,
        2.2250738585072011e-308, // famous strtod stress value
    };
    for (double v : specials) {
        double back = 0.0;
        ASSERT_TRUE(parseHexDouble(hexDouble(v), &back))
            << hexDouble(v);
        EXPECT_EQ(doubleToBits(v), doubleToBits(back))
            << "value " << v << " spelled " << hexDouble(v);
    }
}

TEST(HexDouble, RoundTripsRandomBitPatternsExactly)
{
    std::mt19937_64 rng(20260807);
    int checked = 0;
    while (checked < 10000) {
        const std::uint64_t bits = rng();
        const double v = bitsToDouble(bits);
        if (std::isnan(v))
            continue; // NaN payloads aren't promised through "%a"
        ++checked;
        double back = 0.0;
        ASSERT_TRUE(parseHexDouble(hexDouble(v), &back));
        ASSERT_EQ(bits, doubleToBits(back))
            << "bits " << bits << " spelled " << hexDouble(v);
    }
}

TEST(HexDouble, RejectsPartialAndEmptyInput)
{
    double out = 0.0;
    EXPECT_FALSE(parseHexDouble("", &out));
    EXPECT_FALSE(parseHexDouble("0x1p+1 trailing", &out));
    EXPECT_FALSE(parseHexDouble("zebra", &out));
    // Valid C hex-floats, but never a hexDouble() spelling.
    for (const char *s :
         {" 0x1p+0", "0X1P+0", "1.5", "0x1p1", "0x1.0p+0", "0x1.p+0",
          "+0x1p+0", "0x1p+01", "0x1p-0", "0x1p--1", "0x2p+0", "0x1p+1024",
          "0x1p-1023", "0x0p-1022", "0x0.8p-1021", "0x0p+1",
          "0x1.00000000000001p+0", "0x1.ABCp+0", "infinity", "NaN", "-",
          "0x", "0x1", "0x1p", "0x1p+"}) {
        EXPECT_FALSE(parseHexDouble(s, &out)) << s;
    }
}

/** What snprintf("%a") writes for @p v: hexDouble()'s specification. */
std::string
printfHex(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

TEST(HexDouble, MatchesSnprintfOnRandomBitPatternsAndEdges)
{
    std::vector<double> edges = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
    };
    // Subnormals with every fraction length, and the largest one.
    for (int shift = 0; shift < 52; ++shift)
        edges.push_back(bitsToDouble(std::uint64_t{1} << shift));
    edges.push_back(bitsToDouble((std::uint64_t{1} << 52) - 1));
    for (double v : edges)
        EXPECT_EQ(hexDouble(v), printfHex(v)) << doubleToBits(v);

    std::mt19937_64 rng(20261016);
    for (int i = 0; i < 1'000'000; ++i) {
        const double v = bitsToDouble(rng());
        ASSERT_EQ(hexDouble(v), printfHex(v)) << doubleToBits(v);
    }
}

TEST(HexDouble, ParsesEverySpellingItWritesBackToTheSameBits)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 200'000; ++i) {
        // Random sign and exponent field, so zero, subnormal, normal and
        // non-finite fields all come up.
        std::uint64_t bits = rng();
        if (i % 4 == 0)
            bits &= ~(std::uint64_t{0x7FF} << 52);
        const double v = bitsToDouble(bits);
        double back = 0.0;
        ASSERT_TRUE(parseHexDouble(hexDouble(v), &back)) << hexDouble(v);
        ASSERT_EQ(hexDouble(back), hexDouble(v));
        if (!std::isnan(v)) {
            ASSERT_EQ(doubleToBits(back), bits) << hexDouble(v);
        }
    }
    double back = 0.0;
    ASSERT_TRUE(parseHexDouble("-nan", &back));
    EXPECT_EQ(doubleToBits(back), 0xFFF8000000000000u);
    ASSERT_TRUE(parseHexDouble("nan", &back));
    EXPECT_EQ(doubleToBits(back), 0x7FF8000000000000u);
}

/** The textbook one-byte-at-a-time CRC-32 crc32() must agree with. */
std::uint32_t
bytewiseCrc32(const unsigned char *p, std::size_t n)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return crc ^ 0xFFFFFFFFu;
}

using Crc32Fn = std::uint32_t (*)(const void *, std::size_t);

/**
 * Every CRC-32 routine this host can run: crc32() itself, the portable
 * slicing-by-8 routine (called directly, so it stays tested on CPUs
 * where crc32() folds) and the carry-less-multiply fold.
 */
std::vector<std::pair<const char *, Crc32Fn>>
crcPaths()
{
    std::vector<std::pair<const char *, Crc32Fn>> paths = {
        {"crc32", crc32}, {"sliced", detail::crc32Sliced}};
    if (detail::crc32FoldAvailable())
        paths.emplace_back("folded", detail::crc32Folded);
    return paths;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    std::mt19937_64 rng(42);
    std::vector<unsigned char> buf(16 + 512);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng());
    for (const auto &[name, fn] : crcPaths()) {
        EXPECT_EQ(fn("123456789", 9), 0xCBF43926u) << name;
        EXPECT_EQ(fn(nullptr, 0), 0u) << name;
        for (std::size_t align = 0; align < 16; ++align)
            for (std::size_t len = 0; len <= 512; ++len)
                ASSERT_EQ(fn(buf.data() + align, len),
                          bytewiseCrc32(buf.data() + align, len))
                    << name << " align " << align << " len " << len;
    }
}

TEST(Crc32, MatchesBytewiseReferenceOnRandomLengthsUpTo64KiB)
{
    std::mt19937_64 rng(7);
    std::vector<unsigned char> buf(16 + (std::size_t{64} << 10));
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng());
    const auto paths = crcPaths();
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t len = rng() % (buf.size() - 15);
        const std::size_t align = rng() % 16;
        const std::uint32_t want = bytewiseCrc32(buf.data() + align, len);
        for (const auto &[name, fn] : paths)
            ASSERT_EQ(fn(buf.data() + align, len), want)
                << name << " align " << align << " len " << len;
    }
    // The longest input, every byte.
    const std::uint32_t want = bytewiseCrc32(buf.data(), buf.size());
    for (const auto &[name, fn] : paths)
        EXPECT_EQ(fn(buf.data(), buf.size()), want) << name;
}

TEST(JournalRecord, RoundTripsEveryFieldExactly)
{
    const RunResult r = fancyResult();
    const std::string k = Runner::key(r.config);
    const std::string line = journalRecordLine(k, r);

    std::string keyBack, err;
    RunResult back;
    ASSERT_TRUE(parseJournalLine(line, &keyBack, &back, &err)) << err;
    EXPECT_EQ(keyBack, k);
    EXPECT_EQ(Runner::key(back.config), k);

    // Everything diffRunResults covers, exactly.
    const auto diffs = audit::diffRunResults(r, back);
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);

    // Fields the differ deliberately ignores must still round-trip.
    EXPECT_EQ(doubleToBits(back.profile.wallSeconds),
              doubleToBits(r.profile.wallSeconds));
    EXPECT_EQ(back.profile.auditChecksRun, r.profile.auditChecksRun);
    EXPECT_EQ(back.completedReads, r.completedReads); // > 2^53
    EXPECT_EQ(back.config.seed, r.config.seed);       // > 2^53
    EXPECT_EQ(back.avgReadLatencyNs, r.avgReadLatencyNs);
    EXPECT_EQ(doubleToBits(back.perHmc.logicDynW),
              doubleToBits(r.perHmc.logicDynW)); // -0.0 keeps its sign
    ASSERT_EQ(back.modules.size(), r.modules.size());
    EXPECT_EQ(back.modules[0].id, r.modules[0].id);
    EXPECT_TRUE(back.modules[0].highRadix);
    EXPECT_EQ(back.modules[1].hopDistance, r.modules[1].hopDistance);
    ASSERT_EQ(back.config.faults.events.size(), 1u);
    EXPECT_EQ(back.config.faults.events[0].link, 3);
    EXPECT_EQ(back.config.faults.events[0].flitErrorRate, 0.1);
}

TEST(JournalRecord, RejectsCorruptTruncatedAndForeignLines)
{
    const RunResult r = fancyResult();
    const std::string line =
        journalRecordLine(Runner::key(r.config), r);

    std::string k, err;
    RunResult out;

    // One flipped payload byte: checksum catches it.
    std::string flipped = line;
    flipped[line.size() / 2] ^= 0x01;
    EXPECT_FALSE(parseJournalLine(flipped, &k, &out, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;

    // Truncation at any interesting depth: framing or checksum fails.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{10}, line.size() / 4,
          line.size() / 2, line.size() - 2}) {
        EXPECT_FALSE(
            parseJournalLine(line.substr(0, keep), &k, &out, &err))
            << "accepted a record truncated to " << keep << " bytes";
    }

    // Foreign JSON and non-JSON garbage.
    EXPECT_FALSE(parseJournalLine("{\"not\":\"a record\"}", &k, &out,
                                  &err));
    EXPECT_FALSE(parseJournalLine("complete garbage", &k, &out, &err));
}

TEST(JournalRecord, RejectsKeyConfigMismatch)
{
    // Internally consistent line (framing + checksum pass) whose
    // recorded key does not reproduce from its config — the format-
    // drift guard must refuse it.
    const RunResult r = fancyResult();
    const std::string line = journalRecordLine("tampered|key", r);
    std::string k, err;
    RunResult out;
    EXPECT_FALSE(parseJournalLine(line, &k, &out, &err));
    EXPECT_NE(err.find("key mismatch"), std::string::npos) << err;
}

TEST(JournalFixture, WriterReproducesFixtureBytes)
{
    const std::vector<std::string> lines = fixtureLines();
    ASSERT_EQ(lines.size(), 7u) << kFixturePath;

    const RunResult f = fancyResult();
    EXPECT_EQ(journalRecordLine(Runner::key(f.config), f), lines[5]);

    // The real run cannot be re-simulated bit for bit (wall_s), so it
    // goes through the reader: load, write, same bytes. A record with
    // the retired members loads and is written without them, and the
    // real run's partition count, which selects nothing any more, is
    // written as 1.
    const std::string real1 = editedLine(lines[6], "\"partitions\":\"2\"",
                                         "\"partitions\":\"1\"");
    for (const std::size_t i : {0u, 1u, 5u, 6u}) {
        std::string k, err;
        RunResult r;
        ASSERT_TRUE(parseJournalLine(lines[i], &k, &r, &err)) << err;
        EXPECT_EQ(journalRecordLine(k, r), i % 5 == 0 ? lines[5] : real1)
            << "line " << i;
    }
    std::string k, err;
    RunResult real;
    ASSERT_TRUE(parseJournalLine(lines[6], &k, &real, &err)) << err;
    EXPECT_TRUE(real.latency.enabled);
    EXPECT_TRUE(real.energy.enabled);
    EXPECT_GT(real.latency.endToEnd.samples, 0u);
}

TEST(JournalFixture, OlderShapesLoadWithTodaysDefaults)
{
    const std::vector<std::string> lines = fixtureLines();
    ASSERT_EQ(lines.size(), 7u) << kFixturePath;
    std::string key, err;
    RunResult full;
    ASSERT_TRUE(parseJournalLine(lines[1], &key, &full, &err)) << err;

    RunResult expected = full;
    for (std::size_t i = 2; i < 5; ++i) {
        if (i == 2)
            expected.energy = EnergySummary{};
        else if (i == 4)
            expected.latency = LatencyBreakdown{};
        std::string k;
        RunResult old;
        ASSERT_TRUE(parseJournalLine(lines[i], &k, &old, &err))
            << "line " << i << ": " << err;
        EXPECT_EQ(k, key);
        EXPECT_EQ(journalRecordLine(k, old), journalRecordLine(k, expected))
            << "line " << i;
        EXPECT_FALSE(old.energy.enabled);
        EXPECT_EQ(old.latency.enabled, i < 4) << "line " << i;
    }

    // The whole file is a valid journal: every line loads, the five
    // shapes of the real run share one key (last wins: today's).
    std::map<std::string, RunResult> pool;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(kFixturePath, &pool, &stats, &err)) << err;
    EXPECT_EQ(stats.records, 7u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(stats.loaded, 2u);
    EXPECT_EQ(journalRecordLine(key, pool.at(key)),
              editedLine(lines[6], "\"partitions\":\"2\"",
                         "\"partitions\":\"1\""));
}

TEST(JournalRecord, RejectsOutOfRangeEnums)
{
    // Each line is CRC-valid and its key reproduces, so only the range
    // check stands between it and a config no enum value names.
    struct Case
    {
        const char *member;
        void (*corrupt)(SystemConfig &);
    };
    const Case cases[] = {
        {"config.topology",
         [](SystemConfig &c) { c.topology = static_cast<TopologyKind>(99); }},
        {"config.topology",
         [](SystemConfig &c) { c.topology = static_cast<TopologyKind>(-1); }},
        {"config.size_class",
         [](SystemConfig &c) { c.sizeClass = static_cast<SizeClass>(2); }},
        {"config.mechanism",
         [](SystemConfig &c) { c.mechanism = static_cast<BwMechanism>(3); }},
        {"config.io_attribution",
         [](SystemConfig &c) {
             c.ioAttribution = static_cast<IoAttribution>(2);
         }},
        {"config.policy",
         [](SystemConfig &c) { c.policy = static_cast<Policy>(4); }},
        {"config.faults.events[0].kind",
         [](SystemConfig &c) {
             c.faults.events[0].kind = static_cast<FaultKind>(3);
         }},
    };
    for (const Case &tc : cases) {
        RunResult r = fancyResult();
        tc.corrupt(r.config);
        const std::string line = journalRecordLine(Runner::key(r.config), r);
        std::string k, err;
        RunResult out;
        EXPECT_FALSE(parseJournalLine(line, &k, &out, &err)) << tc.member;
        EXPECT_EQ(err.rfind(std::string(tc.member) + ": out of range", 0),
                  0u)
            << err;
    }
    // The last value of each enum still loads.
    RunResult r = fancyResult();
    r.config.topology = TopologyKind::DdrxLike;
    r.config.mechanism = BwMechanism::Dvfs;
    r.config.ioAttribution = IoAttribution::PerLink;
    r.config.policy = Policy::StaticTaper;
    r.config.faults.events[0].kind = FaultKind::ErrorBurst;
    std::string k, err;
    RunResult out;
    EXPECT_TRUE(parseJournalLine(journalRecordLine(Runner::key(r.config), r),
                                 &k, &out, &err))
        << err;
}

TEST(JournalRecord, ErrorsNameThePathOfTheBadMember)
{
    const RunResult r = fancyResult();
    const std::string line = journalRecordLine(Runner::key(r.config), r);
    const auto errorFor = [&](const std::string &from,
                              const std::string &to) {
        std::string k, err;
        RunResult out;
        EXPECT_FALSE(
            parseJournalLine(editedLine(line, from, to), &k, &out, &err))
            << to;
        return err;
    };
    EXPECT_EQ(errorFor("\"roo\":true", "\"rooo\":true"),
              "config.roo: missing");
    EXPECT_EQ(errorFor("\"cores\":\"12\"", "\"cores\":12"),
              "config.cores: not a string");
    EXPECT_EQ(errorFor("\"cores\":\"12\"", "\"cores\":\"012\""),
              "config.cores: not an i64: '012'");
    EXPECT_EQ(errorFor("\"cores\":\"12\"", "\"cores\":\"4294967296\""),
              "config.cores: out of int range");
    EXPECT_EQ(errorFor("\"violations\":\"3\"", "\"violations\":\"-3\""),
              "result.violations: not a u64: '-3'");
    const std::string rate = "\"flit_error_rate\":\"" + hexDouble(0.1) + "\"";
    EXPECT_EQ(errorFor(rate, rate + ",\"x\":\"1\""),
              "config.faults.events[0]: unexpected member");
    EXPECT_EQ(errorFor(rate, "\"flit_error_rate\":\"0x1.999999999999a0p-4\""),
              "config.faults.events[0].flit_error_rate: not a hex-float: "
              "'0x1.999999999999a0p-4'");
    EXPECT_EQ(errorFor("\"high_radix\":false", "\"high_radix\":\"false\""),
              "result.modules[1].high_radix: not a bool");
    EXPECT_EQ(errorFor("\"total_network_w\":\"" + hexDouble(88.25),
                       "\"total_network_w\":\"88.25"),
              "result.total_network_w: not a hex-float: '88.25'");
    EXPECT_EQ(errorFor("\"key\":\"", "\"kee\":\""), "record.key: missing");
    // Errors built only on failure, pinned byte for byte.
    const std::string cell0 = "\"link_hours\":[\"0x0p+0\"";
    EXPECT_EQ(errorFor(cell0 + ",", "\"link_hours\":["),
              "result.link_hours: not a 20-element array");
    EXPECT_EQ(errorFor(cell0, cell0 + ",\"0x0p+0\""),
              "result.link_hours: not a 20-element array");
    EXPECT_EQ(errorFor("\"idle_mode_j\":[\"0x0p+0\",", "\"idle_mode_j\":["),
              "result.energy.idle_mode_j: not an 8-element array");
    EXPECT_EQ(errorFor("\"modules\":[", "\"modules\":{"),
              "result.modules: not an array");
    EXPECT_EQ(errorFor(cell0, "\"link_hours\":[\"0x0p0\""),
              "result.link_hours: bad hex-float cell");
    // Retired members are still read, and still checked, when present.
    const std::string peak = "\"peak_queue_depth\":\"46\"";
    const std::string retired = peak +
                                ",\"dispatch_window_ps\":\"100000000\""
                                ",\"dispatch_windows\":[";
    EXPECT_EQ(errorFor(peak, retired + "\"4O961\"]"),
              "result.profile.dispatch_windows: bad u64");
    EXPECT_EQ(errorFor(peak, peak + ",\"dispatch_windows\":[]"),
              "result.profile: unexpected member");
    EXPECT_EQ(errorFor("\"id\":\"5\"", "\"id\":\"2147483648\""),
              "result.modules[0].id: out of int range");
    // Any partition count >= 1 reads (older builds ran several).
    const std::string parts = "\"partitions\":\"1\"";
    EXPECT_EQ(errorFor(parts, "\"partitions\":\"0\""),
              "config.partitions: not positive: 0");
    EXPECT_EQ(errorFor(parts, "\"partitions\":\"-2\""),
              "config.partitions: not positive: -2");
    std::string k, err;
    RunResult out;
    EXPECT_TRUE(parseJournalLine(
        editedLine(line, parts, "\"partitions\":\"64\""), &k, &out, &err))
        << err;
    EXPECT_EQ(journalRecordLine(k, out), line);
}

TEST(JournalRecord, LaxRecordsAreRejectedAndResumeReRunsThem)
{
    // Journals written when the partitioned kernel also had a lax sync
    // mode may hold its records: partition_sync "lax" with the key
    // suffix "|lax:<partitions>,<window>", or a non-default window.
    // Neither is simulated any more, so both are skipped on load and a
    // resume re-runs the config.
    SystemConfig cfg = sweepConfigs()[0];
    const std::string key = Runner::key(cfg);
    Runner reference;
    const RunResult &real = reference.get(cfg);
    const std::string line = journalRecordLine(key, real);
    const std::string lax = editedLine(
        editedLine(line, "\"partition_sync\":\"barrier\"",
                   "\"partition_sync\":\"lax\""),
        "\"key\":\"" + key + "\"", "\"key\":\"" + key + "|lax:2,10000000\"");
    const std::string window =
        editedLine(line, "\"lax_window_ps\":\"10000000\"",
                   "\"lax_window_ps\":\"20000000\"");

    std::string k, err;
    RunResult out;
    EXPECT_FALSE(parseJournalLine(lax, &k, &out, &err));
    EXPECT_EQ(err, "config.partition_sync: unsupported value 'lax' (only "
                   "'barrier' is simulated)");
    EXPECT_FALSE(parseJournalLine(window, &k, &out, &err));
    EXPECT_EQ(err, "config.lax_window_ps: unsupported value '20000000' "
                   "(only '10000000' is simulated)");

    const std::string path = tempPath("lax_records.jsonl");
    {
        std::ofstream os(path);
        os << lax << window;
    }
    std::map<std::string, RunResult> pool;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, &pool, &stats, &err)) << err;
    EXPECT_EQ(stats.corrupt, 2u);
    EXPECT_TRUE(pool.empty());

    Runner resumed;
    resumed.addResumePool(std::move(pool));
    const RunResult &rerun = resumed.get(cfg);
    EXPECT_EQ(resumed.runsExecuted(), 1);
    EXPECT_EQ(resumed.resumedHits(), 0u);
    const auto diffs = audit::diffRunResults(real, rerun);
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(JournalLoad, SkipsTornTailKeepsEarlierRecords)
{
    const std::string path = tempPath("torn_tail.jsonl");
    RunResult r1 = fancyResult();
    RunResult r2 = fancyResult();
    r2.config.seed = 99; // distinct key
    const std::string l1 = journalRecordLine(Runner::key(r1.config), r1);
    const std::string l2 = journalRecordLine(Runner::key(r2.config), r2);
    {
        std::ofstream os(path);
        // Two whole records, then a record cut mid-write (no newline),
        // exactly what SIGKILL during append leaves behind.
        os << l1 << l2 << l1.substr(0, l1.size() / 2);
    }

    std::map<std::string, RunResult> pool;
    JournalLoadStats stats;
    std::string err;
    ASSERT_TRUE(loadJournal(path, &pool, &stats, &err)) << err;
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.loaded, 2u);
    EXPECT_EQ(stats.corrupt, 1u);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_TRUE(pool.count(Runner::key(r1.config)));
    EXPECT_TRUE(pool.count(Runner::key(r2.config)));
}

TEST(JournalLoad, DuplicateKeysLastRecordWins)
{
    const std::string path = tempPath("dup_keys.jsonl");
    RunResult first = fancyResult();
    first.totalNetworkPowerW = 1.0;
    RunResult second = fancyResult();
    second.totalNetworkPowerW = 2.0;
    const std::string k = Runner::key(first.config);
    ASSERT_EQ(k, Runner::key(second.config));
    {
        std::ofstream os(path);
        os << journalRecordLine(k, first) << journalRecordLine(k, second);
    }

    std::map<std::string, RunResult> pool;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, &pool, &stats, nullptr));
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.duplicates, 1u);
    EXPECT_EQ(stats.loaded, 1u);
    ASSERT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.at(k).totalNetworkPowerW, 2.0);
}

TEST(JournalLoad, MissingFileFails)
{
    std::map<std::string, RunResult> pool;
    std::string err;
    EXPECT_FALSE(loadJournal(tempPath("does_not_exist.jsonl"), &pool,
                             nullptr, &err));
    EXPECT_FALSE(err.empty());
}

TEST(JournalLoad, DirectoryPathFails)
{
    // A directory opens as a stream that reads nothing; loading it must
    // not pass for an empty journal.
    const std::string dir = ::testing::TempDir();
    std::map<std::string, RunResult> pool;
    std::string err;
    EXPECT_FALSE(loadJournal(dir, &pool, nullptr, &err));
    EXPECT_NE(err.find("is a directory"), std::string::npos) << err;
    EXPECT_NE(err.find(dir), std::string::npos) << err;
}

/**
 * loadJournal() parses a regular file in ranges of this many bytes (a
 * line belongs to the range that holds its first byte; the last range
 * reads to EOF). The split test below places damage at its multiples.
 */
constexpr std::size_t kLoadGrain = std::size_t{1} << 20;

/** What loadJournal() loads from @p path, built line by line. */
struct ReferenceLoad
{
    std::map<std::string, RunResult> pool;
    JournalLoadStats stats;
    std::vector<std::string> warnings;
};

ReferenceLoad
referenceLoad(const std::string &path, const std::string &text,
              std::map<std::string, RunResult> pool)
{
    ReferenceLoad ref{std::move(pool), {}, {}};
    std::size_t lineNo = 0;
    for (std::size_t at = 0; at < text.size();) {
        const std::size_t nl = std::min(text.find('\n', at), text.size());
        const std::string_view line(text.data() + at, nl - at);
        at = nl + 1;
        ++lineNo;
        if (line.empty())
            continue;
        std::string key, err;
        RunResult r;
        if (!parseJournalLine(line, &key, &r, &err)) {
            ++ref.stats.corrupt;
            ref.warnings.push_back("journal " + path + " line " +
                                   std::to_string(lineNo) +
                                   " skipped: " + err);
            continue;
        }
        ++ref.stats.records;
        if (!ref.pool.insert_or_assign(key, std::move(r)).second)
            ++ref.stats.duplicates;
    }
    ref.stats.loaded = ref.stats.records - ref.stats.duplicates;
    return ref;
}

TEST(JournalLoad, SplitRangesMatchALineByLineReference)
{
    // Records of varying length, each with its own power value so a
    // replaced duplicate shows.
    std::vector<std::string> keys;
    int serial = 0;
    const auto record = [&](std::size_t keyIndex) {
        RunResult r = fancyResult();
        r.config.seed = keyIndex;
        r.modules.resize(keyIndex % 6, r.modules.front());
        r.totalNetworkPowerW = ++serial;
        const std::string k = Runner::key(r.config);
        if (keyIndex == keys.size())
            keys.push_back(k);
        return journalRecordLine(k, r);
    };
    const auto fresh = [&] { return record(keys.size()); };
    const auto dup = [&](std::size_t keyIndex) { return record(keyIndex); };

    std::string text;
    // The next line starts at @p at: a garbage line (or an empty one,
    // when one byte is left) fills the gap.
    const auto padTo = [&](std::size_t at) {
        ASSERT_GT(at, text.size());
        text += std::string(at - text.size() - 1, 'x') + "\n";
    };
    // Records with damage every few lines: garbage, empty lines and
    // duplicates of keys from anywhere earlier in the file.
    const auto fillTo = [&](std::size_t at) {
        for (std::size_t i = 0; text.size() < at; ++i) {
            if (i % 5 == 1)
                text += "not a journal line\n";
            else if (i % 7 == 3)
                text += "\n";
            else if (i % 4 == 2)
                text += dup((i * 7919) % keys.size());
            else
                text += fresh();
        }
    };
    text += fresh();
    fillTo(kLoadGrain - 20000);
    // Boundary 1: a duplicate ends at it, a fresh record starts on it.
    {
        const std::string before = dup(0);
        padTo(kLoadGrain - before.size());
        text += before;
        text += fresh();
        text += "garbage after the first boundary\n\n";
    }
    fillTo(2 * kLoadGrain - 20000);
    // Boundary 2: garbage ends at it, an empty line sits on it, then a
    // duplicate of a key from the first range.
    padTo(2 * kLoadGrain);
    text += "\n";
    text += dup(1);
    fillTo(3 * kLoadGrain - 20000);
    // Boundary 3: a duplicate starts on the byte before it, then
    // garbage.
    padTo(3 * kLoadGrain - 1);
    text += dup(2);
    text += "garbage after the third boundary\n";
    fillTo(4 * kLoadGrain + 30000);
    // A torn tail: half a record, no newline.
    const std::string torn = fresh();
    text += torn.substr(0, torn.size() / 2);
    ASSERT_GE(text.size(), 4 * kLoadGrain);
    // Boundary 1 starts a record, 2 is an empty line, 3 is the second
    // byte of a record.
    EXPECT_EQ(text.substr(kLoadGrain - 1, 2), "\n{");
    EXPECT_EQ(text.substr(2 * kLoadGrain - 1, 2), "\n\n");
    EXPECT_EQ(text.substr(3 * kLoadGrain - 2, 3), "\n{\"");

    const std::string path = tempPath("split_ranges.jsonl");
    {
        std::ofstream os(path, std::ios::binary);
        os << text;
    }
    // The map may hold results already: one key the file holds, one it
    // does not.
    std::map<std::string, RunResult> pool;
    pool[keys[3]] = fancyResult();
    pool["not in the journal"] = fancyResult();
    const ReferenceLoad ref = referenceLoad(path, text, pool);
    ASSERT_GT(ref.stats.corrupt, 10u);
    ASSERT_GT(ref.stats.duplicates, 10u);

    std::vector<std::string> warnings;
    LogSink prev = setLogSink([&](LogLevel level, const std::string &m) {
        if (level == LogLevel::Warn)
            warnings.push_back(m);
    });
    JournalLoadStats stats;
    std::string err;
    const bool ok = loadJournal(path, &pool, &stats, &err);
    setLogSink(std::move(prev));
    ASSERT_TRUE(ok) << err;

    EXPECT_EQ(stats.loaded, ref.stats.loaded);
    EXPECT_EQ(stats.records, ref.stats.records);
    EXPECT_EQ(stats.corrupt, ref.stats.corrupt);
    EXPECT_EQ(stats.duplicates, ref.stats.duplicates);
    EXPECT_EQ(warnings, ref.warnings);
    ASSERT_EQ(pool.size(), ref.pool.size());
    for (const auto &[k, r] : ref.pool) {
        ASSERT_TRUE(pool.count(k)) << k;
        EXPECT_EQ(journalRecordLine(k, pool.at(k)), journalRecordLine(k, r))
            << k;
    }
}

TEST(RunJournal, OpenFailsOnUnwritablePath)
{
    RunJournal j(tempPath("no/such/dir/journal.jsonl"));
    EXPECT_FALSE(j.open());
    EXPECT_FALSE(j.ok());
}

TEST(RunJournal, ResumedSweepIsByteIdenticalAndRunsNothing)
{
    const std::vector<SystemConfig> configs = sweepConfigs();
    const std::string path = tempPath("resume_full.jsonl");

    // Uninterrupted journaled sweep.
    Runner original;
    {
        RunJournal journal(path);
        ASSERT_TRUE(journal.open());
        original.setJournal(&journal);
        for (const SystemConfig &cfg : configs)
            original.get(cfg);
        original.setJournal(nullptr);
        EXPECT_EQ(journal.appended(), configs.size());
    }

    // Resume into a fresh Runner: nothing re-simulates and the bench
    // JSON matches byte for byte — wall_s included, because the
    // journal preserved the original's profile bit-exactly.
    Runner resumed;
    std::map<std::string, RunResult> pool;
    ASSERT_TRUE(loadJournal(path, &pool, nullptr, nullptr));
    resumed.addResumePool(std::move(pool));
    for (const SystemConfig &cfg : configs)
        resumed.get(cfg);
    EXPECT_EQ(resumed.runsExecuted(), 0);
    EXPECT_EQ(resumed.resumedHits(),
              static_cast<std::uint64_t>(configs.size()));
    EXPECT_EQ(benchJson(original), benchJson(resumed));

    const auto diffs =
        audit::diffResultMaps(original.results(), resumed.results());
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(RunJournal, PartialJournalResumesOnlyMissingConfigs)
{
    const std::vector<SystemConfig> configs = sweepConfigs();
    const std::string path = tempPath("resume_partial.jsonl");

    // Journal only the first half — a sweep killed mid-run.
    Runner original;
    {
        RunJournal journal(path);
        ASSERT_TRUE(journal.open());
        original.setJournal(&journal);
        for (std::size_t i = 0; i < configs.size() / 2; ++i)
            original.get(configs[i]);
        original.setJournal(nullptr);
    }
    // Finish the reference sweep without the journal attached.
    for (const SystemConfig &cfg : configs)
        original.get(cfg);

    Runner resumed;
    std::map<std::string, RunResult> pool;
    ASSERT_TRUE(loadJournal(path, &pool, nullptr, nullptr));
    resumed.addResumePool(std::move(pool));
    for (const SystemConfig &cfg : configs)
        resumed.get(cfg);

    EXPECT_EQ(resumed.runsExecuted(),
              static_cast<int>(configs.size() - configs.size() / 2));
    // wall_s differs for the re-simulated half; everything
    // simulation-determined must not.
    const auto diffs =
        audit::diffResultMaps(original.results(), resumed.results());
    EXPECT_TRUE(diffs.empty()) << audit::describeDiffs(diffs);
}

TEST(RunJournal, OpenSealsTornTailBeforeAppending)
{
    // --journal and --resume may name the same file. After a SIGKILL
    // mid-append the file can end in a partial line with no newline;
    // reopening for append must not glue the next record onto the
    // fragment (which would corrupt a good record too).
    const std::vector<SystemConfig> configs = sweepConfigs();
    const std::string path = tempPath("torn_tail.jsonl");

    RunResult r0 = fancyResult();
    r0.config = configs[0];
    const std::string whole =
        journalRecordLine(Runner::key(configs[0]), r0);
    {
        std::ofstream os(path, std::ios::binary);
        os << whole;
        os << whole.substr(0, whole.size() / 2); // torn, no newline
    }

    {
        RunJournal journal(path);
        ASSERT_TRUE(journal.open());
        Runner runner;
        runner.setJournal(&journal);
        runner.get(configs[1]);
        runner.setJournal(nullptr);
        EXPECT_EQ(journal.appended(), 1u);
    }

    std::map<std::string, RunResult> pool;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, &pool, &stats, nullptr));
    // Both complete records survive; only the sealed fragment is lost.
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.corrupt, 1u);
    EXPECT_EQ(pool.count(Runner::key(configs[0])), 1u);
    EXPECT_EQ(pool.count(Runner::key(configs[1])), 1u);
}

TEST(RunJournal, ResumePoolIsLazyAndLeaksNothingForeign)
{
    const std::vector<SystemConfig> configs = sweepConfigs();

    // A journal carrying one foreign record (a config this sweep never
    // requests) plus one relevant record.
    RunResult foreign = fancyResult();
    Runner reference;
    const RunResult &relevant = reference.get(configs.front());

    Runner runner;
    std::map<std::string, RunResult> pool;
    pool.emplace(Runner::key(foreign.config), foreign);
    pool.emplace(Runner::key(relevant.config), relevant);
    runner.addResumePool(std::move(pool));

    for (const SystemConfig &cfg : configs)
        runner.get(cfg);
    EXPECT_EQ(runner.resumedHits(), 1u);
    EXPECT_EQ(runner.runsExecuted(),
              static_cast<int>(configs.size()) - 1);
    // results() lists exactly the sweep's own configs.
    EXPECT_EQ(runner.results().size(), configs.size());
    EXPECT_FALSE(runner.results().count(Runner::key(foreign.config)));
}

TEST(RunJournal, ResumePoolLatestLoadWinsAndPromotedKeysStay)
{
    const std::vector<SystemConfig> configs = sweepConfigs();
    const SystemConfig &a = configs[0];
    const SystemConfig &b = configs[1];
    // One journal load: a record of a and of b, tagged by @p power.
    const auto load = [&](double power) {
        std::map<std::string, RunResult> pool;
        for (const SystemConfig *cfg : {&a, &b}) {
            RunResult r;
            r.config = *cfg;
            r.totalNetworkPowerW = power;
            pool.emplace(Runner::key(*cfg), r);
        }
        return pool;
    };

    Runner runner;
    runner.addResumePool(load(1.0));
    const RunResult &promoted = runner.get(a);
    EXPECT_EQ(promoted.totalNetworkPowerW, 1.0);
    runner.addResumePool(load(2.0));
    // a was promoted before the second load: it stays as it is, at
    // the same address. b was still pending: the latest load wins.
    EXPECT_EQ(&runner.get(a), &promoted);
    EXPECT_EQ(promoted.totalNetworkPowerW, 1.0);
    EXPECT_EQ(runner.get(b).totalNetworkPowerW, 2.0);
    EXPECT_EQ(runner.resumedHits(), 2u);
    EXPECT_EQ(runner.runsExecuted(), 0);
    EXPECT_EQ(runner.results().size(), 2u);
}

TEST(FailureManifest, WritesValidJsonWithDedupedEntries)
{
    RunFailure f1;
    f1.config = fancyConfig();
    f1.key = Runner::key(f1.config);
    f1.message = "simulation cancelled by watchdog at t=42 ps";
    f1.timeout = true;
    f1.wallSeconds = 1.5;
    RunFailure dup = f1; // racing duplicate of the same config
    dup.message = "identical second failure";

    std::ostringstream os;
    writeFailureManifest(os, "test_bench", 1.25, {f1, dup});

    obs::json::Value doc;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.find("schema_version")->number, 2.0);
    EXPECT_EQ(doc.find("source")->string, "test_bench");
    const obs::json::Value *failures = doc.find("failures");
    ASSERT_TRUE(failures && failures->isArray());
    ASSERT_EQ(failures->array.size(), 1u); // dedup by key
    const obs::json::Value &e = failures->array[0];
    EXPECT_EQ(e.find("key")->string, f1.key);
    EXPECT_TRUE(e.find("timeout")->boolean);
    EXPECT_EQ(e.find("error")->string, f1.message);
    ASSERT_TRUE(e.find("config") && e.find("config")->isObject());
    EXPECT_EQ(e.find("config")->find("workload")->string, "mixB");
}

/**
 * Where @p value's member names drift from @p schema's: at every
 * object the schema describes (by "required" or "properties"), the
 * two name sets must be equal, deprecated properties (only older
 * writers emit them) left out; the walk descends through the
 * described properties and into each array's first element.
 */
void
schemaDrift(const obs::json::Value &schema, const obs::json::Value &value,
            const std::string &path, std::vector<std::string> *out)
{
    if (value.isArray()) {
        if (const obs::json::Value *items = schema.find("items");
            items && !value.array.empty())
            schemaDrift(*items, value.array[0], path + "[0]", out);
        return;
    }
    if (!value.isObject())
        return;
    const obs::json::Value *props = schema.find("properties");
    std::set<std::string> described;
    if (const obs::json::Value *req = schema.find("required"))
        for (const obs::json::Value &k : req->array)
            described.insert(k.string);
    if (props)
        for (const auto &kv : props->object)
            if (!kv.second.find("deprecated"))
                described.insert(kv.first);
    if (described.empty())
        return;
    for (const auto &kv : value.object)
        if (!described.count(kv.first))
            out->push_back(path + "." + kv.first + ": not in the schema");
    for (const std::string &k : described)
        if (!value.find(k))
            out->push_back(path + "." + k + ": not written");
    if (props)
        for (const auto &kv : props->object)
            if (const obs::json::Value *v = value.find(kv.first))
                schemaDrift(kv.second, *v, path + "." + kv.first, out);
}

obs::json::Value
parseFile(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    obs::json::Value v;
    std::string err;
    EXPECT_TRUE(obs::json::parse(text.str(), &v, &err)) << path << ": " << err;
    return v;
}

/** Schema node of @p member inside the object node @p schema. */
const obs::json::Value &
property(const obs::json::Value &schema, const std::string &member)
{
    static const obs::json::Value none;
    const obs::json::Value *props = schema.find("properties");
    const obs::json::Value *p = props ? props->find(member) : nullptr;
    return p ? *p : none;
}

TEST(SchemaDrift, JournalAndBenchJsonMatchTheirSchemas)
{
    // Both files list every member the field list writes: a member
    // added to or dropped from configFields/resultFields (or the bench
    // JSON's host object) without its schema fails here, not in CI.
    RunResult r = fancyResult();
    r.profile.profPhases.push_back({"sim/run", 1500, 1});
    const std::string key = Runner::key(r.config);
    std::vector<std::string> drift;

    const std::string line = journalRecordLine(key, r);
    obs::json::Value journal;
    std::string err;
    ASSERT_TRUE(obs::json::parse(line, &journal, &err)) << err;
    schemaDrift(parseFile(MEMNET_CI_DIR "/journal_schema.json"), journal,
                "journal", &drift);

    std::ostringstream os;
    writeBenchResultsJson(os, "schema_test", {{key, r}});
    obs::json::Value bench;
    ASSERT_TRUE(obs::json::parse(os.str(), &bench, &err)) << err;
    schemaDrift(parseFile(MEMNET_CI_DIR "/bench_schema.json"), bench,
                "bench", &drift);
    // Only a stats dump writes "components": the document below.
    EXPECT_EQ(std::erase(drift, "bench.components: not written"), 1u);
    // Deprecated, yet still written (always empty) until the benchmark
    // stops reading RunProfile::partitionLanes; here and in the dump.
    const auto eraseLanes = [&drift](const std::string &doc) {
        return std::erase(drift, doc + ".runs[0].host.partition_lanes: "
                                       "not in the schema");
    };
    EXPECT_EQ(eraseLanes("bench"), 1u);

    // A stats dump of a managed policy writes every member of the
    // schema, "mgmt" included.
    SystemConfig cfg;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.policy = Policy::Aware;
    cfg.warmup = us(5);
    cfg.measure = us(20);
    cfg.obs.statsJsonPath = ::testing::TempDir() + "schema_drift_stats.json";
    runSimulation(cfg);
    const obs::json::Value stats = parseFile(cfg.obs.statsJsonPath);
    ASSERT_TRUE(stats.find("components"));
    ASSERT_TRUE(stats.find("components")->find("mgmt"));
    schemaDrift(parseFile(MEMNET_CI_DIR "/bench_schema.json"), stats,
                "stats", &drift);
    EXPECT_EQ(eraseLanes("stats"), 1u);
    EXPECT_TRUE(drift.empty()) << ::testing::PrintToString(drift);

    // The bench run is the journal record's members, plus "host".
    const obs::json::Value &record = *journal.find("record");
    const obs::json::Value &run = bench.find("runs")->array.at(0);
    for (const char *part : {"config", "result"}) {
        std::vector<std::string> a, b;
        for (const auto &kv : record.find(part)->object)
            a.push_back(kv.first);
        for (const auto &kv : run.find(part)->object)
            b.push_back(kv.first);
        EXPECT_EQ(a, b) << part;
    }
    // A schema that describes nothing would pass vacuously.
    const obs::json::Value benchSchema =
        parseFile(MEMNET_CI_DIR "/bench_schema.json");
    const obs::json::Value &runSchema =
        *property(benchSchema, "runs").find("items");
    EXPECT_TRUE(property(runSchema, "result").find("properties"));
    EXPECT_TRUE(property(runSchema, "config").find("properties"));
    EXPECT_TRUE(property(benchSchema, "components").find("properties"));
}

TEST(SchemaDrift, FailureManifestMatchesItsSchema)
{
    RunFailure f;
    f.config = fancyConfig();
    f.key = Runner::key(f.config);
    f.message = "boom";
    std::ostringstream os;
    writeFailureManifest(os, "schema_test", 0.5, {f});
    obs::json::Value doc;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), &doc, &err)) << err;
    std::vector<std::string> drift;
    schemaDrift(parseFile(MEMNET_CI_DIR "/failure_manifest_schema.json"),
                doc, "manifest", &drift);
    EXPECT_TRUE(drift.empty()) << ::testing::PrintToString(drift);
}

TEST(BenchJson, RunIsTheJournalRecordWithPlainNumbers)
{
    RunResult r = fancyResult();
    r.avgReadLatencyNs = std::numeric_limits<double>::quiet_NaN();
    std::ostringstream os;
    writeBenchResultsJson(os, "plain", {{"k", r}});
    const std::string doc = os.str();
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(doc, &v, &err)) << err;
    EXPECT_EQ(v.find("schema_version")->number, kBenchJsonSchemaVersion);
    EXPECT_EQ(v.find("bench")->string, "plain");
    // Integers print exactly, above 2^53 too; doubles in shortest
    // round-trip form; a NaN as null; enums as their numbers.
    for (const char *member :
         {"\"completed_reads\":2305843009213693959,",
          "\"seed\":1152921504606859321,", "\"idle_io_frac\":0.1,",
          "\"logic_dyn\":-0,", "\"avg_read_latency_ns\":null,",
          "\"policy\":2,", "\"host\":{\"prof_phases\":[],"
                           "\"partition_lanes\":[]}}]}\n"})
        EXPECT_NE(doc.find(member), std::string::npos) << member;
}

TEST(BenchJson, BatchedRunsEqualEachRunWrittenAlone)
{
    // More runs than one formatting batch: the document must be the
    // runs, each exactly as written alone, joined in key order.
    std::map<std::string, RunResult> results;
    for (int i = 0; i < 300; ++i) {
        RunResult r = fancyResult();
        r.config.seed = i;
        r.modules.resize(i % 4, r.modules.front());
        r.readsPerSec = i * 1.5e6;
        results.emplace(Runner::key(r.config), r);
    }
    const std::string head = "{\"schema_version\":" +
                             std::to_string(kBenchJsonSchemaVersion) +
                             ",\"bench\":\"batched\",\"runs\":[";
    const std::string tail = "]}\n";
    std::string expected = head;
    for (const auto &[k, r] : results) {
        std::ostringstream one;
        writeBenchResultsJson(one, "batched", {{k, r}});
        const std::string doc = one.str();
        ASSERT_TRUE(doc.starts_with(head) && doc.ends_with(tail));
        if (expected.size() > head.size())
            expected += ',';
        expected += doc.substr(head.size(),
                               doc.size() - head.size() - tail.size());
    }
    expected += tail;
    std::ostringstream all;
    writeBenchResultsJson(all, "batched", results);
    EXPECT_EQ(all.str(), expected);
}

} // namespace
} // namespace memnet
