/**
 * @file
 * Crash-safe run journal and failure manifest.
 *
 * A RunJournal is an append-only JSONL file recording every completed
 * RunResult of a sweep, keyed by the Runner's canonical memoization
 * key. Each line is self-checking:
 *
 *   {"journal_version":1,"crc32":"xxxxxxxx","record":{...}}\n
 *
 * where crc32 is the CRC-32 (IEEE 802.3, the zlib polynomial) of the
 * exact bytes of the record value. A process killed mid-append leaves
 * at most one torn line at the tail; loadJournal() detects it (missing
 * newline, checksum mismatch, or parse failure), skips it, and keeps
 * every earlier record — so `--journal` during a sweep plus `--resume`
 * on restart re-simulates only the configs whose records never landed.
 *
 * Full-precision encoding: JSON numbers round-trip badly (doubles via
 * shortest-decimal printers are safe in theory, but any consumer that
 * re-serializes can destroy them; 64-bit counters exceed the 2^53
 * exactness window of a double-backed DOM). The journal therefore
 * encodes every scalar as a string — doubles in C99 hex-float (glibc's
 * "%a" spelling, bit-exact by construction), integers in decimal.
 *
 * One field list in journal.cc drives both directions: the writer
 * appends the members in a fixed order, and the reader consumes them
 * in that order with no DOM. Accepted input is exactly what the writer
 * produces, plus the older shapes that lack groups later versions
 * inserted (see docs/ROBUSTNESS.md for the member order and grammar).
 * The same list is the only place a RunResult field is named: the
 * bench --json output and the stats dump are each record with plain
 * JSON numbers, and forEachResultField() walks it for
 * audit::diffRunResults.
 * A resumed sweep's final bench JSON is byte-identical to the same
 * sweep run uninterrupted (enforced by tests/test_journal.cc and the
 * crash-resume CI job via scripts/diff_runs.py).
 *
 * Appends are thread-safe and flushed per record, so ParallelRunner
 * workers journal as they complete and a SIGKILL loses at most the
 * in-flight record. Journals are plain concatenable text: merging two
 * sweeps is `cat a.jsonl b.jsonl` (duplicate keys resolve last-wins).
 *
 * The same file also hosts the failure-manifest writer of the sweep
 * front end (see memnet/parallel.hh): a machine-readable JSON
 * document of every config that threw or was cancelled by the hang
 * watchdog. Schemas: ci/journal_schema.json and
 * ci/failure_manifest_schema.json; format docs: docs/ROBUSTNESS.md.
 */

#ifndef MEMNET_MEMNET_JOURNAL_HH
#define MEMNET_MEMNET_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "memnet/config.hh"

namespace memnet
{

class Network;
class PowerManager;
struct RunFailure;

/** Journal line format version (the "journal_version" member). */
constexpr int kJournalVersion = 1;

/** CRC-32 (IEEE 802.3 polynomial, zlib-compatible) of @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n);

/**
 * Bit-exact double encoding for journal records: the bytes glibc's
 * snprintf("%a") writes ("0x1.91eb851eb851fp+1", "-0x0p+0",
 * "0x0.0000000000001p-1022", "inf", "-nan"), built without snprintf.
 */
std::string hexDouble(double v);

/**
 * Inverse of hexDouble(). Accepts exactly the spellings hexDouble()
 * produces (a NaN reads back as the quiet NaN of its sign); false for
 * anything else, including other valid C hex-floats such as "0x1p1".
 */
bool parseHexDouble(std::string_view s, double *out);

/** Serialize one completed run as a self-checking journal line. */
std::string journalRecordLine(const std::string &key, const RunResult &r);

/**
 * Parse and verify one journal line.
 * @return false (with @p err set) on any damage: bad framing, checksum
 *         mismatch, malformed JSON, a missing, misplaced, mistyped or
 *         out-of-range member, or a config whose recomputed Runner key
 *         no longer matches the recorded one (format drift).
 */
bool parseJournalLine(std::string_view line, std::string *key,
                      RunResult *result, std::string *err);

/** A pointer to one scalar member of a RunResult. */
using ConstFieldRef =
    std::variant<const bool *, const int *, const std::int64_t *,
                 const std::uint64_t *, const double *>;

/**
 * Call @p fn on every scalar of @p r the journal records, in record
 * order, with its path in the record's "result" object: "num_modules",
 * "latency.end_to_end.p99_ps", "energy.idle_mode_j[3]", "modules[1].id".
 */
void forEachResultField(const RunResult &r,
                        const std::function<void(const std::string &,
                                                 ConstFieldRef)> &fn);

/** Bench --json format version; v5 made each run a journal record. */
constexpr int kBenchJsonSchemaVersion = 5;

/**
 * Bench --json output (ci/bench_schema.json): every run in key order,
 * each the journal record with plain JSON numbers, plus a "host" object
 * for the profiler phases no journal keeps (and the deprecated,
 * always-empty partition lanes).
 */
void writeBenchResultsJson(
    std::ostream &os, const std::string &bench,
    const std::map<std::string, RunResult> &results);

/**
 * A stats dump (SystemConfig::obs.statsJsonPath, memnet_run
 * --stats-json): a bench JSON document whose one run is @p r under
 * @p key, byte for byte what writeBenchResultsJson() writes for it,
 * plus a top-level "components" object with the end-of-run counters of
 * @p net, its event queue and @p mgr (null: no "mgmt" member) that no
 * record keeps: per-link ledgers, per-module energy terms, manager and
 * event-queue state. Call after Network::energyAttribution() at the
 * run's final tick.
 */
void writeStatsJson(std::ostream &os, const std::string &key,
                    const RunResult &r, Network &net,
                    const PowerManager *mgr);

/** What loadJournal() found, for the resume progress message. */
struct JournalLoadStats
{
    /** Unique keys loaded (after last-wins dedup). */
    std::size_t loaded = 0;
    /** Valid records seen (>= loaded when keys repeat). */
    std::size_t records = 0;
    /** Damaged records skipped (torn tail, corruption). */
    std::size_t corrupt = 0;
    /** Same-key overwrites (records - loaded). */
    std::size_t duplicates = 0;
};

/**
 * Load every valid record of a journal into @p out (last record wins
 * per key). Damaged lines are skipped with a warning, not fatal — a
 * torn tail is the expected signature of a killed sweep.
 * @return false only when the file cannot be read at all.
 */
bool loadJournal(const std::string &path,
                 std::map<std::string, RunResult> *out,
                 JournalLoadStats *stats = nullptr,
                 std::string *err = nullptr);

/**
 * Append-only journal writer. Attach to a Runner via setJournal():
 * every freshly executed run is appended and flushed before the result
 * is handed to the caller, so a crash can lose only work that no
 * caller ever observed.
 */
class RunJournal
{
  public:
    explicit RunJournal(std::string path) : path_(std::move(path)) {}

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /**
     * Open the file for append (created if missing). @return false,
     * with a warning, when the path is unwritable.
     */
    bool open();

    /** True after a successful open() with no write error since. */
    bool ok() const { return os.is_open() && os.good(); }

    const std::string &path() const { return path_; }

    /** Records appended by this writer. */
    std::uint64_t appended() const { return appended_; }

    /**
     * Append one completed run and flush. Thread-safe. Write errors
     * warn once and latch ok() false.
     */
    void append(const std::string &key, const RunResult &r);

  private:
    std::mutex mu;
    std::string path_;
    std::ofstream os;
    std::uint64_t appended_ = 0;
    bool warned = false;
};

/** Failure-manifest format version (the "schema_version" member). */
constexpr int kFailureManifestVersion = 2;

/**
 * Write the machine-readable failure manifest of a sweep: one entry
 * per failed config (first failure wins per key), carrying the
 * canonical key, the config echo, the exception text — for watchdog
 * expiries, the diagnostics snapshot — and whether the hang watchdog
 * (rather than an exception) killed it. Schema:
 * ci/failure_manifest_schema.json.
 */
void writeFailureManifest(std::ostream &os, const std::string &source,
                          double configTimeoutSec,
                          const std::vector<RunFailure> &failures);

} // namespace memnet

#endif // MEMNET_MEMNET_JOURNAL_HH
