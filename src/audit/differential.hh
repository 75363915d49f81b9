/**
 * @file
 * Differential consistency helpers: field-by-field comparison of runs
 * that must agree (the "bit-identical" claims the repo makes in prose,
 * turned into checks).
 *
 * Equivalences enforced by tests/test_differential.cc and the CI
 * differential job:
 *  - runMultiChannel(channels=1) vs the single-network Simulator;
 *  - obs-on vs obs-off;
 *  - audit-on vs audit-off;
 *  - parallel (--jobs N) vs serial sweeps.
 *
 * Only simulation-determined outputs are compared; the wall-clock /
 * event-throughput profile legitimately differs between equivalent
 * runs and is excluded.
 */

#ifndef MEMNET_AUDIT_DIFFERENTIAL_HH
#define MEMNET_AUDIT_DIFFERENTIAL_HH

#include <map>
#include <string>
#include <vector>

#include "memnet/config.hh"
#include "memnet/multichannel.hh"

namespace memnet
{
namespace audit
{

/**
 * One mismatching field of two runs expected to agree. Each side is
 * exact text: doubles in shortest round-trip form, or "absent".
 */
struct DiffEntry
{
    std::string field;
    std::string a;
    std::string b;
};

/**
 * Compare, exactly, every scalar the journal records for two
 * RunResults (memnet::forEachResultField), reporting journal paths
 * such as "latency.end_to_end.p99_ps". Skipped: host wall clock and
 * audit counts, kernel-layout counters when the runs used different
 * partition counts, and an observatory's group unless both runs have
 * it enabled (see the skip list in differential.cc).
 * @return the mismatches (empty when the runs agree).
 */
std::vector<DiffEntry> diffRunResults(const RunResult &a,
                                      const RunResult &b);

/**
 * Compare two whole result caches (Runner::results(), or a journal
 * loaded via loadJournal) key by key — the crash-safety equivalence: a
 * killed-and-resumed sweep must match the uninterrupted one exactly.
 * In a's key order, each key yields its diffRunResults() mismatches
 * prefixed with the key, or "only_in_a:<key>" when b lacks it; then
 * each key only b has yields "only_in_b:<key>".
 */
std::vector<DiffEntry>
diffResultMaps(const std::map<std::string, RunResult> &a,
               const std::map<std::string, RunResult> &b);

/**
 * Compare a 1-channel multi-channel result against the single-network
 * simulator result for the same SystemConfig: the whole-system
 * aggregates (modules, power, reads/s, idle I/O share, channel
 * utilization) and the latency and energy observatories, through
 * diffRunResults, so mismatches carry journal paths such as
 * "total_network_w" or "energy.idle_io_j".
 */
std::vector<DiffEntry> diffMultiVsSingle(const MultiChannelResult &mc,
                                         const RunResult &r);

/** Render a diff list for assertion messages ("" when empty). */
std::string describeDiffs(const std::vector<DiffEntry> &diffs);

} // namespace audit
} // namespace memnet

#endif // MEMNET_AUDIT_DIFFERENTIAL_HH
