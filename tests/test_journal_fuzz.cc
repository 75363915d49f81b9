/**
 * @file
 * Deterministic mutation fuzzer for the journal loader
 * (parseJournalLine / loadJournal). Seeds are the byte fixture's lines;
 * mutants are bit flips, truncations at every byte, spliced
 * (interleaved) and duplicated lines, key drift, and structural edits
 * with the CRC recomputed so they reach the parser: dropped, repeated
 * and renamed members, wrong value types, unbalanced brackets and
 * overlong numbers.
 *
 * The property: every mutant is either rejected with an error, or
 * loads to a record that re-serializes to the mutant's own bytes. The
 * one exception is built into the check: a mutant that lacks an
 * optional group (the shape older journals have) re-serializes with
 * that group at its defaults, so the group is deleted from the
 * re-serialized line before comparing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "memnet/experiment.hh"
#include "memnet/journal.hh"

namespace memnet
{
namespace
{

constexpr char kFixturePath[] = MEMNET_TEST_DATA_DIR "/journal_fixture.jsonl";
const std::string kHead = "{\"journal_version\":1,\"crc32\":\"";
const std::string kMid = "\",\"record\":";

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

/** The record payload of a well-framed line. */
std::string
payloadOf(const std::string &line)
{
    const std::size_t off = kHead.size() + 8 + kMid.size();
    return line.substr(off, line.size() - off - 2);
}

/** Frame @p payload as a journal line with a correct CRC. */
std::string
frame(const std::string &payload)
{
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x",
                  crc32(payload.data(), payload.size()));
    return kHead + crc + kMid + payload + "}\n";
}

/** One `"key":value` member of the canonical (whitespace-free) payload. */
struct Member
{
    std::size_t begin; ///< the key's opening quote
    std::size_t colon;
    std::size_t end; ///< one past the value
    char kind;       ///< first byte of the value
};

/** End of the JSON value starting at @p i. */
std::size_t
valueEnd(const std::string &s, std::size_t i)
{
    if (s[i] == '"')
        return s.find('"', i + 1) + 1; // no escapes in fixture strings
    if (s[i] != '{' && s[i] != '[') {
        while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']')
            ++i;
        return i;
    }
    int depth = 0;
    bool inString = false;
    for (; i < s.size(); ++i) {
        const char c = s[i];
        if (inString)
            inString = c != '"';
        else if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if ((c == '}' || c == ']') && --depth == 0)
            return i + 1;
    }
    return s.size();
}

/** Every object member of @p s, at any depth. */
std::vector<Member>
membersOf(const std::string &s)
{
    std::vector<Member> out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '"')
            continue;
        const std::size_t close = s.find('"', i + 1);
        if ((s[i - 1] == '{' || s[i - 1] == ',') && close + 1 < s.size() &&
            s[close + 1] == ':') {
            out.push_back({i, close + 1, valueEnd(s, close + 2),
                           s[close + 2]});
            i = close + 1; // scan on inside the value
        } else {
            i = close;
        }
    }
    return out;
}

/** Delete member @p m together with the comma that joins it. */
std::string
dropMember(const std::string &s, const Member &m)
{
    if (s[m.begin - 1] == ',')
        return s.substr(0, m.begin - 1) + s.substr(m.end);
    const std::size_t end = s[m.end] == ',' ? m.end + 1 : m.end;
    return s.substr(0, m.begin) + s.substr(end);
}

std::string
memberName(const std::string &s, const Member &m)
{
    return s.substr(m.begin + 1, m.colon - m.begin - 2);
}

/** The optional groups, each listed by its members. */
const std::vector<std::vector<std::string>> kOptionalGroups = {
    {"partitions", "partition_sync", "lax_window_ps"},
    {"latency"},
    {"energy"},
};

bool
hasMember(const std::string &payload, const std::string &name)
{
    return payload.find("\"" + name + "\":") != std::string::npos;
}

/** The members today's writer no longer emits; the reader discards them. */
const std::vector<std::string> kRetiredMembers = {"dispatch_window_ps",
                                                  "dispatch_windows"};

/** @p p without the first member of each name in @p names. */
std::string
withoutMembers(std::string p, const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        for (const Member &m : membersOf(p)) {
            if (memberName(p, m) == name) {
                p = dropMember(p, m);
                break;
            }
        }
    }
    return p;
}

/** @p p with its partition count, if any, written as 1. */
std::string
withOnePartition(std::string p)
{
    for (const Member &m : membersOf(p))
        if (memberName(p, m) == "partitions")
            return p.replace(m.colon + 1, m.end - m.colon - 1, "\"1\"");
    return p;
}

/**
 * @p line as today's writer spells it: its retired members dropped and
 * its partition count, which selects nothing, written as 1.
 */
std::string
todaysShape(const std::string &line)
{
    return frame(withOnePartition(
        withoutMembers(payloadOf(line), kRetiredMembers)));
}

/**
 * @p line with every optional group @p mutant lacks deleted, i.e. what
 * the writer would produce in the mutant's shape.
 */
std::string
inShapeOf(const std::string &line, const std::string &mutant)
{
    std::string p = payloadOf(line);
    const std::string mp = payloadOf(mutant);
    for (const auto &group : kOptionalGroups) {
        if (!hasMember(mp, group.front()))
            p = withoutMembers(p, group);
    }
    return frame(p);
}

struct Tally
{
    std::size_t rejected = 0;
    std::size_t accepted = 0;
};

/** Check the fuzz property on one mutant line. */
void
check(const std::string &mutant, Tally *tally, const char *what)
{
    std::string key, err;
    RunResult r;
    if (!parseJournalLine(mutant, &key, &r, &err)) {
        ASSERT_FALSE(err.empty()) << what << ": rejected without an error";
        ++tally->rejected;
        return;
    }
    ++tally->accepted;
    std::string line = mutant;
    if (line.empty() || line.back() != '\n')
        line += '\n';
    // Retired members are read and dropped, so only they may vanish,
    // and only the partition count may change.
    ASSERT_EQ(inShapeOf(journalRecordLine(key, r), line), todaysShape(line))
        << what << ": accepted a mutant that does not re-serialize to "
        << "its own bytes";
}

TEST(JournalFuzz, BitFlipsAndTruncationsAreRejected)
{
    const std::vector<std::string> seeds = fixtureLines();
    ASSERT_EQ(seeds.size(), 7u) << kFixturePath;
    Tally tally;
    for (const std::string &line : seeds) {
        // Truncation at every byte; only the full line (with or without
        // its newline) may load.
        for (std::size_t keep = 0; keep + 1 < line.size(); ++keep)
            check(line.substr(0, keep), &tally, "truncation");
        // Every bit of every byte, CRC left alone.
        for (std::size_t i = 0; i + 1 < line.size(); ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string m = line;
                m[i] = static_cast<char>(m[i] ^ (1 << bit));
                check(m, &tally, "bit flip");
            }
        }
    }
    // Nothing short of a whole line, and no single flipped bit, loads.
    EXPECT_EQ(tally.accepted, 0u);
}

TEST(JournalFuzz, StructuralMutationsWithRecomputedCrc)
{
    const std::vector<std::string> seeds = fixtureLines();
    ASSERT_EQ(seeds.size(), 7u) << kFixturePath;
    Tally tally;
    for (const std::string &line : seeds) {
        const std::string p = payloadOf(line);
        ASSERT_EQ(frame(p), line);
        for (const Member &m : membersOf(p)) {
            const std::string name = memberName(p, m);
            const std::string value = p.substr(m.colon + 1, m.end - m.colon - 1);
            // Dropped, repeated and renamed members.
            check(frame(dropMember(p, m)), &tally, "drop");
            check(frame(p.substr(0, m.end) + "," + p.substr(m.begin, m.end - m.begin) +
                        p.substr(m.end)),
                  &tally, "repeat");
            check(frame(p.substr(0, m.begin + 1) + name + "x" +
                        p.substr(m.colon - 1)),
                  &tally, "rename");
            // Wrong types.
            for (const char *other :
                 {"1", "true", "null", "\"\"", "{}", "[]", "\"x\""}) {
                if (value != other)
                    check(frame(p.substr(0, m.colon + 1) + other +
                                p.substr(m.end)),
                          &tally, "retype");
            }
            if (m.kind == '"') {
                // Unquoted, overlong and padded numbers.
                const std::string inner = value.substr(1, value.size() - 2);
                for (const std::string &bad :
                     {inner, "\"" + inner + "0\"", "\"0" + inner + "\"",
                      "\"" + inner + "123456789012345678901234567890\"",
                      "\" " + inner + "\"", "\"+" + inner + "\""}) {
                    check(frame(p.substr(0, m.colon + 1) + bad +
                                p.substr(m.end)),
                          &tally, "bad number");
                }
            }
        }
        // Unbalanced brackets: delete each one, or double it.
        for (std::size_t i = 0; i < p.size(); ++i) {
            const char c = p[i];
            if (c != '{' && c != '}' && c != '[' && c != ']')
                continue;
            check(frame(p.substr(0, i) + p.substr(i + 1)), &tally,
                  "bracket deleted");
            check(frame(p.substr(0, i) + c + p.substr(i)), &tally,
                  "bracket doubled");
        }
        // Random single-byte edits from JSON's own alphabet.
        static const std::string kAlphabet =
            "{}[]\",:0123456789abcdefpx.+- \\u";
        std::mt19937_64 rng(p.size());
        for (int i = 0; i < 3000; ++i) {
            std::string m = p;
            m[rng() % m.size()] = kAlphabet[rng() % kAlphabet.size()];
            check(frame(m), &tally, "byte edit");
        }
    }
    // The older shapes are reachable by dropping a whole group, and
    // single edits to values outside the key survive; most do not.
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 10 * tally.accepted);
}

TEST(JournalFuzz, KeyDriftIsRejected)
{
    const std::vector<std::string> seeds = fixtureLines();
    ASSERT_EQ(seeds.size(), 7u) << kFixturePath;
    for (const std::string &line : seeds) {
        const std::string p = payloadOf(line);
        for (const Member &m : membersOf(p)) {
            const std::string name = memberName(p, m);
            // The recorded key, and config members the key is built
            // from, edited without the other.
            if (name != "key" && name != "seed" && name != "workload" &&
                name != "warmup")
                continue;
            const std::string drifted =
                p.substr(0, m.end - 1) + (name == "workload" ? "x" : "7") +
                p.substr(m.end - 1);
            std::string k, err;
            RunResult r;
            EXPECT_FALSE(parseJournalLine(frame(drifted), &k, &r, &err))
                << name;
            EXPECT_NE(err.find("key mismatch"), std::string::npos) << err;
        }
    }
}

TEST(JournalFuzz, LoadSurvivesDuplicatedInterleavedAndDamagedLines)
{
    const std::vector<std::string> seeds = fixtureLines();
    ASSERT_EQ(seeds.size(), 7u) << kFixturePath;
    const std::string path = ::testing::TempDir() + "/journal_fuzz.jsonl";
    std::mt19937_64 rng(2026);
    for (int round = 0; round < 40; ++round) {
        // A journal of whole, duplicated, spliced (two appenders
        // interleaving), truncated, bit-flipped and empty lines.
        std::vector<std::string> lines;
        for (int i = 0; i < 24; ++i) {
            const std::string &a = seeds[rng() % seeds.size()];
            const std::string &b = seeds[rng() % seeds.size()];
            switch (rng() % 6) {
              case 0:
              case 1:
                lines.push_back(a);
                break;
              case 2:
                lines.push_back(a);
                lines.push_back(a);
                break;
              case 3:
                lines.push_back(a.substr(0, rng() % (a.size() - 1)) +
                                b.substr(1 + rng() % (b.size() - 1)));
                break;
              case 4: {
                std::string m = a;
                m[rng() % (m.size() - 1)] ^= 0x20;
                lines.push_back(m);
                break;
              }
              default:
                lines.push_back(rng() % 2 ? "\n"
                                          : a.substr(0, rng() % a.size()) +
                                                "\n");
            }
        }
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            for (const std::string &l : lines)
                os << l;
        }

        // What each line must do on its own decides the whole load.
        JournalLoadStats expect;
        std::map<std::string, std::string> lastLine;
        std::istringstream all([&] {
            std::string s;
            for (const std::string &l : lines)
                s += l;
            return s;
        }());
        std::string l;
        while (std::getline(all, l)) {
            if (l.empty())
                continue;
            std::string k, err;
            RunResult r;
            if (parseJournalLine(l, &k, &r, &err)) {
                ++expect.records;
                lastLine[k] = l + "\n";
            } else {
                ++expect.corrupt;
            }
        }

        std::map<std::string, RunResult> pool;
        JournalLoadStats stats;
        std::string err;
        ASSERT_TRUE(loadJournal(path, &pool, &stats, &err)) << err;
        EXPECT_EQ(stats.records, expect.records);
        EXPECT_EQ(stats.corrupt, expect.corrupt);
        EXPECT_EQ(stats.loaded, lastLine.size());
        EXPECT_EQ(stats.duplicates, stats.records - stats.loaded);
        ASSERT_EQ(pool.size(), lastLine.size());
        for (const auto &[k, line] : lastLine)
            EXPECT_EQ(inShapeOf(journalRecordLine(k, pool.at(k)), line),
                      todaysShape(line));
    }
}

} // namespace
} // namespace memnet
