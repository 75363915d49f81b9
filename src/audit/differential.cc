#include "audit/differential.hh"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "memnet/journal.hh"

namespace memnet
{
namespace audit
{

namespace
{

/** @p path is one of @p groups, or a member or cell of one. */
bool
within(std::string_view path, std::initializer_list<std::string_view> groups)
{
    return std::any_of(groups.begin(), groups.end(), [path](auto g) {
        return path.starts_with(g) &&
               (path.size() == g.size() || path[g.size()] == '.' ||
                path[g.size()] == '[');
    });
}

/** The differ's skip list: every other scalar is compared exactly. */
bool
skipped(std::string_view path, const RunResult &a, const RunResult &b)
{
    return
        // Host wall clock, which varies between identical runs; the
        // auditor's check count, zero with auditing off; and the
        // observatory switches, which gate their groups below.
        within(path, {"profile.wall_s", "profile.audit_checks_run",
                      "latency.enabled", "energy.enabled"}) ||
        // An observatory is absent only from records loaded from
        // journals written before it existed.
        (within(path, {"latency"}) &&
         !(a.latency.enabled && b.latency.enabled)) ||
        (within(path, {"energy"}) &&
         !(a.energy.enabled && b.energy.enabled));
}

std::string
text(ConstFieldRef f)
{
    return std::visit(
        [](auto *p) -> std::string {
            char buf[32];
            if constexpr (std::is_same_v<decltype(p), const bool *>)
                return *p ? "true" : "false";
            else
                return {buf, std::to_chars(buf, buf + sizeof buf, *p).ptr};
        },
        f);
}

/** Both refs point at the same member of two results. */
bool
same(ConstFieldRef x, ConstFieldRef y)
{
    return std::visit(
        [&y](auto *p) { return *p == *std::get<decltype(p)>(y); }, x);
}

} // namespace

std::vector<DiffEntry>
diffRunResults(const RunResult &a, const RunResult &b)
{
    // Both sides walk one field list, so their paths differ only where
    // a list is longer on one side; those cells pair with "absent".
    const auto fields = [](const RunResult &r) {
        std::vector<std::pair<std::string, ConstFieldRef>> out;
        forEachResultField(r, [&out](const std::string &p, ConstFieldRef f) {
            out.emplace_back(p, f);
        });
        return out;
    };
    const auto fa = fields(a);
    const auto fb = fields(b);
    std::unordered_map<std::string_view, ConstFieldRef> unmatched(
        fb.begin(), fb.end());
    std::vector<DiffEntry> out;
    for (const auto &[path, f] : fa) {
        const auto it = unmatched.find(path);
        const bool both = it != unmatched.end();
        if (!skipped(path, a, b) && (!both || !same(f, it->second)))
            out.push_back({path, text(f),
                           both ? text(it->second) : "absent"});
        if (both)
            unmatched.erase(it);
    }
    for (const auto &[path, f] : fb)
        if (unmatched.count(path) && !skipped(path, a, b))
            out.push_back({path, "absent", text(f)});
    return out;
}

std::vector<DiffEntry>
diffResultMaps(const std::map<std::string, RunResult> &a,
               const std::map<std::string, RunResult> &b)
{
    std::vector<DiffEntry> out;
    for (const auto &[key, ra] : a) {
        const auto ib = b.find(key);
        if (ib == b.end())
            out.push_back({"only_in_a:" + key, "present", "absent"});
        else
            for (DiffEntry &e : diffRunResults(ra, ib->second))
                out.push_back({key + ": " + e.field, e.a, e.b});
    }
    for (const auto &[key, rb] : b)
        if (!a.count(key))
            out.push_back({"only_in_b:" + key, "absent", "present"});
    return out;
}

std::vector<DiffEntry>
diffMultiVsSingle(const MultiChannelResult &mc, const RunResult &r)
{
    // The single run with every field a multi-channel result also
    // reports replaced by mc's value, so one walk of the journal's field
    // list compares them and names a mismatch by its journal path.
    RunResult projected = r;
    projected.numModules = mc.totalModules;
    projected.totalNetworkPowerW = mc.totalPowerW;
    projected.readsPerSec = mc.readsPerSec;
    projected.idleIoFrac = mc.idleIoFrac;
    if (!mc.channelUtil.empty())
        projected.channelUtil = mc.channelUtil[0];
    projected.latency = mc.latency;
    projected.energy = mc.energy;
    return diffRunResults(projected, r);
}

std::string
describeDiffs(const std::vector<DiffEntry> &diffs)
{
    std::string out;
    for (const DiffEntry &e : diffs)
        out += e.field + ": " + e.a + " != " + e.b + "\n";
    return out;
}

} // namespace audit
} // namespace memnet
