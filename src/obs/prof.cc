#include "obs/prof.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <utility>

#include "sim/log.hh"

namespace memnet
{
namespace prof
{

std::uint64_t
PhaseTree::selfNs() const
{
    std::uint64_t kids = 0;
    for (const PhaseTree &c : children)
        kids += c.ns;
    return ns > kids ? ns - kids : 0;
}

const PhaseTree *
PhaseTree::child(const std::string &want) const
{
    for (const PhaseTree &c : children) {
        if (c.name == want)
            return &c;
    }
    return nullptr;
}

namespace
{

void
collapse(std::ostream &os, const PhaseTree &t, const std::string &prefix)
{
    const std::string path =
        prefix.empty() ? t.name : prefix + ';' + t.name;
    if (const std::uint64_t self = t.selfNs())
        os << path << ' ' << self << '\n';
    for (const PhaseTree &c : t.children)
        collapse(os, c, path);
}

void
flattenInto(const PhaseTree &t, const std::string &prefix,
            std::vector<ProfPhase> &out)
{
    const std::string path =
        prefix.empty() ? t.name : prefix + ';' + t.name;
    out.push_back(ProfPhase{path, t.ns, t.count});
    for (const PhaseTree &c : t.children)
        flattenInto(c, path, out);
}

} // namespace

void
writeCollapsed(std::ostream &os, const PhaseTree &tree)
{
    // The synthetic root ("all") is omitted from stacks; its self time
    // is zero by construction anyway.
    for (const PhaseTree &c : tree.children)
        collapse(os, c, "");
}

std::vector<ProfPhase>
flatten(const PhaseTree &tree)
{
    std::vector<ProfPhase> out;
    for (const PhaseTree &c : tree.children)
        flattenInto(c, "", out);
    return out;
}

bool
writeSnapshotFile(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        memnet_warn("cannot open profile output file: ", path);
        return false;
    }
    writeCollapsed(os, snapshot());
    return closeOutput(os, "profile", path);
}

#if MEMNET_PROFILE

namespace detail
{

std::atomic<bool> g_enabled{false};

namespace
{

/**
 * One thread's phase tree. The owning thread mutates it lock-free;
 * snapshot()/reset() read it under the registry mutex, which is only
 * safe while no profiled region runs on that thread (the documented
 * quiescence contract — benches snapshot after their pools joined).
 */
struct ThreadCollector
{
    Node root{"thread"};
    Node *cur = &root;
};

/** Registry of live collectors plus the merged trees of dead threads. */
struct Registry
{
    std::mutex mu;
    std::vector<ThreadCollector *> live;
    PhaseTree retained{"all", 0, 0, {}};
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: outlives all threads
    return *r;
}

void
freeNodes(Node *n)
{
    for (Node *c : n->children)
        freeNodes(c);
    delete n;
}

void
mergeNode(PhaseTree &dst, const Node &src)
{
    dst.ns += src.ns;
    dst.count += src.count;
    for (const Node *c : src.children) {
        PhaseTree *slot = nullptr;
        for (PhaseTree &d : dst.children) {
            if (d.name == c->name) {
                slot = &d;
                break;
            }
        }
        if (!slot) {
            dst.children.push_back(PhaseTree{c->name, 0, 0, {}});
            slot = &dst.children.back();
        }
        mergeNode(*slot, *c);
    }
}

void
sortTree(PhaseTree &t)
{
    std::sort(t.children.begin(), t.children.end(),
              [](const PhaseTree &a, const PhaseTree &b) {
                  return a.name < b.name;
              });
    for (PhaseTree &c : t.children)
        sortTree(c);
}

void
zeroNodes(Node *n)
{
    n->ns = 0;
    n->count = 0;
    for (Node *c : n->children)
        zeroNodes(c);
}

/**
 * Registers the thread's collector on first use and, on thread exit,
 * folds its tree into the retained merge so helper threads' phases
 * survive the join.
 */
struct TlsSlot
{
    ThreadCollector collector;

    TlsSlot()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.live.push_back(&collector);
    }

    ~TlsSlot()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        mergeNode(r.retained, collector.root);
        r.live.erase(std::remove(r.live.begin(), r.live.end(),
                                 &collector),
                     r.live.end());
        for (Node *c : collector.root.children)
            freeNodes(c);
        collector.root.children.clear();
    }
};

ThreadCollector &
tls()
{
    static thread_local TlsSlot slot;
    return slot.collector;
}

} // namespace

Node *
enterScope(const char *name)
{
    ThreadCollector &c = tls();
    Node *parent = c.cur;
    // Scope names are string literals, so the pointer usually matches;
    // strcmp covers the same literal emitted by multiple TUs.
    for (Node *child : parent->children) {
        if (child->name == name ||
            std::strcmp(child->name, name) == 0) {
            c.cur = child;
            return child;
        }
    }
    Node *child = new Node(name);
    child->parent = parent;
    parent->children.push_back(child);
    c.cur = child;
    return child;
}

void
exitScope(Node *node, std::uint64_t ns)
{
    node->ns += ns;
    ++node->count;
    tls().cur = node->parent;
}

namespace
{

PhaseTree
toTree(const Node *n)
{
    PhaseTree t{n->name, n->ns, n->count, {}};
    t.children.reserve(n->children.size());
    for (const Node *c : n->children)
        t.children.push_back(toTree(c));
    return t;
}

std::vector<ProfPhase>
flattenSubtree(const Node *n)
{
    PhaseTree t = toTree(n);
    sortTree(t);
    std::vector<ProfPhase> out;
    out.push_back(ProfPhase{t.name, t.ns, t.count});
    for (const PhaseTree &c : t.children)
        flattenInto(c, t.name, out);
    return out;
}

} // namespace

} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

PhaseTree
snapshot()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    PhaseTree out = r.retained;
    for (const auto *c : r.live) {
        // Fold each live thread's top-level phases into the root.
        for (const detail::Node *top : c->root.children) {
            PhaseTree *slot = nullptr;
            for (PhaseTree &d : out.children) {
                if (d.name == top->name) {
                    slot = &d;
                    break;
                }
            }
            if (!slot) {
                out.children.push_back(PhaseTree{top->name, 0, 0, {}});
                slot = &out.children.back();
            }
            detail::mergeNode(*slot, *top);
        }
    }
    out.name = "all";
    out.count = 0;
    out.ns = 0;
    for (const PhaseTree &c : out.children)
        out.ns += c.ns;
    detail::sortTree(out);
    return out;
}

void
reset()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retained = PhaseTree{"all", 0, 0, {}};
    // Zero live trees in place: any open scope's node chain stays
    // valid, so a reset between runs never dangles a cur pointer.
    for (auto *c : r.live)
        detail::zeroNodes(&c->root);
}

ScopedCapture::ScopedCapture(const char *name)
{
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
        node_ = detail::enterScope(name);
        before_ = detail::flattenSubtree(node_);
        start_ = std::chrono::steady_clock::now();
    }
}

std::vector<ProfPhase>
ScopedCapture::finish()
{
    if (done_ || !node_)
        return {};
    done_ = true;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    detail::exitScope(node_, static_cast<std::uint64_t>(ns));

    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> prev;
    for (const ProfPhase &p : before_)
        prev[p.path] = {p.ns, p.count};

    std::vector<ProfPhase> out;
    for (const ProfPhase &p : detail::flattenSubtree(node_)) {
        auto it = prev.find(p.path);
        const std::uint64_t ns0 = it == prev.end() ? 0 : it->second.first;
        const std::uint64_t n0 =
            it == prev.end() ? 0 : it->second.second;
        if (p.ns == ns0 && p.count == n0)
            continue; // untouched by this capture
        out.push_back(
            ProfPhase{p.path, p.ns - ns0, p.count - n0});
    }
    return out;
}

ScopedCapture::~ScopedCapture()
{
    if (node_ && !done_)
        finish();
}

#else // !MEMNET_PROFILE

void
setEnabled(bool)
{
}

bool
enabled()
{
    return false;
}

PhaseTree
snapshot()
{
    return PhaseTree{"all", 0, 0, {}};
}

void
reset()
{
}

#endif // MEMNET_PROFILE

} // namespace prof
} // namespace memnet
