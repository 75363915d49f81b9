/**
 * @file
 * Host-side profiler unit tests: scope recording, the disabled no-op
 * path, cross-thread merging, the exporters, and ScopedCapture deltas.
 *
 * Every test that records data resets the profiler first and disables
 * it afterwards, so tests stay independent even though the collectors
 * are process-global.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "memnet/parallel.hh"
#include "memnet/simulator.hh"
#include "obs/prof.hh"

namespace memnet
{
namespace
{

class ProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prof::reset();
        prof::setEnabled(true);
    }

    void
    TearDown() override
    {
        prof::setEnabled(false);
        prof::reset();
    }
};

TEST_F(ProfTest, ScopesNestIntoATree)
{
    {
        MEMNET_PROF_SCOPE("outer");
        {
            MEMNET_PROF_SCOPE("inner");
        }
        {
            MEMNET_PROF_SCOPE("inner");
        }
    }
    const prof::PhaseTree t = prof::snapshot();
    ASSERT_EQ(t.name, "all");
    const prof::PhaseTree *outer = t.child("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 1u);
    const prof::PhaseTree *inner = outer->child("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 2u);
    // Inclusive time flows up: the parent covers its child.
    EXPECT_GE(outer->ns, inner->ns);
    EXPECT_EQ(outer->selfNs(), outer->ns - inner->ns);
}

TEST_F(ProfTest, DisabledScopesRecordNothing)
{
    prof::setEnabled(false);
    {
        MEMNET_PROF_SCOPE("ghost");
    }
    prof::setEnabled(true);
    EXPECT_EQ(prof::snapshot().child("ghost"), nullptr);
}

TEST_F(ProfTest, ResetDropsDataButKeepsOpenScopesValid)
{
    MEMNET_PROF_SCOPE("open");
    {
        MEMNET_PROF_SCOPE("closed");
    }
    prof::reset();
    {
        MEMNET_PROF_SCOPE("after");
    }
    const prof::PhaseTree t = prof::snapshot();
    const prof::PhaseTree *open = t.child("open");
    ASSERT_NE(open, nullptr);
    // "closed" fully preceded the reset: its count is gone even though
    // the node survives in the live tree.
    const prof::PhaseTree *closed = open->child("closed");
    if (closed) {
        EXPECT_EQ(closed->count, 0u);
    }
    const prof::PhaseTree *after = open->child("after");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->count, 1u);
}

TEST_F(ProfTest, ExitedThreadsMergeByPhaseName)
{
    auto work = []() {
        MEMNET_PROF_SCOPE("worker_phase");
        MEMNET_PROF_SCOPE("leaf");
    };
    std::thread a(work), b(work);
    a.join();
    b.join();
    {
        MEMNET_PROF_SCOPE("worker_phase");
    }
    const prof::PhaseTree t = prof::snapshot();
    const prof::PhaseTree *wp = t.child("worker_phase");
    ASSERT_NE(wp, nullptr);
    // Two exited threads (retained trees) plus this thread, merged by
    // name into one node.
    EXPECT_EQ(wp->count, 3u);
    const prof::PhaseTree *leaf = wp->child("leaf");
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->count, 2u);
}

TEST_F(ProfTest, ScopedCaptureReturnsOnlyItsOwnDelta)
{
    {
        MEMNET_PROF_SCOPE("noise");
    }
    prof::ScopedCapture cap("cap_root");
    {
        MEMNET_PROF_SCOPE("work");
    }
    const std::vector<prof::ProfPhase> rows = cap.finish();
    ASSERT_FALSE(rows.empty());
    bool saw_root = false, saw_work = false, saw_noise = false;
    for (const prof::ProfPhase &p : rows) {
        if (p.path == "cap_root") {
            saw_root = true;
            EXPECT_EQ(p.count, 1u);
        }
        if (p.path == "cap_root;work") {
            saw_work = true;
            EXPECT_EQ(p.count, 1u);
        }
        if (p.path.find("noise") != std::string::npos)
            saw_noise = true;
    }
    EXPECT_TRUE(saw_root);
    EXPECT_TRUE(saw_work);
    EXPECT_FALSE(saw_noise);
    // finish() is idempotent.
    EXPECT_TRUE(cap.finish().empty());
}

TEST_F(ProfTest, SecondCaptureOfSamePhaseSeesOnlyNewCounts)
{
    {
        prof::ScopedCapture cap("repeat");
        MEMNET_PROF_SCOPE("step");
        (void)cap;
    }
    prof::ScopedCapture cap2("repeat");
    {
        MEMNET_PROF_SCOPE("step");
    }
    {
        MEMNET_PROF_SCOPE("step");
    }
    for (const prof::ProfPhase &p : cap2.finish()) {
        if (p.path == "repeat;step") {
            EXPECT_EQ(p.count, 2u); // not 3: first run predates cap2
        }
    }
}

TEST_F(ProfTest, ParallelRunnerWorkerPhasesSurviveJoin)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SystemConfig cfg;
        cfg.workload = "mixE";
        cfg.topology = TopologyKind::Star;
        cfg.policy = Policy::FullPower;
        cfg.warmup = us(20);
        cfg.measure = us(50);
        cfg.seed = seed;
        configs.push_back(cfg);
    }
    Runner runner;
    ParallelRunner(runner, 4).run(configs);

    // The helper threads exited inside run(); their trees must be
    // retained and merged by phase name with the calling thread's.
    const prof::PhaseTree t = prof::snapshot();
    const prof::PhaseTree *run = t.child("sim/run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->count, 4u);
    EXPECT_NE(run->child("sim/measure"), nullptr);

    // Each run's RunProfile carries its own capture delta.
    for (const SystemConfig &cfg : configs) {
        const RunResult &r = runner.get(cfg);
        ASSERT_FALSE(r.profile.profPhases.empty()) << cfg.seed;
        EXPECT_EQ(r.profile.profPhases.front().path, "sim/run");
        EXPECT_EQ(r.profile.profPhases.front().count, 1u);
    }
}

// The exporters consume a value-type tree, so they are testable with
// hand-built golden input.

prof::PhaseTree
goldenTree()
{
    prof::PhaseTree root{"all", 1000, 0, {}};
    prof::PhaseTree a{"sim/run", 900, 1, {}};
    a.children.push_back(prof::PhaseTree{"eq/dispatch", 700, 2, {}});
    a.children.back().children.push_back(
        prof::PhaseTree{"net/route", 300, 40, {}});
    root.children.push_back(a);
    root.children.push_back(prof::PhaseTree{"other", 100, 1, {}});
    return root;
}

TEST(ProfExport, CollapsedStacksMatchGolden)
{
    std::ostringstream os;
    prof::writeCollapsed(os, goldenTree());
    // Root omitted; one line per phase with nonzero self time, path
    // components joined with ';', self time in ns.
    EXPECT_EQ(os.str(),
              "sim/run 200\n"
              "sim/run;eq/dispatch 400\n"
              "sim/run;eq/dispatch;net/route 300\n"
              "other 100\n");
}

TEST(ProfExport, FlattenListsEveryPhaseDepthFirst)
{
    const std::vector<prof::ProfPhase> rows =
        prof::flatten(goldenTree());
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].path, "sim/run");
    EXPECT_EQ(rows[1].path, "sim/run;eq/dispatch");
    EXPECT_EQ(rows[2].path, "sim/run;eq/dispatch;net/route");
    EXPECT_EQ(rows[3].path, "other");
    EXPECT_EQ(rows[2].ns, 300u);
    EXPECT_EQ(rows[2].count, 40u);
}

TEST(ProfExport, SelfTimeNeverUnderflows)
{
    // A parent reporting less inclusive time than its children (clock
    // granularity) clamps to zero instead of wrapping.
    prof::PhaseTree odd{"p", 10, 1, {}};
    odd.children.push_back(prof::PhaseTree{"c", 25, 1, {}});
    EXPECT_EQ(odd.selfNs(), 0u);
}

} // namespace
} // namespace memnet
