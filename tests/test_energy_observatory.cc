/**
 * @file
 * Unit tests for the energy observatory: the attribution ledger
 * (EnergyAttribution, src/power/power_breakdown.hh) — cause-bucket
 * folding, the derived identities, exact merge — plus the congestion
 * sketches (src/obs/energy_observatory.hh), the stats dump's
 * per-module terms, the Chrome-trace counter renderer, and what a
 * whole run reports. The run-level guarantees (partitioned == serial,
 * mutation-tested auditor check) live in test_partition.cc /
 * test_audit.cc.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "dram/dram_params.hh"
#include "memnet/journal.hh"
#include "memnet/simulator.hh"
#include "net/network.hh"
#include "obs/energy_observatory.hh"
#include "sim/event_queue.hh"

#include "json_dom.hh"

namespace memnet
{
namespace
{

LinkStats
syntheticStats(double scale)
{
    LinkStats ls;
    ls.txJ = 0.5 * scale;
    ls.retrainJ = 0.125 * scale;
    ls.idleFloorJ[0] = 1.0 * scale;
    ls.idleFloorJ[3] = 0.25 * scale;
    ls.sleepJ = 0.0625 * scale;
    ls.wakeJ = 0.03125 * scale;
    return ls;
}

TEST(EnergyAttributionLedger, AddLinkFoldsEveryCauseBucket)
{
    const LinkStats ls = syntheticStats(1.0);
    EnergyAttribution a;
    addLink(a, ls);

    EXPECT_DOUBLE_EQ(a.txJ, ls.txJ);
    EXPECT_DOUBLE_EQ(a.retrainJ, ls.retrainJ);
    EXPECT_DOUBLE_EQ(a.idleModeJ[0], ls.idleFloorJ[0]);
    EXPECT_DOUBLE_EQ(a.idleModeJ[3], ls.idleFloorJ[3]);
    EXPECT_DOUBLE_EQ(a.sleepJ, ls.sleepJ);
    EXPECT_DOUBLE_EQ(a.wakeJ, ls.wakeJ);

    // Anchors come from the link's own derived accessors, so for a
    // single link they are exactly the cause sums (the values above
    // are dyadic rationals: no rounding anywhere).
    EXPECT_EQ(a.activeIoJ, ls.txJ + ls.retrainJ);
    EXPECT_EQ(a.idleIoJ, ls.idleIoJ());
    EXPECT_EQ(a.idleFloorJ(), 1.25);
    EXPECT_EQ(a.linkIoJ(), a.idleIoJ + a.activeIoJ);
    EXPECT_EQ(a.moduleJ(), 0.0);
    EXPECT_EQ(a.totalJ(), a.linkIoJ());
}

TEST(EnergyAttributionLedger, AddModuleFoldsTerms)
{
    ModuleEnergyTerms t;
    t.logicLeakJ = 0.5;
    t.logicDynJ = 0.25;
    t.dramLeakJ = 0.125;
    t.dramDynJ = 0.0625;
    EnergyAttribution a;
    a.addModule(t);

    EXPECT_DOUBLE_EQ(a.serdesLeakJ, t.logicLeakJ);
    EXPECT_DOUBLE_EQ(a.routerJ, t.logicDynJ);
    EXPECT_DOUBLE_EQ(a.dramLeakJ, t.dramLeakJ);
    EXPECT_DOUBLE_EQ(a.dramDynJ, t.dramDynJ);
    EXPECT_EQ(a.moduleJ(), 0.9375);
    EXPECT_EQ(a.totalJ(), 0.9375);
}

TEST(EnergyAttributionLedger, MergeIsFieldWiseExact)
{
    EnergyAttribution a, b;
    addLink(a, syntheticStats(1.0));
    addLink(b, syntheticStats(2.0));

    EnergyAttribution sum = a;
    sum += b;
    // Dyadic values again: field-wise addition must be exact, and the
    // merged ledger must equal folding both links into one.
    EnergyAttribution both;
    addLink(both, syntheticStats(1.0));
    addLink(both, syntheticStats(2.0));
    EXPECT_EQ(sum.txJ, both.txJ);
    EXPECT_EQ(sum.retrainJ, both.retrainJ);
    EXPECT_EQ(sum.idleFloorJ(), both.idleFloorJ());
    EXPECT_EQ(sum.sleepJ, both.sleepJ);
    EXPECT_EQ(sum.wakeJ, both.wakeJ);
    EXPECT_EQ(sum.idleIoJ, both.idleIoJ);
    EXPECT_EQ(sum.activeIoJ, both.activeIoJ);
    EXPECT_EQ(sum.totalJ(), both.totalJ());
}

class EnergyObservatoryNet : public ::testing::Test
{
  protected:
    EnergyObservatoryNet()
        : topo(Topology::build(TopologyKind::TernaryTree, 7))
    {
        amap.chunkBytes = 1ULL << 30;
        amap.modules = 7;
        net = std::make_unique<Network>(eq, topo, dram,
                                        BwMechanism::Vwl, roo, pm,
                                        amap);
    }

    EventQueue eq;
    Topology topo;
    DramParams dram;
    HmcPowerModel pm;
    RooConfig roo;
    AddressMap amap;
    std::unique_ptr<Network> net;
};

TEST_F(EnergyObservatoryNet, SketchesCoverEveryLinkWhenEnabled)
{
    eq.runUntil(us(10));
    const EnergySummary s = summarizeEnergy(
        net->energyAttribution(eq.now()),
        net->collectEnergySketches(eq.now()));
    EXPECT_TRUE(s.enabled);
    // One utilization sample per link; an idle net has all-zero ppm
    // and no enqueues.
    EXPECT_EQ(s.utilization.samples, 2u * 7u);
    EXPECT_EQ(s.utilization.maxPs, 0u);
    EXPECT_EQ(s.occupancy.samples, 0u);
}

TEST_F(EnergyObservatoryNet, StatsDumpCarriesEachModulesTerms)
{
    eq.runUntil(us(10));
    net->energyAttribution(eq.now());
    std::ostringstream os;
    writeStatsJson(os, "k", RunResult{}, *net, nullptr, {&eq});
    obs::json::Value doc;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), &doc, &err)) << err;

    const obs::json::Value &c = *doc.find("components");
    const auto &mods = c.find("modules")->array;
    ASSERT_EQ(mods.size(), 7u);
    for (int m = 0; m < 7; ++m) {
        const ModuleEnergyTerms t = net->moduleEnergy(m, eq.now());
        const obs::json::Value &v = mods[m];
        EXPECT_EQ(v.find("id")->number, m);
        EXPECT_GT(t.logicLeakJ, 0.0);
        EXPECT_EQ(v.find("serdes_leak_j")->number, t.logicLeakJ) << m;
        EXPECT_EQ(v.find("router_j")->number, t.logicDynJ) << m;
        EXPECT_EQ(v.find("dram_leak_j")->number, t.dramLeakJ) << m;
        EXPECT_EQ(v.find("dram_dyn_j")->number, t.dramDynJ) << m;
    }
    // No manager, no mgmt member.
    EXPECT_EQ(c.find("mgmt"), nullptr);
}

/** Host that frees what the network hands back. */
struct CountingHost : public EndpointHost
{
    int reads = 0;

    void
    readCompleted(Packet *pkt, Tick) override
    {
        ++reads;
        delete pkt;
    }

    void writeRetired(Packet *pkt, Tick) override { delete pkt; }
};

TEST_F(EnergyObservatoryNet, BareNetworkRecordsBothObservatories)
{
    // No Simulator wires anything up: a Network records latency and
    // energy on its own.
    CountingHost host;
    net->setHost(&host);
    for (std::uint64_t m = 0; m < 3; ++m) {
        Packet *p = new Packet;
        p->id = m;
        p->type = PacketType::ReadReq;
        p->addr = m << 30;
        p->flits = flitsFor(p->type);
        net->inject(p);
    }
    eq.runUntil(us(10));
    ASSERT_EQ(host.reads, 3);

    const LatencyBreakdown lat = net->latencySummary();
    EXPECT_TRUE(lat.enabled);
    EXPECT_EQ(lat.endToEnd.samples, 3u);
    EXPECT_GT(lat.dram.sumPs, 0u);
    const EnergySummary e = summarizeEnergy(
        net->energyAttribution(eq.now()),
        net->collectEnergySketches(eq.now()));
    EXPECT_TRUE(e.enabled);
    EXPECT_GT(e.occupancy.samples, 0u);
    EXPECT_GT(e.attribution.txJ, 0.0);
}

TEST(EnergyObservatoryRun, ReportsLedgerAndSketches)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.topology = TopologyKind::Star;
    cfg.policy = Policy::Aware;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg.warmup = us(50);
    cfg.measure = us(150);
    cfg.epochLen = us(30);
    const RunResult r = runSimulation(cfg);
    ASSERT_TRUE(r.energy.enabled);
    EXPECT_GT(r.energy.attribution.totalJ(), 0.0);
    EXPECT_GT(r.energy.occupancy.samples, 0u);
    // Utilization records one sample per link.
    EXPECT_EQ(r.energy.utilization.samples,
              static_cast<std::uint64_t>(2 * r.numModules));
}

TEST(EnergyCounterArgs, RendersPerCauseWatts)
{
    EnergyAttribution prev, cur;
    cur.txJ = 1.5;
    cur.idleModeJ[0] = 3.0;
    cur.sleepJ = 0.5;
    // 2-second window.
    const std::string args =
        obs::renderEnergyCounterArgs(cur, prev, 0.5);
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(args, &v, &err))
        << err << " in " << args;
    const auto watts = [&v](const char *key) {
        const obs::json::Value *m = v.find(key);
        EXPECT_TRUE(m != nullptr) << key;
        return m ? m->number : -1.0;
    };
    EXPECT_DOUBLE_EQ(watts("tx"), 0.75);
    EXPECT_DOUBLE_EQ(watts("idle_floor"), 1.5);
    EXPECT_DOUBLE_EQ(watts("sleep"), 0.25);
    EXPECT_DOUBLE_EQ(watts("wake"), 0.0);
    for (const char *key : {"tx", "idle_floor", "sleep", "wake",
                            "retrain", "serdes_leak", "router",
                            "dram_leak", "dram_dyn"})
        EXPECT_TRUE(v.find(key) != nullptr) << key;

    // Zero-length window renders zeros rather than infinities.
    const std::string flat =
        obs::renderEnergyCounterArgs(cur, prev, 0.0);
    obs::json::Value z;
    ASSERT_TRUE(obs::json::parse(flat, &z, &err)) << err;
    EXPECT_DOUBLE_EQ(z.find("tx") ? z.find("tx")->number : -1.0, 0.0);
}

} // namespace
} // namespace memnet
