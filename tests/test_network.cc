/**
 * @file
 * Integration tests for the assembled network: routing, end-to-end
 * latency, address mapping, energy composition.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hh"
#include "sim/event_queue.hh"

namespace memnet
{
namespace
{

/** Host capturing read completions and write retirements. */
struct TestHost : public EndpointHost
{
    struct Done
    {
        std::uint64_t id;
        Tick when;
    };
    std::vector<Done> reads;
    std::vector<Done> writes;

    void
    readCompleted(Packet *pkt, Tick now) override
    {
        reads.push_back({pkt->id, now});
        delete pkt;
    }

    void
    writeRetired(Packet *pkt, Tick now) override
    {
        writes.push_back({pkt->id, now});
        delete pkt;
    }
};

class NetworkTest : public ::testing::Test
{
  protected:
    void
    build(TopologyKind kind, int n,
          std::uint64_t chunk = 4ULL << 30, bool interleave = false)
    {
        Topology topo = Topology::build(kind, n);
        RooConfig roo;
        AddressMap amap;
        amap.chunkBytes = chunk;
        amap.interleavePages = interleave;
        net = std::make_unique<Network>(eq, topo, dram,
                                        BwMechanism::None, roo, pm,
                                        amap);
        net->setHost(&host);
    }

    Packet *
    inject(PacketType type, std::uint64_t addr, std::uint64_t id)
    {
        Packet *p = new Packet;
        p->id = id;
        p->type = type;
        p->addr = addr;
        p->flits = flitsFor(type);
        p->issued = eq.now();
        net->inject(p);
        return p;
    }

    EventQueue eq;
    DramParams dram;
    HmcPowerModel pm;
    TestHost host;
    std::unique_ptr<Network> net;
};

/** Per-hop one-way latency for a k-flit packet on an idle full link. */
constexpr Tick
hopLatency(int flits)
{
    return flits * LinkTiming::kFullFlitPs + LinkTiming::kSerdesPs +
           LinkTiming::kRouterPs;
}

TEST_F(NetworkTest, ReadRoundTripSingleModule)
{
    build(TopologyKind::DaisyChain, 1);
    inject(PacketType::ReadReq, 0, 1);
    eq.run();
    ASSERT_EQ(host.reads.size(), 1u);
    // Request hop + 30 ns DRAM + response hop.
    EXPECT_EQ(host.reads[0].when,
              hopLatency(1) + ns(30) + hopLatency(5));
}

TEST_F(NetworkTest, ReadLatencyGrowsPerHop)
{
    build(TopologyKind::DaisyChain, 4, 1ULL << 30);
    // Address in the 4th GB -> module 3, depth 4.
    inject(PacketType::ReadReq, 3ULL << 30, 1);
    eq.run();
    ASSERT_EQ(host.reads.size(), 1u);
    EXPECT_EQ(host.reads[0].when,
              4 * hopLatency(1) + ns(30) + 4 * hopLatency(5));
}

TEST_F(NetworkTest, WritesRetireAtHomeModule)
{
    build(TopologyKind::DaisyChain, 2, 1ULL << 30);
    inject(PacketType::WriteReq, 1ULL << 30, 7);
    eq.run();
    ASSERT_EQ(host.writes.size(), 1u);
    EXPECT_EQ(host.reads.size(), 0u);
    // Two request hops (5-flit write) + 30 ns write service.
    EXPECT_EQ(host.writes[0].when, 2 * hopLatency(5) + ns(30));
}

TEST_F(NetworkTest, AddressMapChunksClamp)
{
    AddressMap m;
    m.chunkBytes = 4ULL << 30;
    m.modules = 3;
    EXPECT_EQ(m.moduleOf(0), 0);
    EXPECT_EQ(m.moduleOf((4ULL << 30) - 1), 0);
    EXPECT_EQ(m.moduleOf(4ULL << 30), 1);
    EXPECT_EQ(m.moduleOf(11ULL << 30), 2);
    // Beyond capacity clamps to the last module.
    EXPECT_EQ(m.moduleOf(100ULL << 30), 2);
}

TEST_F(NetworkTest, AddressMapInterleavesPages)
{
    AddressMap m;
    m.interleavePages = true;
    m.modules = 4;
    EXPECT_EQ(m.moduleOf(0), 0);
    EXPECT_EQ(m.moduleOf(4096), 1);
    EXPECT_EQ(m.moduleOf(4096 * 5), 1);
    EXPECT_EQ(m.moduleOf(4096 * 7 + 123), 3);
}

TEST_F(NetworkTest, TreeRoutingReachesAllModules)
{
    build(TopologyKind::TernaryTree, 13, 1ULL << 30);
    for (int m = 0; m < 13; ++m)
        inject(PacketType::ReadReq,
               (static_cast<std::uint64_t>(m) << 30) + 64 * m, 100 + m);
    eq.run();
    EXPECT_EQ(host.reads.size(), 13u);
}

TEST_F(NetworkTest, AvgModulesTraversedMatchesDepths)
{
    build(TopologyKind::DaisyChain, 3, 1ULL << 30);
    inject(PacketType::ReadReq, 0, 1);          // depth 1
    inject(PacketType::ReadReq, 1ULL << 30, 2); // depth 2
    inject(PacketType::ReadReq, 2ULL << 30, 3); // depth 3
    eq.run();
    EXPECT_DOUBLE_EQ(net->avgModulesTraversed(), 2.0);
    EXPECT_EQ(net->injectedPackets(), 3u);
}

TEST_F(NetworkTest, EnergyIncludesLeakageWithNoTraffic)
{
    build(TopologyKind::TernaryTree, 4);
    net->resetStats();
    eq.runUntil(us(10));
    const EnergyAttribution e = net->energyAttribution(eq.now());
    const HmcPowerParams &p = pm.params(Radix::High);
    // Four high-radix modules leak for 10 us.
    EXPECT_NEAR(e.serdesLeakJ, 4 * p.idleLogicW * 1e-5, 1e-12);
    EXPECT_NEAR(e.dramLeakJ, 4 * p.idleDramW * 1e-5, 1e-12);
    // All eight connectivity links idle at full power.
    EXPECT_NEAR(e.idleIoJ, 8 * pm.linkFullPowerW() * 1e-5, 1e-10);
    EXPECT_NEAR(e.activeIoJ, 0.0, 1e-12);
    EXPECT_NEAR(e.dramDynJ, 0.0, 1e-15);
}

TEST_F(NetworkTest, EnergyCountsDynamicPerAccess)
{
    build(TopologyKind::DaisyChain, 1);
    net->resetStats();
    for (int i = 0; i < 10; ++i)
        inject(PacketType::ReadReq, 64 * i, i);
    eq.run();
    const EnergyAttribution e = net->energyAttribution(eq.now());
    const HmcPowerParams &p = pm.params(Radix::Low);
    EXPECT_NEAR(e.dramDynJ, 10 * p.dramAccessJ, 1e-12);
    // Router crossings: 10 requests (1 flit) + 10 responses counted
    // twice at the home module (vault -> link) = 10*1 + 10*5 flits.
    EXPECT_NEAR(e.routerJ, (10 + 50) * p.flitHopJ, 1e-12);
}

TEST_F(NetworkTest, ResetStatsClearsCounters)
{
    build(TopologyKind::DaisyChain, 2, 1ULL << 30);
    inject(PacketType::ReadReq, 0, 1);
    eq.run();
    net->resetStats();
    EXPECT_EQ(net->injectedPackets(), 0u);
    const EnergyAttribution e = net->energyAttribution(eq.now());
    EXPECT_NEAR(e.totalJ(), 0.0, 1e-12);
}

TEST_F(NetworkTest, ChannelLinksAreModuleZeros)
{
    build(TopologyKind::Star, 5);
    EXPECT_EQ(net->requestLink(0).module(), 0);
    EXPECT_EQ(net->requestLink(0).type(), LinkType::Request);
    EXPECT_EQ(net->responseLink(0).type(), LinkType::Response);
    EXPECT_EQ(net->allLinks().size(), 10u);
}

} // namespace
} // namespace memnet
