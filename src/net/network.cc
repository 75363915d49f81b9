#include "net/network.hh"

#include <cmath>

#include "sim/log.hh"

namespace memnet
{

Network::Network(EventQueue &eq, const Topology &topo,
                 const DramParams &dram_params, BwMechanism mech,
                 const RooConfig &roo, const HmcPowerModel &pm,
                 const AddressMap &amap, const LinkErrorModel &errors)
    : eq(eq),
      topo_(topo),
      dramParams(dram_params),
      pm_(pm),
      amap_(amap),
      roo_(roo),
      errors_(errors),
      port(*this)
{
    const int n = topo_.numModules();
    amap_.modules = n;

    modules_.reserve(n);
    for (int i = 0; i < n; ++i) {
        modules_.push_back(std::make_unique<Module>(
            *this, eq, i, topo_.radix(i), dramParams));
    }

    // Every unidirectional link draws the same full power: the per-end
    // power works out equal for both radix classes (peak power scales
    // with link count in the [12]-derived model).
    const double link_w = pm_.linkFullPowerW();
    const ModeTable &table = ModeTable::forMechanism(mech);

    reqLinks.reserve(n);
    respLinks.reserve(n);
    for (int i = 0; i < n; ++i) {
        // Request link of module i delivers INTO module i.
        reqLinks.push_back(std::make_unique<Link>(
            eq, i, LinkType::Request, i, &table, &roo_, link_w,
            modules_[i].get(), &errors_));
        // Response link of module i delivers to its parent (or the
        // processor port for module 0).
        PacketSink *up = (i == 0)
                             ? static_cast<PacketSink *>(&port)
                             : modules_[topo_.parent(i)].get();
        respLinks.push_back(std::make_unique<Link>(
            eq, n + i, LinkType::Response, i, &table, &roo_, link_w,
            up, &errors_));
    }
}

Network::~Network() = default;

void
Network::inject(Packet *pkt)
{
    if (audit_)
        audit_->onInject(*pkt, eq.now());
    pkt->homeModule = amap_.moduleOf(pkt->addr);
    pkt->hop = 0;
    const auto &path = topo_.path(pkt->homeModule);
    hops.sample(static_cast<double>(path.size()));
    requestLink(path[0]).enqueue(pkt);
}

Link &
Network::linkById(int id)
{
    const int n = numModules();
    memnet_assert(id >= 0 && id < 2 * n, "bad link id: ", id);
    return id < n ? *reqLinks[id] : *respLinks[id - n];
}

void
Network::injectRetrain(int link, Tick window)
{
    if (trace_)
        trace_->faultEvent("retrain", link, eq.now());
    linkById(link).beginRetrain(window);
}

void
Network::injectLaneFailure(int link, int surviving_lanes)
{
    if (trace_)
        trace_->faultEvent("lane_fail", link, eq.now());
    linkById(link).setLaneLimit(surviving_lanes);
}

void
Network::injectErrorBurst(int link, double flit_error_rate)
{
    if (trace_)
        trace_->faultEvent("error_burst", link, eq.now());
    linkById(link).setErrorRateOverride(flit_error_rate);
}

void
Network::clearErrorBurst(int link)
{
    if (trace_)
        trace_->faultEvent("error_clear", link, eq.now());
    linkById(link).setErrorRateOverride(-1.0);
}

std::vector<Link *>
Network::allLinks()
{
    std::vector<Link *> out;
    out.reserve(reqLinks.size() + respLinks.size());
    for (auto &l : reqLinks)
        out.push_back(l.get());
    for (auto &l : respLinks)
        out.push_back(l.get());
    return out;
}

void
Network::recordLatency(const Packet &pkt, Tick now)
{
    if (!isReadPacket(pkt.type))
        return;
    const Tick total = now - pkt.issued;
    const Tick accounted = pkt.latQueuePs + pkt.latWakeStallPs +
                           pkt.latRetrainStallPs + pkt.latSerPs;
    // The residual is vault service time: link hops stamp contiguous
    // [enqueue, deliver) intervals and module forwarding is same-tick,
    // so total - accounted is exactly the DRAM round trip (clamped
    // defensively; the identity is asserted in tests/test_latency.cc).
    const Tick dram = total > accounted ? total - accounted : 0;
    lat_.endToEnd.record(static_cast<std::uint64_t>(total));
    lat_.queue.record(static_cast<std::uint64_t>(pkt.latQueuePs));
    lat_.wakeStall.record(static_cast<std::uint64_t>(pkt.latWakeStallPs));
    lat_.retrainStall.record(
        static_cast<std::uint64_t>(pkt.latRetrainStallPs));
    lat_.ser.record(static_cast<std::uint64_t>(pkt.latSerPs));
    lat_.dram.record(static_cast<std::uint64_t>(dram));
}

LatencyBreakdown
Network::latencySummary() const
{
    LatencyBreakdown b = summarizeLatency(lat_);
    for (const auto &l : reqLinks) {
        b.wakeStallSeconds += l->stats().wakeStallSeconds;
        b.retrainStallSeconds += l->stats().retrainStallSeconds;
        if (l->stats().queuePeak > b.queuePeak)
            b.queuePeak = l->stats().queuePeak;
    }
    for (const auto &l : respLinks) {
        b.wakeStallSeconds += l->stats().wakeStallSeconds;
        b.retrainStallSeconds += l->stats().retrainStallSeconds;
        if (l->stats().queuePeak > b.queuePeak)
            b.queuePeak = l->stats().queuePeak;
    }
    return b;
}

void
Network::resetStats()
{
    measureStart = eq.now();
    lat_.reset();
    hops.reset();
    for (auto &l : reqLinks)
        l->resetStats();
    for (auto &l : respLinks)
        l->resetStats();
    for (auto &m : modules_)
        m->resetStats();
}

EnergyAttribution
Network::energyAttribution(Tick now)
{
    EnergyAttribution a;
    for (auto *l : allLinks()) {
        l->finishAccounting(now);
        addLink(a, l->stats());
    }
    for (int m = 0; m < numModules(); ++m)
        a.addModule(moduleEnergy(m, now));
    return a;
}

obs::EnergySketches
Network::collectEnergySketches(Tick now)
{
    obs::EnergySketches out;
    const double secs = toSeconds(now - measureStart);
    for (auto *l : allLinks()) {
        const double u = l->utilization(secs);
        out.utilization.record(static_cast<std::uint64_t>(
            std::llround((u > 0.0 ? u : 0.0) * 1e6)));
        out.occupancy.merge(l->occupancy());
    }
    return out;
}

ModuleEnergyTerms
Network::moduleEnergy(int m, Tick now) const
{
    const Module &mod = *modules_[m];
    return moduleEnergyTerms(pm_.params(mod.radix()),
                             toSeconds(now - measureStart),
                             mod.flitsRouted(), mod.dramAccesses());
}

void
Network::setObservers(LinkObserver *lo, ModuleObserver *mo)
{
    for (auto *l : allLinks())
        l->setObserver(lo);
    for (auto &m : modules_)
        m->setObserver(mo);
}

void
Network::setTraceSink(PowerTraceSink *t)
{
    trace_ = t;
    for (auto *l : allLinks())
        l->setTraceSink(t);
}

} // namespace memnet
