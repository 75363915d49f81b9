/**
 * @file
 * Boundary components between the processor and a channel network.
 *
 * HostPort models the processor-side host-interface SERDES: a FIFO
 * that delays every injected request by LinkTiming::kHostIfPs before
 * it reaches the channel root. It is part of the simulated machine.
 */

#ifndef MEMNET_NET_BOUNDARY_HH
#define MEMNET_NET_BOUNDARY_HH

#include <utility>

#include "linkpm/modes.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"

namespace memnet
{

/**
 * The host-interface FIFO between the cores and one channel's root
 * link. Preserves injection order (the delay is constant) and
 * attributes the crossing time to the packet's serialization
 * component, so the latency observatory's decomposition identity
 * (dram = total - accounted) is unchanged.
 */
class HostPort : public TrafficTarget
{
  public:
    HostPort(EventQueue &eq, TrafficTarget &downstream)
        : eq(eq), down(downstream)
    {
    }

    void
    inject(Packet *pkt) override
    {
        const Tick due = eq.now() + LinkTiming::kHostIfPs;
        fifo.emplace_back(pkt, due);
        if (fifo.size() == 1)
            eq.schedule(&deliverEvent, due);
    }

  private:
    void
    onDeliver()
    {
        Packet *pkt = fifo.front().first;
        fifo.pop_front();
        pkt->latSerPs += LinkTiming::kHostIfPs;
        down.inject(pkt);
        if (!fifo.empty())
            eq.schedule(&deliverEvent, fifo.front().second);
    }

    EventQueue &eq;
    TrafficTarget &down;
    Fifo<std::pair<Packet *, Tick>> fifo;
    MemberEvent<HostPort, &HostPort::onDeliver> deliverEvent{this};
};

} // namespace memnet

#endif // MEMNET_NET_BOUNDARY_HH
