/**
 * @file
 * Boundary components between the processor and a channel network.
 *
 * HostPort models the processor-side host-interface SERDES: a FIFO
 * that delays every injected request by LinkTiming::kHostIfPs before
 * it reaches the channel root. It is part of the simulated machine —
 * serial runs go through it too — and it is what makes the
 * processor -> channel edge partitionable: in the partitioned kernel
 * (sim/partition.hh) the constant delay is the processor partition's
 * conservative lookahead, and the channel-side mirror of this FIFO
 * replays the same (push, due) sequence from handed-off messages so
 * partitioned runs stay bit-identical to the serial kernel.
 */

#ifndef MEMNET_NET_BOUNDARY_HH
#define MEMNET_NET_BOUNDARY_HH

#include <memory>
#include <utility>
#include <vector>

#include "linkpm/modes.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/partition.hh"

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

// ---------------------------------------------------------------------
// Partitioned-kernel boundary components (sim/partition.hh). One
// PartitionedChannel bundles everything one channel network needs to
// run on its own partition while staying bit-identical (in Barrier
// mode) to a serial run through HostPort + direct delivery:
//
//   processor -> channel   HostOutbox (p0): exact replica of the
//                          serial HostPort — same FIFO state machine,
//                          same pop event with the same natural keys —
//                          except the packet crosses as a mailbox
//                          message carrying the serial delivery key.
//                          RemoteInjectPipe (channel): replays the
//                          injection with that key.
//   channel -> processor   the root response link's LinkBoundary
//                          (net/link.hh) hands reads off at
//                          serialization end; IngressPipe (p0) replays
//                          the delivery tail (Network::completeRead)
//                          with the serial delivery key.
//   write retirement       vault forecasts promise a posted write's
//                          completion tick at service start;
//                          PromiseBuffer (p0) retires it with the
//                          burst event's exact key.
// ---------------------------------------------------------------------

/** Message kinds routed through the mailbox matrix. */
enum BoundaryKind : std::uint8_t
{
    kBoundaryInject = 0,   ///< request entering the channel
    kBoundaryResponse = 1, ///< read response reaching the processor
    kBoundaryRetire = 2,   ///< posted-write retirement promise
};

/**
 * Processor-side host-interface FIFO of a partitioned channel. The
 * serial HostPort's twin: inject() computes the same constant-delay
 * due tick and the same arm key its delivery event would have had
 * (arm-from-inject when the FIFO was empty, re-arm-from-the-previous-
 * delivery otherwise), sends the packet to the channel partition, and
 * keeps a local mirror FIFO popped by a real event so the empty/busy
 * state — and therefore every subsequent key — evolves exactly as the
 * serial FIFO's does, even under same-tick inject/deliver races.
 */
class HostOutbox : public TrafficTarget
{
  public:
    HostOutbox(EventQueue &eq, MailboxMatrix &mail, int channelRank,
               int channel)
        : eq(eq), mail(mail), rank(channelRank), channel(channel)
    {
    }

    void
    inject(Packet *pkt) override
    {
        const Tick due = eq.now() + LinkTiming::kHostIfPs;
        EventKey key;
        key.when = due;
        if (mirror.empty()) {
            key.sched = eq.now();
            key.parent = eq.currentParentSched();
            eq.schedule(&popEvent, due);
        } else {
            key.sched = mirror.back().due;
            key.parent = mirror.back().armSched;
        }
        mirror.push_back({due, key.sched});
        // The serial port attributes the crossing at delivery; nothing
        // touches the packet in between, so pre-stamp it here.
        pkt->latSerPs += LinkTiming::kHostIfPs;
        BoundaryMessage msg;
        msg.key = key;
        msg.payload = pkt;
        msg.channel = channel;
        msg.kind = kBoundaryInject;
        mail.send(0, rank, msg);
    }

  private:
    struct Entry
    {
        Tick due;
        Tick armSched;
    };

    void
    onPop()
    {
        mirror.pop_front();
        if (!mirror.empty())
            eq.schedule(&popEvent, mirror.front().due);
    }

    EventQueue &eq;
    MailboxMatrix &mail;
    const int rank;
    const int channel;
    Fifo<Entry> mirror;
    MemberEvent<HostOutbox, &HostOutbox::onPop> popEvent{this};
};

/**
 * Channel-side twin of the HostOutbox: applies handed-off requests by
 * replaying the serial HostPort delivery — network injection at the
 * due tick, scheduled with the sender-computed serial key on both the
 * initial arm and every re-arm.
 */
class RemoteInjectPipe
{
  public:
    explicit RemoteInjectPipe(Network &net)
        : eq(net.eventQueue()), net(net)
    {
    }

    /** Apply one kBoundaryInject message (called between windows). */
    void
    push(Packet *pkt, const EventKey &key)
    {
        fifo.push_back({pkt, key});
        if (fifo.size() == 1)
            eq.scheduleWithKey(&deliverEvent, key);
    }

  private:
    struct Entry
    {
        Packet *pkt;
        EventKey key;
    };

    void
    onDeliver()
    {
        Packet *pkt = fifo.front().pkt;
        fifo.pop_front();
        if (!fifo.empty())
            eq.scheduleWithKey(&deliverEvent, fifo.front().key);
        net.inject(pkt);
    }

    EventQueue &eq;
    Network &net;
    Fifo<Entry> fifo;
    MemberEvent<RemoteInjectPipe, &RemoteInjectPipe::onDeliver>
        deliverEvent{this};
};

/**
 * Processor-side twin of the root response link's SERDES/router pipe:
 * replays each handed-off read's delivery tail
 * (Network::completeRead — latency decomposition, packet-life trace,
 * host notification) at the due tick with the serial delivery key.
 */
class IngressPipe
{
  public:
    IngressPipe(EventQueue &eq, Network &net) : eq(eq), net(net) {}

    /** Apply one kBoundaryResponse message. */
    void
    push(Packet *pkt, const EventKey &key)
    {
        fifo.push_back({pkt, key});
        if (fifo.size() == 1)
            eq.scheduleWithKey(&deliverEvent, key);
    }

  private:
    struct Entry
    {
        Packet *pkt;
        EventKey key;
    };

    void
    onDeliver()
    {
        Packet *pkt = fifo.front().pkt;
        fifo.pop_front();
        if (!fifo.empty())
            eq.scheduleWithKey(&deliverEvent, fifo.front().key);
        net.completeRead(pkt, eq.now());
    }

    EventQueue &eq;
    Network &net;
    Fifo<Entry> fifo;
    MemberEvent<IngressPipe, &IngressPipe::onDeliver> deliverEvent{
        this};
};

/**
 * Processor-side landing zone for write promises: each retires one
 * posted write at its forecast completion tick with the burst event's
 * exact key. Events are pooled — a write-heavy phase recycles them
 * instead of allocating per promise.
 */
class PromiseBuffer
{
  public:
    PromiseBuffer(EventQueue &eq, Network &net) : eq(eq), net(net) {}

    /** Apply one kBoundaryRetire message. */
    void
    push(Packet *pkt, const EventKey &key)
    {
        RetireEvent *ev;
        if (free_.empty()) {
            storage_.push_back(std::make_unique<RetireEvent>(this));
            ev = storage_.back().get();
        } else {
            ev = free_.back();
            free_.pop_back();
        }
        ev->pkt = pkt;
        eq.scheduleWithKey(ev, key);
    }

  private:
    struct RetireEvent : Event
    {
        explicit RetireEvent(PromiseBuffer *o) : owner(o) {}

        void
        fire() override
        {
            Packet *p = pkt;
            pkt = nullptr;
            owner->free_.push_back(this);
            owner->net.host()->writeRetired(p, owner->eq.now());
        }

        PromiseBuffer *owner;
        Packet *pkt = nullptr;
    };

    EventQueue &eq;
    Network &net;
    std::vector<std::unique_ptr<RetireEvent>> storage_;
    std::vector<RetireEvent *> free_;
};

/**
 * All boundary plumbing for one channel network living on partition
 * @p channelRank, with the processor on partition 0. Construction
 * wires the network for handoff mode (root response link boundary,
 * write handoff, vault forecasts); the simulator routes the
 * processor's injections through outbox() and drained messages
 * through applyAtHost()/applyAtChannel().
 *
 * Each side's messages are applied on that side's own lane, so the
 * two sides share no mutable member: applyAtHost() touches only
 * ingress_ and promises_ (processor queue), applyAtChannel() only
 * remoteInject_ (channel queue).
 */
class PartitionedChannel : public LinkBoundary
{
  public:
    PartitionedChannel(EventQueue &hostEq, Network &net, int channel,
                       int channelRank, MailboxMatrix &mail)
        : net(net),
          mail(mail),
          channel_(channel),
          rank(channelRank),
          outbox_(hostEq, mail, channelRank, channel),
          ingress_(hostEq, net),
          promises_(hostEq, net),
          remoteInject_(net)
    {
        net.responseLink(0).setBoundary(this);
        net.setWriteHandoff(true);
        EventQueue &ceq = net.eventQueue();
        for (int m = 0; m < net.numModules(); ++m) {
            net.module(m).setVaultForecast(
                [this, &ceq](std::uint64_t tag, bool is_read,
                             Tick done) {
                    if (is_read)
                        return;
                    BoundaryMessage msg;
                    msg.key = EventKey{done, ceq.now(),
                                       ceq.currentParentSched(), 0};
                    msg.payload = reinterpret_cast<void *>(tag);
                    msg.channel = channel_;
                    msg.kind = kBoundaryRetire;
                    this->mail.send(rank, 0, msg);
                });
        }
    }

    /** Processor-side injection target for this channel. */
    TrafficTarget &outbox() { return outbox_; }

    // -- LinkBoundary (root response link, channel side) -------------------

    void
    handoff(Packet *pkt, const EventKey &key) override
    {
        BoundaryMessage msg;
        msg.key = key;
        msg.payload = pkt;
        msg.channel = channel_;
        msg.kind = kBoundaryResponse;
        mail.send(rank, 0, msg);
    }

    // -- Message application (PartitionRunner's ApplyFn) -------------------

    /** Apply a message addressed to the processor partition. */
    void
    applyAtHost(BoundaryMessage &msg)
    {
        Packet *pkt = static_cast<Packet *>(msg.payload);
        if (msg.kind == kBoundaryResponse)
            ingress_.push(pkt, msg.key);
        else
            promises_.push(pkt, msg.key);
    }

    /** Apply a message addressed to this channel's partition. */
    void
    applyAtChannel(BoundaryMessage &msg)
    {
        remoteInject_.push(static_cast<Packet *>(msg.payload),
                           msg.key);
    }

    /**
     * Conservative lookahead of the processor -> channel edge: every
     * injected request crosses the host-interface SERDES.
     */
    static constexpr Tick kHostLookaheadPs = LinkTiming::kHostIfPs;

    /**
     * Conservative lookahead of the channel -> processor edge:
     * response handoffs happen a full SERDES + router pipeline before
     * delivery (serdes() never drops below the full-power latency),
     * and write promises a whole DRAM burst ahead — longer still.
     */
    static constexpr Tick kChannelLookaheadPs =
        LinkTiming::kSerdesPs + LinkTiming::kRouterPs;

  private:
    Network &net;
    MailboxMatrix &mail;
    const int channel_;
    const int rank;
    HostOutbox outbox_;
    IngressPipe ingress_;
    PromiseBuffer promises_;
    RemoteInjectPipe remoteInject_;
};

} // namespace memnet

#endif // MEMNET_NET_BOUNDARY_HH
