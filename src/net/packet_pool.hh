/**
 * @file
 * Freelist pool for Packet objects.
 *
 * Packets used to be heap-allocated at issue and freed at retirement —
 * two malloc round-trips per access on the hottest path in the
 * simulator. The pool allocates Packets in chunks and recycles retired
 * ones, so steady state runs allocation-free: the live set quickly
 * saturates at the maximum number of in-flight packets (bounded by the
 * per-core outstanding limits) and every later acquire() reuses a
 * retired slot.
 *
 * The pool is intentionally not thread-safe: each simulation run owns
 * its packet sources (Processor / TracePlayer), which own their pool,
 * so parallel sweep runs never share one.
 */

#ifndef MEMNET_NET_PACKET_POOL_HH
#define MEMNET_NET_PACKET_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hh"

namespace memnet
{

class PacketPool
{
  public:
    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** Fetch a default-initialized packet (chunk-allocating if empty). */
    Packet *
    acquire()
    {
        if (free_.empty())
            grow();
        Packet *p = free_.back();
        free_.pop_back();
        *p = Packet{};
        p->origin = this;
        ++acquired_;
        return p;
    }

    /** Return a retired packet for reuse. */
    void
    release(Packet *p)
    {
        free_.push_back(p);
        ++released_;
    }

    /** Total acquire() calls — packets issued through the pool. */
    std::uint64_t acquired() const { return acquired_; }

    /** Total release() calls — packets retired back into the pool. */
    std::uint64_t released() const { return released_; }

    /** Packets currently out of the pool (issued and not yet retired). */
    std::uint64_t inFlight() const { return acquired_ - released_; }

    /** Packets ever heap-allocated (chunked; the pool's high-water). */
    std::uint64_t
    heapAllocated() const
    {
        return static_cast<std::uint64_t>(chunks_.size()) * kChunk;
    }

    /** Heap allocations the freelist avoided versus new-per-packet. */
    std::uint64_t
    allocationsAvoided() const
    {
        return acquired_ - std::min(acquired_, heapAllocated());
    }

  private:
    static constexpr std::size_t kChunk = 256;

    void
    grow()
    {
        chunks_.push_back(std::make_unique<Packet[]>(kChunk));
        Packet *base = chunks_.back().get();
        free_.reserve(free_.size() + kChunk);
        for (std::size_t i = kChunk; i > 0; --i)
            free_.push_back(base + (i - 1));
    }

    std::vector<std::unique_ptr<Packet[]>> chunks_;
    std::vector<Packet *> free_;
    std::uint64_t acquired_ = 0;
    std::uint64_t released_ = 0;
};

/**
 * Destroy a packet regardless of where it came from: pool packets go
 * back to their issuing pool, plain `new` packets are deleted. The only
 * safe way for a sink to consume a packet it does not return.
 */
inline void
disposePacket(Packet *p)
{
    if (p->origin) {
        p->origin->release(p);
    } else {
        delete p;
    }
}

} // namespace memnet

#endif // MEMNET_NET_PACKET_POOL_HH
