/**
 * @file
 * Multi-channel memory networks — the inter-channel study the paper
 * explicitly leaves to future work (Section III-C).
 *
 * A processor drives several physically independent memory networks
 * ("channels"). Addresses are distributed across channels either by
 * line interleaving (the conventional balanced scheme the paper cites
 * [13]) or by contiguous partitioning (which concentrates a workload's
 * hot head in few channels and lets entire cold channels idle — the
 * channel-scale analogue of the paper's consolidation argument in
 * Section VII-A).
 *
 * runMultiChannel builds its system with the same builder as Simulator
 * (memnet/system.hh) and then aggregates across channels, so
 * runMultiChannel(channels=1) runs exactly the system Simulator runs;
 * tests/test_differential.cc holds the two collectors to agreement.
 */

#ifndef MEMNET_MEMNET_MULTICHANNEL_HH
#define MEMNET_MEMNET_MULTICHANNEL_HH

#include <cstdint>
#include <vector>

#include "memnet/config.hh"

namespace memnet
{

/** How the physical address space spreads over channels. */
enum class ChannelSpread
{
    InterleaveLines, ///< line i -> channel i % C
    Partition,       ///< contiguous 1/C of the space per channel
};

const char *channelSpreadName(ChannelSpread s);

/** Configuration: a per-channel SystemConfig plus the channel count. */
struct MultiChannelConfig
{
    /** Per-channel network/policy settings (workload, topology, ...). */
    SystemConfig base;
    int channels = 4;
    ChannelSpread spread = ChannelSpread::InterleaveLines;
};

/**
 * Global-address -> (channel, channel-local address) mapping.
 *
 * Both spreads are exact bijections over [0, totalBytes): interleaving
 * keeps the sub-line offset bits (a remapped access still lands at the
 * right bytes within its 64 B line), and partitioning range-checks
 * instead of silently clamping out-of-range addresses into the last
 * channel. unmap() inverts map() — the round trip is the property the
 * multichannel tests assert.
 */
struct ChannelRemap
{
    ChannelRemap(int channels, ChannelSpread spread,
                 std::uint64_t total_bytes);

    struct Target
    {
        int channel = 0;
        std::uint64_t local = 0;
    };

    /** Remap a global address (must be < totalBytes). */
    Target map(std::uint64_t addr) const;

    /** Invert map(): reconstruct the global address. */
    std::uint64_t unmap(int channel, std::uint64_t local) const;

    /** Bytes of one contiguous partition (line-aligned, >= total/C). */
    std::uint64_t partitionBytes() const { return partBytes; }

    int channels;
    ChannelSpread spread;
    std::uint64_t totalBytes;
    std::uint64_t partBytes;
};

/** Aggregate and per-channel results. */
struct MultiChannelResult
{
    MultiChannelConfig config;
    /** Whole-system totals. */
    double totalPowerW = 0.0;
    double readsPerSec = 0.0;
    double idleIoFrac = 0.0;
    int totalModules = 0;
    /** Per-channel summaries. */
    std::vector<PowerBreakdown> channelPower;
    std::vector<double> channelUtil;
    std::vector<int> channelModules;
    /**
     * Latency observatory over all channels: the per-channel sketches
     * are exactly mergeable, so these percentiles describe the union of
     * every channel's completed reads.
     */
    LatencyBreakdown latency;
    /**
     * Energy observatory over all channels: the attribution ledger adds
     * field-wise in channel order and the congestion sketches merge
     * exactly, so this equals a whole-system ledger bit-identically.
     */
    EnergySummary energy;
};

/** Build, run and measure a multi-channel system. */
MultiChannelResult runMultiChannel(const MultiChannelConfig &cfg);

} // namespace memnet

#endif // MEMNET_MEMNET_MULTICHANNEL_HH
