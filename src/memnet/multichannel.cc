#include "memnet/multichannel.hh"

#include "memnet/system.hh"
#include "obs/prof.hh"
#include "sim/log.hh"

namespace memnet
{

const char *
channelSpreadName(ChannelSpread s)
{
    return s == ChannelSpread::InterleaveLines ? "interleave"
                                               : "partition";
}

ChannelRemap::ChannelRemap(int channels, ChannelSpread spread,
                           std::uint64_t total_bytes)
    : channels(channels), spread(spread), totalBytes(total_bytes)
{
    memnet_assert(channels >= 1, "need at least one channel");
    partBytes = (total_bytes + channels - 1) / channels;
    // Keep partitions line-aligned. partBytes * channels >= totalBytes
    // holds before and after rounding up, so every in-range address
    // lands in a valid channel without clamping.
    partBytes = (partBytes + 63) & ~std::uint64_t{63};
}

ChannelRemap::Target
ChannelRemap::map(std::uint64_t addr) const
{
    memnet_assert(addr < totalBytes, "address ", addr,
                  " outside the ", totalBytes, "-byte footprint");
    Target t;
    if (spread == ChannelSpread::InterleaveLines) {
        const std::uint64_t line = addr / 64;
        t.channel = static_cast<int>(line % channels);
        t.local = (line / channels) * 64 + addr % 64;
    } else {
        t.channel = static_cast<int>(addr / partBytes);
        t.local = addr - static_cast<std::uint64_t>(t.channel) *
                             partBytes;
    }
    return t;
}

std::uint64_t
ChannelRemap::unmap(int channel, std::uint64_t local) const
{
    memnet_assert(channel >= 0 && channel < channels,
                  "channel ", channel, " out of range");
    if (spread == ChannelSpread::InterleaveLines) {
        const std::uint64_t line =
            (local / 64) * channels + channel;
        return line * 64 + local % 64;
    }
    return static_cast<std::uint64_t>(channel) * partBytes + local;
}

MultiChannelResult
runMultiChannel(const MultiChannelConfig &mcfg)
{
    // The same phases Simulator::run opens, so profiled stacks root at
    // sim/run whichever entry point ran.
    MEMNET_PROF_SCOPE("sim/run");
    prof::Scope build{"sim/build"};
    System sys(mcfg.base, mcfg.channels, mcfg.spread);
    build.close();
    sys.run();
    const Tick end = mcfg.base.warmup + mcfg.base.measure;

    MEMNET_PROF_SCOPE("sim/collect");
    MultiChannelResult r;
    r.config = mcfg;
    const double secs = toSeconds(mcfg.base.measure);
    double idle = 0.0;
    // Exact cross-channel merge: the ledger adds field-wise in channel
    // order, the congestion sketches merge bucket-wise — both lossless,
    // so the multi-channel summary is bit-identical to a whole-system
    // ledger.
    EnergyAttribution ledger;
    obs::EnergySketches sk;
    for (auto &n : sys.nets) {
        const EnergyAttribution a = n->energyAttribution(end);
        ledger += a;
        sk.merge(n->collectEnergySketches(end));
        const PowerBreakdown p = PowerBreakdown::fromEnergy(a, secs);
        r.channelPower.push_back(p);
        r.totalPowerW += p.totalW();
        idle += p.idleIoW;
        r.channelModules.push_back(n->numModules());
        r.totalModules += n->numModules();
        const double util =
            0.5 * (n->requestLink(0).utilization(secs) +
                   n->responseLink(0).utilization(secs));
        r.channelUtil.push_back(util);
    }
    r.idleIoFrac = r.totalPowerW > 0 ? idle / r.totalPowerW : 0.0;
    r.readsPerSec =
        static_cast<double>(sys.proc->completedReads()) / secs;

    // Exact cross-channel merge of the component sketches, plus the
    // stall-attribution totals summed over every channel's links.
    obs::LatencySketches merged;
    for (auto &n : sys.nets)
        merged.merge(n->latencySketches());
    r.latency = summarizeLatency(merged);
    for (auto &n : sys.nets) {
        const LatencyBreakdown b = n->latencySummary();
        r.latency.wakeStallSeconds += b.wakeStallSeconds;
        r.latency.retrainStallSeconds += b.retrainStallSeconds;
        if (b.queuePeak > r.latency.queuePeak)
            r.latency.queuePeak = b.queuePeak;
    }
    r.energy = summarizeEnergy(ledger, sk);
    return r;
}

} // namespace memnet
