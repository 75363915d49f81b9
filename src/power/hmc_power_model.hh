/**
 * @file
 * Analytical HMC power model.
 *
 * Reproduces the model the paper takes from Pugsley et al. [12]:
 *  - a high-radix HMC (four full links) with 12.5 Gbps lanes peaks at
 *    13.4 W, split 43% DRAM dies / 22% logic / 35% I/O links;
 *  - idle DRAM draws 10% of DRAM peak, idle logic 25% of logic peak;
 *  - idle I/O power equals active I/O power (links keep toggling to stay
 *    synchronized);
 *  - a low-radix HMC (two full links) peaks at half of 13.4 W with the
 *    same relative breakdown (peak power assumed proportional to peak
 *    bandwidth).
 *
 * Derived quantities used by the simulator:
 *  - per-unidirectional-link-END power: a high-radix HMC hosts 4 TX and
 *    4 RX link ends, so each end draws 35% * 13.4 / 8 W. A connected
 *    unidirectional link costs two ends (TX on one module, RX on the
 *    other); unconnected ports are disabled and free.
 *  - DRAM dynamic energy per 64 B access, calibrated so that accesses at
 *    the module's peak internal bandwidth reproduce DRAM peak power.
 *  - logic dynamic energy per flit-hop, calibrated so that routing at
 *    peak link rate on all links reproduces logic peak power.
 */

#ifndef MEMNET_POWER_HMC_POWER_MODEL_HH
#define MEMNET_POWER_HMC_POWER_MODEL_HH

#include <cstdint>

namespace memnet
{

/** Module radix classes from the HMC specification. */
enum class Radix : std::uint8_t
{
    Low,  ///< two full links (four unidirectional link ends)
    High, ///< four full links (eight unidirectional link ends)
};

/**
 * How the [12] per-module I/O budget maps onto network links. The
 * paper is ambiguous about whether 35% * 13.4 W / 8 covers one *end*
 * of a unidirectional link (so a connected link costs two shares, one
 * per module) or the whole link. PerEnd is our default — it matches
 * the paper's idle-I/O *fractions* best; PerLink brackets the absolute
 * watts from below (see EXPERIMENTS.md).
 */
enum class IoAttribution : std::uint8_t
{
    PerEnd,  ///< a connected unidirectional link costs two shares
    PerLink, ///< a connected unidirectional link costs one share
};

/** Static power parameters for one HMC radix class. */
struct HmcPowerParams
{
    double peakTotalW;   ///< total module peak power
    double peakDramW;    ///< DRAM dies share of peak
    double peakLogicW;   ///< logic-die (non-I/O) share of peak
    double peakIoW;      ///< I/O links share of peak
    double idleDramW;    ///< DRAM leakage (always on)
    double idleLogicW;   ///< logic leakage (always on)
    double linkEndW;     ///< one unidirectional link end at full power
    double dramAccessJ;  ///< dynamic energy per 64 B DRAM array access
    double flitHopJ;     ///< dynamic logic energy per routed flit
};

/**
 * Energy drawn by one module over a measurement window, split by cause
 * (Network::moduleEnergy; the run's ledger folds one per module).
 */
struct ModuleEnergyTerms
{
    double logicLeakJ = 0.0; ///< SerDes + logic-die leakage (always on)
    double dramLeakJ = 0.0;  ///< DRAM die leakage (always on)
    double logicDynJ = 0.0;  ///< router/logic dynamic energy per flit hop
    double dramDynJ = 0.0;   ///< DRAM array dynamic energy per access
};

inline ModuleEnergyTerms
moduleEnergyTerms(const HmcPowerParams &p, double seconds,
                  std::uint64_t flits_routed, std::uint64_t dram_accesses)
{
    ModuleEnergyTerms t;
    t.logicLeakJ = p.idleLogicW * seconds;
    t.dramLeakJ = p.idleDramW * seconds;
    t.logicDynJ = static_cast<double>(flits_routed) * p.flitHopJ;
    t.dramDynJ = static_cast<double>(dram_accesses) * p.dramAccessJ;
    return t;
}

/**
 * The full power model; immutable after construction. All "fraction"
 * constants live here so tests can check internal consistency.
 */
class HmcPowerModel
{
  public:
    // Model constants from the paper / [12].
    static constexpr double kHighRadixPeakW = 13.4;
    static constexpr double kDramShare = 0.43;
    static constexpr double kLogicShare = 0.22;
    static constexpr double kIoShare = 0.35;
    static constexpr double kDramIdleFrac = 0.10;
    static constexpr double kLogicIdleFrac = 0.25;
    /** Unidirectional link ends hosted by a high-radix module. */
    static constexpr int kHighRadixLinkEnds = 8;
    static constexpr int kLowRadixLinkEnds = 4;
    /** ROO off-state power as a fraction of on power. */
    static constexpr double kRooOffFrac = 0.01;

    /** Peak internal DRAM bandwidth: 32 vaults * 32 bits * 2 Gbps. */
    static constexpr double kDramPeakBytesPerSec = 32.0 * 4.0 * 2.0e9;
    /** Bytes per DRAM array access (one cache line). */
    static constexpr double kBytesPerAccess = 64.0;
    /** Peak flit rate per link end: one 16 B flit per 0.64 ns. */
    static constexpr double kPeakFlitsPerSecPerEnd = 1.0 / 0.64e-9;

    explicit HmcPowerModel(IoAttribution attr = IoAttribution::PerEnd);

    /** Parameters for a module of the given radix. */
    const HmcPowerParams &params(Radix r) const;

    /** Power of one connected unidirectional link at full power. */
    double
    linkFullPowerW() const
    {
        return (attr_ == IoAttribution::PerEnd ? 2.0 : 1.0) *
               high.linkEndW;
    }

    IoAttribution attribution() const { return attr_; }

  private:
    IoAttribution attr_;
    HmcPowerParams high;
    HmcPowerParams low;
};

} // namespace memnet

#endif // MEMNET_POWER_HMC_POWER_MODEL_HH
