/**
 * @file
 * Circuit-level I/O power control mechanism models (Section IV).
 *
 * Three mechanisms are modeled, matching the paper:
 *
 *  - VWL (variable-width links): 16/8/4/1 active lanes; power of an
 *    l-lane link is (l+1)/17 of full power (the +1 is the I/O clock);
 *    SERDES latency unchanged; 1 us to change width.
 *  - DVFS: modes delivering 100/80/50/14% bandwidth at 0/30/65/92% power
 *    reduction; SERDES latency scales inversely with the I/O frequency
 *    ratio (the 14% mode runs one 8-lane bundle at Vmin, i.e. frequency
 *    ratio 0.28); voltage scaling is staged over bundles, up to 3 us.
 *  - ROO (rapid on/off): a link turns off after an idleness threshold of
 *    32/128/512/2048 ns (2048 ns doubles as the "full power" ROO mode),
 *    draws 1% power when off, and takes 14 ns (20 ns for the sensitivity
 *    study) to wake.
 *
 * A bandwidth mechanism (None/VWL/DVFS) may be combined with ROO.
 */

#ifndef MEMNET_LINKPM_MODES_HH
#define MEMNET_LINKPM_MODES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace memnet
{

/** Which bandwidth-scaling mechanism a link supports. */
enum class BwMechanism : std::uint8_t
{
    None, ///< always full bandwidth
    Vwl,  ///< variable link width
    Dvfs, ///< voltage/frequency scaling
};

/** One steady-state operating point of a link's bandwidth mechanism. */
struct LinkMode
{
    std::string name;
    double bwFrac;    ///< fraction of full link bandwidth
    double powerFrac; ///< fraction of full link power while on
    Tick serdesPs;    ///< SERDES latency at this operating point
    int lanes;        ///< active lanes (16 for pure-DVFS full modes)
};

/** Nominal full-power link timing constants. */
struct LinkTiming
{
    /** One 16 B flit per 0.64 ns at 16 lanes x 12.5 Gbps. */
    static constexpr Tick kFullFlitPs = 640;
    /** Full-power SERDES latency. */
    static constexpr Tick kSerdesPs = 3200;
    /** Router: 4 pipeline cycles at 0.64 ns. */
    static constexpr Tick kRouterPs = 4 * 640;
    /**
     * Host-interface SERDES: the processor-side link controller's
     * serialization FIFO between the cores and the channel root
     * (net/boundary.hh). Every injected request crosses it.
     */
    static constexpr Tick kHostIfPs = 3200;
    /** Link controller buffer entries. */
    static constexpr int kBufferEntries = 128;
};

/**
 * The ordered table of modes for one mechanism; index 0 is full power and
 * indices increase toward lower power.
 */
class ModeTable
{
  public:
    /** Table for the given mechanism (None yields a single full mode). */
    static const ModeTable &forMechanism(BwMechanism m);

    const LinkMode &mode(std::size_t i) const { return modes_[i]; }
    std::size_t size() const { return modes_.size(); }

    /** Latency (per transition) to move between two modes. */
    Tick transitionPs() const { return transitionPs_; }

    BwMechanism mechanism() const { return mech_; }

  private:
    ModeTable(BwMechanism m, std::vector<LinkMode> modes, Tick trans)
        : mech_(m), modes_(std::move(modes)), transitionPs_(trans)
    {
    }

    BwMechanism mech_;
    std::vector<LinkMode> modes_;
    Tick transitionPs_;
};

/**
 * Link reliability model. HMC links protect packets with CRC and
 * retry corrupted ones from a retry buffer; at the error rates of a
 * healthy channel this is invisible, but it lets users study how
 * degraded channels inflate both latency and active-I/O energy.
 */
struct LinkErrorModel
{
    /** Probability that one transmitted flit is corrupted. */
    double flitErrorRate = 0.0;
    /** NAK turnaround before the retry begins. */
    Tick retryDelayPs = ns(10);

    bool enabled() const { return flitErrorRate > 0.0; }
};

/** ROO configuration shared by all links of a run. */
struct RooConfig
{
    bool enabled = false;
    /** Idleness thresholds; the last one is the "full power" ROO mode. */
    std::vector<Tick> thresholdsPs = {ns(32), ns(128), ns(512), ns(2048)};
    Tick wakeupPs = ns(14);
    double offPowerFrac = 0.01;

    std::size_t fullModeIndex() const { return thresholdsPs.size() - 1; }
};

} // namespace memnet

#endif // MEMNET_LINKPM_MODES_HH
