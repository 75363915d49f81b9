/**
 * @file
 * Ablation switches for the network-aware manager (Section VI). All on
 * by default, which is the paper's scheme; the ablation benches turn
 * them off one at a time. SystemConfig::aware holds one and hands it
 * to AwareManager unchanged.
 */

#ifndef MEMNET_MGMT_AWARE_OPTIONS_HH
#define MEMNET_MGMT_AWARE_OPTIONS_HH

namespace memnet
{

struct AwareOptions
{
    /** ISP scatter/gather iterations (the paper caps at three). */
    int ispIterations = 3;
    /** Apply the QD/QF congestion discount (Section VI-C). */
    bool congestionDiscount = true;
    /** Coordinate response-link wakeups along the path (Section VI-B). */
    bool wakeCoordination = true;
    /** Back mid-epoch violations with the leftover-AMS grant pool. */
    bool grantPool = true;

    bool operator==(const AwareOptions &) const = default;
};

} // namespace memnet

#endif // MEMNET_MGMT_AWARE_OPTIONS_HH
