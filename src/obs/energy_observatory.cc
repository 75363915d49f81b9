/**
 * @file
 * Obs-side surface of the energy observatory: the Chrome-trace
 * counter-args renderer. The attribution ledger itself is header-only
 * (energy_observatory.hh) so the net layer can fill it without linking
 * this library.
 */

#include "obs/energy_observatory.hh"

#include <cstdio>
#include <sstream>
#include <string>

namespace memnet
{
namespace obs
{

std::string
renderEnergyCounterArgs(const EnergyAttribution &cur,
                        const EnergyAttribution &prev,
                        double inv_seconds)
{
    char num[40];
    std::ostringstream os;
    os << '{';
    bool first = true;
    auto field = [&](const char *k, double cur_j, double prev_j) {
        std::snprintf(num, sizeof num, "%.9f",
                      (cur_j - prev_j) * inv_seconds);
        os << (first ? "\"" : ",\"") << k << "\":" << num;
        first = false;
    };
    field("tx", cur.txJ, prev.txJ);
    field("idle_floor", cur.idleFloorJ(), prev.idleFloorJ());
    field("sleep", cur.sleepJ, prev.sleepJ);
    field("wake", cur.wakeJ, prev.wakeJ);
    field("retrain", cur.retrainJ, prev.retrainJ);
    field("serdes_leak", cur.serdesLeakJ, prev.serdesLeakJ);
    field("router", cur.routerJ, prev.routerJ);
    field("dram_leak", cur.dramLeakJ, prev.dramLeakJ);
    field("dram_dyn", cur.dramDynJ, prev.dramDynJ);
    os << '}';
    return os.str();
}

} // namespace obs
} // namespace memnet
