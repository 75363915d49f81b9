/**
 * @file
 * Energy/power bookkeeping result types.
 *
 * The six components mirror Figure 5 of the paper: idle I/O, active I/O,
 * logic leakage, logic dynamic, DRAM leakage, DRAM dynamic.
 */

#ifndef MEMNET_POWER_POWER_BREAKDOWN_HH
#define MEMNET_POWER_POWER_BREAKDOWN_HH

#include <array>
#include <cstddef>

#include "power/hmc_power_model.hh"

namespace memnet
{

/**
 * The attribution ledger, the run's one energy total: every joule
 * filed under exactly one cause, alongside the coarse idle/active
 * anchors that Figure 5 reports. Field-wise addition is the exact
 * merge. Network::energyAttribution fills it (links via addLink in
 * net/link.hh, modules via addModule).
 */
struct EnergyAttribution
{
    // -- Link I/O causes (sum == idleIoJ + activeIoJ exactly) ----------
    /** Serialization: lanes driving payload flits. */
    double txJ = 0.0;
    /** Retrain windows: training sequences at on-state power. */
    double retrainJ = 0.0;
    /** Static floor per bandwidth-mode index (on, idle, not waking). */
    std::array<double, 8> idleModeJ{};
    /** ROO off-state residual. */
    double sleepJ = 0.0;
    /** Wake transitions (Off -> On sequences). */
    double wakeJ = 0.0;

    // -- Module causes (Figure 5's logic and DRAM terms) ---------------
    /** SerDes + logic-die leakage. */
    double serdesLeakJ = 0.0;
    /** Router/logic dynamic energy (per routed flit hop). */
    double routerJ = 0.0;
    /** DRAM die leakage. */
    double dramLeakJ = 0.0;
    /** DRAM activate/IO dynamic energy (per array access). */
    double dramDynJ = 0.0;

    // -- Coarse anchors ------------------------------------------------
    // Accumulated per link from LinkStats::idleIoJ()/activeIoJ(), not
    // from the cause buckets above, so Figure 5's I/O split keeps the
    // link ledger's own rounding.
    double idleIoJ = 0.0;
    double activeIoJ = 0.0;

    /** Fold one module's window terms in (module-index order). */
    void
    addModule(const ModuleEnergyTerms &t)
    {
        serdesLeakJ += t.logicLeakJ;
        routerJ += t.logicDynJ;
        dramLeakJ += t.dramLeakJ;
        dramDynJ += t.dramDynJ;
    }

    /** Idle-floor causes summed (canonical order, matches idleIoJ()). */
    double
    idleFloorJ() const
    {
        double floor = 0.0;
        for (double j : idleModeJ)
            floor += j;
        return floor;
    }

    /** Link I/O energy by cause. */
    double
    linkIoJ() const
    {
        return txJ + retrainJ + ((idleFloorJ() + sleepJ) + wakeJ);
    }

    /** Module energy by cause. */
    double
    moduleJ() const
    {
        return serdesLeakJ + routerJ + dramLeakJ + dramDynJ;
    }

    double totalJ() const { return linkIoJ() + moduleJ(); }

    /** Figure 5's six anchors summed in PowerBreakdown::totalW() order. */
    double
    anchorsJ() const
    {
        return idleIoJ + activeIoJ + serdesLeakJ + routerJ + dramLeakJ +
               dramDynJ;
    }

    /** Exact field-wise merge (multichannel: apply in channel order). */
    EnergyAttribution &
    operator+=(const EnergyAttribution &o)
    {
        txJ += o.txJ;
        retrainJ += o.retrainJ;
        for (std::size_t i = 0; i < idleModeJ.size(); ++i)
            idleModeJ[i] += o.idleModeJ[i];
        sleepJ += o.sleepJ;
        wakeJ += o.wakeJ;
        serdesLeakJ += o.serdesLeakJ;
        routerJ += o.routerJ;
        dramLeakJ += o.dramLeakJ;
        dramDynJ += o.dramDynJ;
        idleIoJ += o.idleIoJ;
        activeIoJ += o.activeIoJ;
        return *this;
    }
};

/** Average power in watts over a measurement window. */
struct PowerBreakdown
{
    double idleIoW = 0.0;
    double activeIoW = 0.0;
    double logicLeakW = 0.0;
    double logicDynW = 0.0;
    double dramLeakW = 0.0;
    double dramDynW = 0.0;

    double
    totalW() const
    {
        return idleIoW + activeIoW + logicLeakW + logicDynW + dramLeakW +
               dramDynW;
    }

    double ioW() const { return idleIoW + activeIoW; }

    /** Scale (e.g. divide by module count for per-HMC figures). */
    PowerBreakdown
    scaled(double f) const
    {
        return PowerBreakdown{idleIoW * f,   activeIoW * f, logicLeakW * f,
                              logicDynW * f, dramLeakW * f, dramDynW * f};
    }

    /** Convert the ledger's anchors over a window into average power. */
    static PowerBreakdown
    fromEnergy(const EnergyAttribution &e, double seconds)
    {
        PowerBreakdown p;
        if (seconds <= 0.0)
            return p;
        p.idleIoW = e.idleIoJ / seconds;
        p.activeIoW = e.activeIoJ / seconds;
        p.logicLeakW = e.serdesLeakJ / seconds;
        p.logicDynW = e.routerJ / seconds;
        p.dramLeakW = e.dramLeakJ / seconds;
        p.dramDynW = e.dramDynJ / seconds;
        return p;
    }
};

} // namespace memnet

#endif // MEMNET_POWER_POWER_BREAKDOWN_HH
