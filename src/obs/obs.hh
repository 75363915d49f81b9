/**
 * @file
 * ObsHub — the assembled observability subsystem for one simulation run.
 *
 * Construction wires everything the options ask for:
 *  - attaches a ChromeTraceWriter to the network as the PowerTraceSink;
 *  - attaches itself to the manager as the EpochObserver: it reads the
 *    energy ledger once per epoch and feeds that sample to the
 *    EpochRecorder (JSONL) and the trace's energy counters, plus the
 *    epoch/violation trace instants.
 *
 * Everything is passive: hooks are synchronous callbacks from existing
 * simulation events, and the hub never schedules events of its own, so
 * an instrumented run produces bit-identical RunResults to a bare one.
 * When ObsOptions::active() is false the simulator does not construct a
 * hub at all. The stats dump is not the hub's: Simulator::run writes it
 * from the finished RunResult (writeStatsJson, memnet/journal.hh).
 */

#ifndef MEMNET_OBS_OBS_HH
#define MEMNET_OBS_OBS_HH

#include <fstream>
#include <memory>

#include "mgmt/manager.hh"
#include "net/network.hh"
#include "obs/chrome_trace.hh"
#include "obs/epoch_recorder.hh"
#include "obs/options.hh"

namespace memnet
{
namespace obs
{

class ObsHub : public EpochObserver
{
  public:
    /**
     * @param opts which outputs to produce (paths may be empty).
     * @param net the network under observation.
     * @param mgr the power manager, or null (FullPower / StaticTaper);
     *        without one there are no epoch records.
     */
    ObsHub(const ObsOptions &opts, Network &net, PowerManager *mgr);
    ~ObsHub() override;

    ObsHub(const ObsHub &) = delete;
    ObsHub &operator=(const ObsHub &) = delete;

    /** Re-baseline epoch diffs after the network's stats reset. */
    void onMeasureStart(Tick now);

    /** Close the epoch records and write the trace file. */
    void finish();

    // -- EpochObserver -----------------------------------------------------

    void onEpoch(PowerManager &pm, Tick now) override;
    void onViolation(PowerManager &pm, LinkMgmtState &s,
                     Tick now) override;

  private:
    ObsOptions opts;
    Network &net;
    PowerManager *mgr;

    std::unique_ptr<ChromeTraceWriter> trace;
    std::ofstream epochFile;
    std::unique_ptr<EpochRecorder> rec;

    /**
     * The energy ledger and its tick at the previous epoch boundary:
     * the one baseline both the epoch records and the trace's
     * "energy_w" track diff against (delta / window = average watts).
     */
    EnergyAttribution lastEnergy;
    Tick lastEnergyTick = 0;
};

} // namespace obs
} // namespace memnet

#endif // MEMNET_OBS_OBS_HH
