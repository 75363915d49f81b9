/**
 * @file
 * Simulator: builds a full system from a SystemConfig, runs it, and
 * returns a RunResult. This is the primary public API of the library.
 *
 * A run is the one-channel case of the system builder runMultiChannel
 * also uses (memnet/system.hh), plus what only Simulator reports: the
 * obs hub, the host RunProfile and the per-module RunResult.
 *
 * Typical use:
 * @code
 *   memnet::SystemConfig cfg;
 *   cfg.topology = memnet::TopologyKind::Star;
 *   cfg.workload = "mixB";
 *   cfg.mechanism = memnet::BwMechanism::Vwl;
 *   cfg.policy = memnet::Policy::Aware;
 *   memnet::RunResult r = memnet::Simulator(cfg).run();
 * @endcode
 */

#ifndef MEMNET_MEMNET_SIMULATOR_HH
#define MEMNET_MEMNET_SIMULATOR_HH

#include "memnet/config.hh"

namespace memnet
{

class Simulator
{
  public:
    explicit Simulator(const SystemConfig &cfg) : cfg(cfg) {}

    /** Run warmup + measurement and collect results. */
    RunResult run();

  private:
    SystemConfig cfg;
};

/** Convenience: construct, run, destroy. */
RunResult runSimulation(const SystemConfig &cfg);

/**
 * The measurement window a run will actually simulate: cfg.measure,
 * unless the MEMNET_SIM_US environment variable overrides it (the CI
 * knob for shortening every window). Shared by the single-network
 * simulator and runMultiChannel so their windows always agree.
 */
Tick effectiveMeasure(const SystemConfig &cfg);

} // namespace memnet

#endif // MEMNET_MEMNET_SIMULATOR_HH
