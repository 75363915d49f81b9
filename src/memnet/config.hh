/**
 * @file
 * Top-level run configuration and result types — the library's public
 * entry surface together with Simulator.
 */

#ifndef MEMNET_MEMNET_CONFIG_HH
#define MEMNET_MEMNET_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "linkpm/modes.hh"
#include "mgmt/aware_options.hh"
#include "net/topology.hh"
#include "obs/energy_observatory.hh"
#include "obs/options.hh"
#include "obs/prof.hh"
#include "obs/quantile_sketch.hh"
#include "power/power_breakdown.hh"
#include "sim/fault.hh"
#include "sim/types.hh"

namespace memnet
{

/** Network scale study: how much address space each module serves. */
enum class SizeClass
{
    Small, ///< 4 GB per HMC (the paper's small network study)
    Big,   ///< 1 GB per HMC (the paper's big network study)
};

const char *sizeClassName(SizeClass s);

/** Which management policy runs on top of the link mechanisms. */
enum class Policy
{
    FullPower,   ///< no management: links always on at full bandwidth
    Unaware,     ///< Section V
    Aware,       ///< Section VI
    StaticTaper, ///< Section VII-A (static fat/tapered tree)
};

const char *policyName(Policy p);

/** Everything needed to reproduce one simulation run. */
struct SystemConfig
{
    TopologyKind topology = TopologyKind::DaisyChain;
    SizeClass sizeClass = SizeClass::Small;
    std::string workload = "ua.D";

    BwMechanism mechanism = BwMechanism::None;
    bool roo = false;
    Tick rooWakeupPs = ns(14);
    /** I/O power attribution variant (see power/hmc_power_model.hh). */
    IoAttribution ioAttribution = IoAttribution::PerEnd;
    /** Flit corruption probability (CRC retry model; 0 = clean links). */
    double linkFlitErrorRate = 0.0;

    /**
     * Deterministic fault schedule (retrains, lane failures, error
     * bursts). The default — an empty plan — is guaranteed to be
     * bit-identical to a run without any fault machinery.
     */
    FaultPlan faults;

    /**
     * Stalled-read watchdog timeout. 0 = automatic: off for fault-free
     * runs (preserving their event stream exactly), 300 us when the
     * fault plan is non-empty. Negative = always off. Positive = use
     * the given timeout unconditionally.
     */
    Tick watchdogTimeoutPs = 0;

    Policy policy = Policy::FullPower;
    double alphaPct = 5.0;
    Tick epochLen = us(100);
    AwareOptions aware;

    /** Page-interleaved address mapping (static-taper comparison). */
    bool interleavePages = false;

    Tick warmup = us(100);
    Tick measure = us(400);
    std::uint64_t seed = 1;

    /** Ignored; ROADMAP item 1's benchmark PR removes it. */
    int partitions = 1;

    int cores = 16;
    int maxReadsPerCore = 12;
    int maxWritesPerCore = 32;

    /**
     * Observability outputs (src/obs). All off by default; never part
     * of Runner's memoization key and never affects simulation results.
     */
    ObsOptions obs;

    /**
     * Run the runtime invariant auditor (src/audit) even in Release
     * builds. Debug builds always audit; the front ends set this from
     * --audit or MEMNET_AUDIT=1. Auditing is purely observational
     * — results are bit-identical with it on or off — so, like obs, it
     * is never part of Runner's memoization key.
     */
    bool audit = false;

    /** Bytes of address space served by one module. */
    std::uint64_t
    chunkBytes() const
    {
        return sizeClass == SizeClass::Small ? (4ULL << 30)
                                             : (1ULL << 30);
    }

    /** Short human-readable description. */
    std::string describe() const;
};

/** Utilization-bucket edges for the Figure 13 link-hours breakdown. */
constexpr int kUtilBuckets = 5;
extern const char *const kUtilBucketNames[kUtilBuckets];

/** Lane-mode groups reported in Figure 13 (16/8/4/1 lanes). */
constexpr int kLaneModes = 4;

/** Per-module measurement detail (for reports and examples). */
struct ModuleDetail
{
    int id = 0;
    bool highRadix = false;
    int hopDistance = 1;
    std::uint64_t dramAccesses = 0;
    std::uint64_t flitsRouted = 0;
    double requestLinkUtil = 0.0;
    double responseLinkUtil = 0.0;
    /** Time-weighted average power fraction of the two links. */
    double requestLinkPowerFrac = 1.0;
    double responseLinkPowerFrac = 1.0;
};

/**
 * Reliability counters aggregated over every link of the run's
 * measurement window (all zero for clean, fault-free runs).
 */
struct ReliabilityStats
{
    /** CRC retransmissions (LinkErrorModel + error bursts). */
    std::uint64_t retries = 0;
    /** Packets whose serialization a retrain aborted and replayed. */
    std::uint64_t replays = 0;
    /** Retrain windows entered across all links. */
    std::uint64_t retrains = 0;
    /** Link-seconds spent retraining. */
    double retrainSeconds = 0.0;
    /** Link-seconds spent at reduced width (permanent lane failures). */
    double degradedSeconds = 0.0;
    /** Fault-injector events fired over the whole run (incl. warmup). */
    std::uint64_t faultEvents = 0;

    bool
    any() const
    {
        return retries || replays || retrains || faultEvents ||
               retrainSeconds > 0.0 || degradedSeconds > 0.0;
    }
};

/** Unused; ROADMAP item 1's benchmark PR removes it. */
struct PartitionLane
{
    std::uint64_t eventsFired = 0;
    std::uint64_t windows = 0;
    std::uint64_t barrierWaitNs = 0;
};

/**
 * Simulation-rate profile of one run (whole run, warmup included).
 * wallSeconds and profPhases are the only fields that vary between
 * identical runs; everything else is simulation-determined.
 */
struct RunProfile
{
    std::uint64_t eventsFired = 0;
    std::uint64_t eventsScheduled = 0;
    double wallSeconds = 0.0;
    double simSeconds = 0.0;

    /** Always empty; ROADMAP item 1's benchmark PR removes it. */
    std::vector<PartitionLane> partitionLanes;

    /** Packets issued through the pool (whole run, warmup included). */
    std::uint64_t packetsIssued = 0;
    /** Packets actually heap-allocated (the pool's high-water mark). */
    std::uint64_t packetHeapAllocs = 0;

    /** Invariant checks the runtime auditor ran (0 = auditing off). */
    std::uint64_t auditChecksRun = 0;

    /** Explicit event removals (link sleep timers, watchdog rearms). */
    std::uint64_t eventsDescheduled = 0;
    /** High-water mark of the event queue over the whole run. */
    std::uint64_t peakQueueDepth = 0;

    /**
     * Host-side profiler phases attributed to this run (empty unless
     * prof::setEnabled(true)). Wall-clock data: like wallSeconds, it
     * varies between identical runs and is excluded from differential
     * comparison (audit::diffRunResults) and diff_runs.py.
     */
    std::vector<prof::ProfPhase> profPhases;

    /** Heap allocations the packet freelist avoided. */
    std::uint64_t
    packetAllocsAvoided() const
    {
        return packetsIssued -
               (packetHeapAllocs < packetsIssued ? packetHeapAllocs
                                                 : packetsIssued);
    }

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(eventsFired) / wallSeconds
                   : 0.0;
    }

    /** Simulated seconds per wall second (higher = faster). */
    double
    simRate() const
    {
        return wallSeconds > 0.0 ? simSeconds / wallSeconds : 0.0;
    }
};

/** Measured outputs of one run. */
struct RunResult
{
    SystemConfig config;
    int numModules = 0;

    /** Average power of one HMC, split like Figure 5. */
    PowerBreakdown perHmc;
    double totalNetworkPowerW = 0.0;
    double idleIoFrac = 0.0; ///< idle I/O / total network power

    /** Performance: completed reads per second of simulated time. */
    double readsPerSec = 0.0;
    double avgReadLatencyNs = 0.0;

    double channelUtil = 0.0;
    double avgLinkUtil = 0.0;
    double avgModulesTraversed = 0.0;

    std::uint64_t completedReads = 0;
    std::uint64_t violations = 0;

    /** Aggregated link reliability counters (measurement window). */
    ReliabilityStats reliability;

    /**
     * Latency observatory: per-component percentiles over completed
     * reads of the measurement window plus network-wide stall totals
     * ({enabled=false, all zero} only in records loaded from journals
     * written before the observatory existed).
     */
    LatencyBreakdown latency;

    /**
     * Energy observatory: the exact per-cause attribution ledger plus
     * congestion-sketch percentiles ({enabled=false, all zero} only in
     * records loaded from journals written before the observatory
     * existed).
     */
    EnergySummary energy;

    /** link-seconds[util bucket][lane mode] (Figure 13). */
    std::array<std::array<double, kLaneModes>, kUtilBuckets> linkHours{};

    /** Events fired / wall time, for the harness log. */
    std::uint64_t eventsFired = 0;

    /** Wall-clock and event-throughput profile of the run. */
    RunProfile profile;

    /** Per-module measurement detail. */
    std::vector<ModuleDetail> modules;
};

} // namespace memnet

#endif // MEMNET_MEMNET_CONFIG_HH
