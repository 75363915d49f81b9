/**
 * @file
 * Chrome trace-event exporter (chrome://tracing / Perfetto "JSON object
 * format": https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
 *
 * Implements the net layer's PowerTraceSink: link power-state spans
 * (tx / off / wake / retrain) become complete ('X') duration events on
 * one track per link, instants (mode changes, degrades, CRC retries,
 * fault injections, AMS violations, epoch boundaries, ISP rounds)
 * become instants ('i'). Packet lifetimes land on a shared "packets" track.
 * Stall attribution (latency observatory) is exported as counter ('C')
 * tracks: cumulative wake/retrain stall seconds and the waiting-queue
 * high-water per link. The energy observatory adds a sim-wide
 * "energy_w" counter track: per-cause average watts of each epoch,
 * rendered by Perfetto as a stacked area graph of where power went.
 *
 * Tracks are grouped by process: each link's track lives in the pid of
 * its owning module, and mgmt/faults/packets share a "sim" process —
 * process_name/thread_name metadata events make Perfetto render module
 * groups with human-readable names instead of raw tid integers.
 *
 * Timestamps are simulated time converted to the format's microseconds.
 * Events are buffered and stably sorted by timestamp before writing, so
 * the emitted traceEvents array is time-ordered even though span events
 * are reported at span end.
 *
 * Sink callbacks are thread-safe: a partitioned run (sim/partition.hh)
 * reports packet lifetimes from the host lane and link spans from
 * channel lanes concurrently, so the event buffer and track maps are
 * mutex-guarded. writeTo() is for after the run, on one thread.
 */

#ifndef MEMNET_OBS_CHROME_TRACE_HH
#define MEMNET_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "net/power_trace.hh"

namespace memnet
{
namespace obs
{

class ChromeTraceWriter : public PowerTraceSink
{
  public:
    /** Track ids for non-link events. */
    static constexpr int kMgmtTid = 900;
    static constexpr int kFaultTid = 901;
    static constexpr int kPacketTid = 902;
    static constexpr int kEnergyTid = 903;

    /** Process id of the shared simulator-wide tracks. */
    static constexpr int kSimPid = 1;
    /** Module m's tracks live in process kModulePidBase + m. */
    static constexpr int kModulePidBase = 10;

    /** Default event-count cap; excess events are counted, not stored. */
    static constexpr std::size_t kDefaultMaxEvents = 2'000'000;

    explicit ChromeTraceWriter(
        std::size_t max_events = kDefaultMaxEvents);

    // -- PowerTraceSink ----------------------------------------------------

    void linkTx(const Link &l, Tick begin, Tick end, int flits) override;
    void linkOff(const Link &l, Tick begin, Tick end) override;
    void linkWake(const Link &l, Tick begin, Tick end) override;
    void linkRetrain(const Link &l, Tick begin, Tick end) override;
    void linkModeChange(const Link &l, Tick now, std::size_t bw_idx,
                        std::size_t roo_idx) override;
    void linkDegrade(const Link &l, Tick now, int lanes) override;
    void linkRetry(const Link &l, Tick now) override;
    void linkStall(const Link &l, Tick now) override;
    void linkQueueDepth(const Link &l, Tick now,
                        std::size_t depth) override;
    void packetLife(const Packet &pkt, Tick inject, Tick deliver) override;
    void faultEvent(const char *kind, int link_id, Tick now) override;

    // -- Management instants (called by ObsHub) ----------------------------

    void epochMarker(Tick now, std::uint64_t epoch);
    void violation(int link_id, Tick now);
    /** The epoch's ISP rounds: unused AMS (ps) at the start of each. */
    void ispRounds(Tick now, std::span<const double> unused_ps);

    /**
     * One sample on the simulator-wide "energy_w" counter track: @p args
     * is a pre-rendered {"cause":watts,...} object with the epoch's
     * average power per attribution cause (see energy_observatory.cc).
     */
    void
    energyCounters(Tick now, std::string args)
    {
        counter(kSimPid, kEnergyTid, "energy_w", now, std::move(args));
    }

    // -- Output ------------------------------------------------------------

    std::size_t events() const { return buf.size(); }
    std::uint64_t dropped() const { return nDropped; }

    /** Sort buffered events by timestamp and write the whole trace. */
    void writeTo(std::ostream &os);

  private:
    struct TraceEvent
    {
        double tsUs;
        double durUs; ///< only for ph == 'X'
        char ph;      ///< 'X' complete, 'i' instant, 'C' counter
        int pid;
        int tid;
        std::string name;
        const char *cat;
        /** Pre-rendered args object text ("{...}"), may be empty. */
        std::string args;
    };

    /** Track registration: display name + owning process. */
    struct TrackInfo
    {
        int pid;
        std::string name;
    };

    static double toUs(Tick t);

    /** Register the link's track (and process) on first use. */
    int tidFor(const Link &l);
    /** The pid of the link's owning module (registers its name). */
    int pidFor(const Link &l);
    /** pidFor body; caller holds mu. */
    int pidForLocked(const Link &l);

    void span(int pid, int tid, const char *cat, std::string name,
              Tick begin, Tick end, std::string args = {});
    void instant(int pid, int tid, const char *cat, std::string name,
                 Tick now, std::string args = {});
    void counter(int pid, int tid, std::string name, Tick now,
                 std::string args);
    bool admit();

    /** Guards buf, tidNames, pidNames, nDropped (see file comment). */
    std::mutex mu;
    std::vector<TraceEvent> buf;
    std::map<int, TrackInfo> tidNames;
    std::map<int, std::string> pidNames;
    std::size_t maxEvents;
    std::uint64_t nDropped = 0;
};

} // namespace obs
} // namespace memnet

#endif // MEMNET_OBS_CHROME_TRACE_HH
