#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "net/link.hh"
#include "net/packet.hh"
#include "obs/json.hh"
#include "sim/log.hh"

namespace memnet
{
namespace obs
{

ChromeTraceWriter::ChromeTraceWriter(std::size_t max_events)
    : maxEvents(max_events)
{
    pidNames[kSimPid] = "sim";
    tidNames[kMgmtTid] = {kSimPid, "mgmt"};
    tidNames[kFaultTid] = {kSimPid, "faults"};
    tidNames[kPacketTid] = {kSimPid, "packets"};
    tidNames[kEnergyTid] = {kSimPid, "energy"};
}

double
ChromeTraceWriter::toUs(Tick t)
{
    // Tick is integer picoseconds; the trace format wants microseconds.
    return static_cast<double>(t) * 1e-6;
}

int
ChromeTraceWriter::pidForLocked(const Link &l)
{
    const int pid = kModulePidBase + l.module();
    auto it = pidNames.find(pid);
    if (it == pidNames.end()) {
        std::ostringstream os;
        os << "module" << l.module();
        pidNames.emplace(pid, os.str());
    }
    return pid;
}

int
ChromeTraceWriter::pidFor(const Link &l)
{
    std::lock_guard<std::mutex> lock(mu);
    return pidForLocked(l);
}

int
ChromeTraceWriter::tidFor(const Link &l)
{
    std::lock_guard<std::mutex> lock(mu);
    const int tid = l.id();
    auto it = tidNames.find(tid);
    if (it == tidNames.end()) {
        std::ostringstream os;
        os << "link" << l.id()
           << (l.type() == LinkType::Request ? " req m" : " resp m")
           << l.module();
        tidNames.emplace(tid, TrackInfo{pidForLocked(l), os.str()});
    }
    return tid;
}

bool
ChromeTraceWriter::admit()
{
    if (buf.size() >= maxEvents) {
        ++nDropped;
        return false;
    }
    return true;
}

void
ChromeTraceWriter::span(int pid, int tid, const char *cat,
                        std::string name, Tick begin, Tick end,
                        std::string args)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!admit())
        return;
    buf.push_back(TraceEvent{toUs(begin), toUs(end - begin), 'X', pid,
                             tid, std::move(name), cat,
                             std::move(args)});
}

void
ChromeTraceWriter::instant(int pid, int tid, const char *cat,
                           std::string name, Tick now, std::string args)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!admit())
        return;
    buf.push_back(TraceEvent{toUs(now), 0.0, 'i', pid, tid,
                             std::move(name), cat, std::move(args)});
}

void
ChromeTraceWriter::counter(int pid, int tid, std::string name, Tick now,
                           std::string args)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!admit())
        return;
    buf.push_back(TraceEvent{toUs(now), 0.0, 'C', pid, tid,
                             std::move(name), "lat", std::move(args)});
}

void
ChromeTraceWriter::linkTx(const Link &l, Tick begin, Tick end, int flits)
{
    std::ostringstream args;
    args << "{\"flits\":" << flits << "}";
    span(pidFor(l), tidFor(l), "link", "tx", begin, end, args.str());
}

void
ChromeTraceWriter::linkOff(const Link &l, Tick begin, Tick end)
{
    span(pidFor(l), tidFor(l), "link", "off", begin, end);
}

void
ChromeTraceWriter::linkWake(const Link &l, Tick begin, Tick end)
{
    span(pidFor(l), tidFor(l), "link", "wake", begin, end);
}

void
ChromeTraceWriter::linkRetrain(const Link &l, Tick begin, Tick end)
{
    span(pidFor(l), tidFor(l), "fault", "retrain", begin, end);
}

void
ChromeTraceWriter::linkModeChange(const Link &l, Tick now,
                                  std::size_t bw_idx, std::size_t roo_idx)
{
    std::ostringstream args;
    args << "{\"bw\":" << bw_idx << ",\"roo\":" << roo_idx << "}";
    instant(pidFor(l), tidFor(l), "mgmt", "mode", now, args.str());
}

void
ChromeTraceWriter::linkDegrade(const Link &l, Tick now, int lanes)
{
    std::ostringstream args;
    args << "{\"lanes\":" << lanes << "}";
    instant(pidFor(l), tidFor(l), "fault", "degrade", now, args.str());
}

void
ChromeTraceWriter::linkRetry(const Link &l, Tick now)
{
    instant(pidFor(l), tidFor(l), "fault", "crc_retry", now);
}

void
ChromeTraceWriter::linkStall(const Link &l, Tick now)
{
    // Cumulative stall attribution as a two-series counter track,
    // sampled whenever a wake or retrain completes (docs note: a step
    // graph, exact at sample points). Values are seconds.
    std::ostringstream name;
    name << "link" << l.id() << " stall_s";
    char wake[40], retrain[40];
    std::snprintf(wake, sizeof wake, "%.9f",
                  l.stats().wakeStallSeconds);
    std::snprintf(retrain, sizeof retrain, "%.9f",
                  l.stats().retrainStallSeconds);
    std::ostringstream args;
    args << "{\"wake\":" << wake << ",\"retrain\":" << retrain << "}";
    counter(pidFor(l), l.id(), name.str(), now, args.str());
}

void
ChromeTraceWriter::linkQueueDepth(const Link &l, Tick now,
                                  std::size_t depth)
{
    // Only high-water increases are reported (net/link.cc), so this
    // track stays tiny even on congested runs — it renders as the
    // queue-depth envelope, not the instantaneous depth.
    std::ostringstream name;
    name << "link" << l.id() << " queue_peak";
    std::ostringstream args;
    args << "{\"depth\":" << depth << "}";
    counter(pidFor(l), l.id(), name.str(), now, args.str());
}

void
ChromeTraceWriter::packetLife(const Packet &pkt, Tick inject, Tick deliver)
{
    std::ostringstream args;
    args << "{\"id\":" << pkt.id << ",\"module\":" << pkt.homeModule
         << "}";
    span(kSimPid, kPacketTid, "packet",
         pkt.type == PacketType::WriteReq ? "write" : "read", inject,
         deliver, args.str());
}

void
ChromeTraceWriter::faultEvent(const char *kind, int link_id, Tick now)
{
    std::ostringstream args;
    args << "{\"link\":" << link_id << "}";
    instant(kSimPid, kFaultTid, "fault", kind, now, args.str());
}

void
ChromeTraceWriter::epochMarker(Tick now, std::uint64_t epoch)
{
    std::ostringstream args;
    args << "{\"epoch\":" << epoch << "}";
    instant(kSimPid, kMgmtTid, "mgmt", "epoch", now, args.str());
}

void
ChromeTraceWriter::violation(int link_id, Tick now)
{
    std::ostringstream args;
    args << "{\"link\":" << link_id << "}";
    instant(kSimPid, kMgmtTid, "mgmt", "ams_violation", now, args.str());
}

void
ChromeTraceWriter::ispRounds(Tick now, std::span<const double> unused_ps)
{
    std::ostringstream args;
    JsonWriter w(args);
    w.beginObject();
    w.key("unused_ps");
    w.beginArray();
    for (double v : unused_ps)
        w.value(v);
    w.endArray();
    w.endObject();
    instant(kSimPid, kMgmtTid, "mgmt", "isp", now, args.str());
}

void
ChromeTraceWriter::writeTo(std::ostream &os)
{
    if (nDropped) {
        memnet_warn("chrome trace dropped ", nDropped,
                    " events past the ", maxEvents, "-event cap");
    }
    // Span events are pushed at span end; a stable sort by start time
    // restores chronological order (ties keep emission order).
    std::stable_sort(buf.begin(), buf.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tsUs < b.tsUs;
                     });

    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    // Process- and thread-name metadata first, so Perfetto groups link
    // tracks under their owning module's process.
    for (const auto &[pid, name] : pidNames) {
        sep();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(name)
           << "\"}}";
    }
    for (const auto &[tid, info] : tidNames) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
           << info.pid << ",\"tid\":" << tid
           << ",\"args\":{\"name\":\"" << jsonEscape(info.name)
           << "\"}}";
    }
    char num[40];
    for (const TraceEvent &e : buf) {
        sep();
        os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
           << e.cat << "\",\"ph\":\"" << e.ph << "\",\"pid\":" << e.pid
           << ",\"tid\":" << e.tid;
        std::snprintf(num, sizeof num, "%.6f", e.tsUs);
        os << ",\"ts\":" << num;
        if (e.ph == 'X') {
            std::snprintf(num, sizeof num, "%.6f", e.durUs);
            os << ",\"dur\":" << num;
        } else if (e.ph == 'i') {
            os << ",\"s\":\"t\"";
        }
        if (!e.args.empty())
            os << ",\"args\":" << e.args;
        os << "}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace obs
} // namespace memnet
