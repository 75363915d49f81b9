/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate: event
 * kernel throughput (schedule/fire, reschedule-heavy and the simulator's
 * own queue shape), packet pool versus heap churn, link serialization
 * and one ROO link's full hop, vault service, delay-monitor, end-to-end
 * simulation cost, result serialization (journal append and load, and
 * apart from the file: record formatting, record parsing and the
 * CRC-32; bench JSON), and the parallel sweep engine.
 *
 * BM_EndToEndSimulation reports the headline counters used by the CI
 * perf-smoke job: events_per_s, packets_per_s, and the per-run heap
 * allocations the packet pool avoided.
 *
 * Every simulated config takes MEMNET_SIM_US and MEMNET_AUDIT the way
 * a bench front end applies them (withRunEnvironment), so the window
 * is the one ci/bench_baseline.json was recorded with.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dram/vault.hh"
#include "memnet/experiment.hh"
#include "memnet/journal.hh"
#include "memnet/multichannel.hh"
#include "memnet/parallel.hh"
#include "memnet/report.hh"
#include "memnet/simulator.hh"
#include "mgmt/delay_monitor.hh"
#include "net/link.hh"
#include "net/packet_pool.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace memnet;

/** @p cfg under MEMNET_SIM_US and MEMNET_AUDIT. */
SystemConfig
withRunEnvironment(SystemConfig cfg)
{
    applyRunEnvironment(std::getenv("MEMNET_SIM_US"),
                        std::getenv("MEMNET_AUDIT"), {&cfg, 1});
    return cfg;
}

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(ns(i), [] {});
        benchmark::DoNotOptimize(eq.run());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

struct NopEvent : public Event
{
    void fire() override {}
};

/**
 * The pattern the lazy-deletion queue handled worst: a working set of
 * re-armable timers (link sleep timers, core issue events) that get
 * rekeyed over and over without ever firing; the lazy-deletion queue
 * accumulated a stale entry per move. The 256 timers spread over 1-6 us
 * from tick 0, up to five turns of the ring's 1.05 us year, so nearly
 * every move unlinks a wrapped entry and relinks it in a later day's
 * list.
 */
void
BM_EventQueueRescheduleHeavy(benchmark::State &state)
{
    constexpr int kTimers = 256;
    constexpr int kMoves = 4000;
    for (auto _ : state) {
        EventQueue eq;
        std::vector<NopEvent> timers(kTimers);
        for (int i = 0; i < kTimers; ++i)
            eq.schedule(&timers[i], ns(1000 + i));
        std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < kMoves; ++i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            NopEvent &ev = timers[(lcg >> 33) % kTimers];
            eq.reschedule(&ev, ns(1000 + (lcg >> 40) % 5000));
        }
        for (NopEvent &ev : timers)
            eq.deschedule(&ev);
        benchmark::DoNotOptimize(eq.pending());
    }
    state.SetItemsProcessed(state.iterations() * kMoves);
}
BENCHMARK(BM_EventQueueRescheduleHeavy);

/**
 * The shape the queue serves in simulation. A long serial mixC run keeps
 * 48-71 events pending, 11% of inserts tie a pending tick, and 97% of
 * the link sleep timers armed are cancelled before they fire. Its
 * inserts land mostly 0.5-4 ns ahead (14.0M of 25.2M), then 4-66 ns
 * (6.8M), then 1-2.1 us (2.74M sleep timers, a year or more past the
 * ring's 1.05 us turn). Here 48 pipeline events re-arm themselves on a
 * 40 ps tick grid, three times in four 0.5-4.3 ns ahead and otherwise
 * 4.3-35 ns ahead, and on every third firing touch one of 16 sleep
 * timers 96-192 ns ahead: cancel it if armed (31 times in 32), arm it
 * otherwise. Depth and ties match the run (~60 pending, 11% ties), but
 * everything stays within a year: the run's 2,048 ns timers wrap into
 * their day's list behind nearer events, and this benchmark leaves that
 * path out.
 */
class SimShape
{
  public:
    static constexpr int kStages = 48;
    static constexpr int kTimers = 16;
    /** Tick grid of every delay, so pending ticks collide. */
    static constexpr Tick kGridPs = 40;

    SimShape() : stages(kStages), timers(kTimers)
    {
        for (int i = 0; i < kStages; ++i) {
            stages[i].shape = this;
            eq.schedule(&stages[i], (1 + i) * kGridPs);
        }
    }

    EventQueue eq;

  private:
    struct Stage : public Event
    {
        SimShape *shape = nullptr;
        void fire() override { shape->onStage(this); }
    };

    std::uint64_t
    draw()
    {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    }

    void
    onStage(Stage *stage)
    {
        const std::uint64_t r = draw();
        const Tick hop =
            r % 4 == 0 ? 108 + (r >> 3) % 768 : 12 + (r >> 3) % 96;
        eq.schedule(stage, eq.now() + hop * kGridPs);
        if ((r >> 12) % 3 != 0)
            return;
        NopEvent &timer = timers[(r >> 14) % kTimers];
        const Tick far = 2400 + (r >> 18) % 2400;
        if (!timer.scheduled())
            eq.schedule(&timer, eq.now() + far * kGridPs);
        else if ((r >> 26) % 32 != 0)
            eq.deschedule(&timer);
    }

    std::vector<Stage> stages;
    std::vector<NopEvent> timers;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
};

void
BM_EventQueueSimShape(benchmark::State &state)
{
    SimShape shape;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            shape.eq.runUntil(shape.eq.now() + 8000 * SimShape::kGridPs));
    state.SetItemsProcessed(static_cast<std::int64_t>(shape.eq.fired()));
}
BENCHMARK(BM_EventQueueSimShape);

void
BM_PacketPoolChurn(benchmark::State &state)
{
    constexpr int kBurst = 64;
    PacketPool pool;
    std::vector<Packet *> live;
    live.reserve(kBurst);
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i)
            live.push_back(pool.acquire());
        for (Packet *p : live)
            pool.release(p);
        live.clear();
    }
    state.SetItemsProcessed(state.iterations() * kBurst);
    state.counters["allocs_avoided"] = benchmark::Counter(
        static_cast<double>(pool.allocationsAvoided()));
}
BENCHMARK(BM_PacketPoolChurn);

/** The new/delete baseline BM_PacketPoolChurn replaces. */
void
BM_PacketHeapChurn(benchmark::State &state)
{
    constexpr int kBurst = 64;
    std::vector<Packet *> live;
    live.reserve(kBurst);
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i)
            live.push_back(new Packet);
        for (Packet *p : live)
            delete p;
        live.clear();
    }
    state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_PacketHeapChurn);

struct SwallowSink : public PacketSink
{
    void accept(Packet *pkt, Tick) override { disposePacket(pkt); }
};

void
BM_LinkPacketTransfer(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        RooConfig roo;
        SwallowSink sink;
        Link link(eq, 0, LinkType::Request, 0,
                  &ModeTable::forMechanism(BwMechanism::None), &roo,
                  1.17, &sink);
        for (int i = 0; i < 500; ++i) {
            Packet *p = new Packet;
            p->type = PacketType::ReadResp;
            p->flits = 5;
            link.enqueue(p);
        }
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_LinkPacketTransfer);

/**
 * One ROO-enabled VWL link carrying a packet stream: every packet goes
 * from Link::enqueue through serialization (onTxDone) and the
 * SERDES/router pipe (onDeliver) into a sink that counts it and hands
 * it back for reuse, so no allocation is timed. Arrivals come 2-40 ns
 * apart, mixing one-flit requests and five-flit responses on the read
 * and write queues, so the queues often drain between packets and
 * each drain arms the 128 ns sleep timer; every 64th gap is 1 us, long
 * enough for the link to turn off and wake for the next packet.
 */
class LinkHopStream : public PacketSink
{
  public:
    LinkHopStream()
        : roo(rooOn()),
          link(eq, 0, LinkType::Response, 0,
               &ModeTable::forMechanism(BwMechanism::Vwl), &roo, 1.17,
               this),
          packets(kPackets)
    {
        link.applyModes(0, 1);
        for (Packet &p : packets)
            spare.push_back(&p);
        eq.schedule(&arrival, ns(1));
    }

    void
    accept(Packet *pkt, Tick) override
    {
        ++delivered;
        spare.push_back(pkt);
    }

    EventQueue eq;
    std::uint64_t delivered = 0;

  private:
    static constexpr int kPackets = 256;

    static RooConfig
    rooOn()
    {
        RooConfig r;
        r.enabled = true;
        return r;
    }

    void
    onArrival()
    {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t r = lcg >> 33;
        if (!spare.empty()) {
            Packet *p = spare.back();
            spare.pop_back();
            const bool response = r % 4 != 0;
            p->type = (r >> 2) % 8 == 0
                          ? PacketType::WriteReq
                          : response ? PacketType::ReadResp
                                     : PacketType::ReadReq;
            p->flits = response ? 5 : 1;
            link.enqueue(p);
        }
        const Tick gap =
            ++arrivals % 64 == 0
                ? us(1)
                : ns(2 + static_cast<std::int64_t>((r >> 5) % 39));
        eq.schedule(&arrival, eq.now() + gap);
    }

    RooConfig roo;
    Link link;
    std::vector<Packet> packets;
    std::vector<Packet *> spare;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    std::uint64_t arrivals = 0;
    MemberEvent<LinkHopStream, &LinkHopStream::onArrival> arrival{this};
};

void
BM_LinkHop(benchmark::State &state)
{
    LinkHopStream stream;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stream.eq.runUntil(stream.eq.now() + us(20)));
    state.SetItemsProcessed(static_cast<std::int64_t>(stream.delivered));
}
BENCHMARK(BM_LinkHop);

void
BM_VaultReads(benchmark::State &state)
{
    DramParams params;
    for (auto _ : state) {
        EventQueue eq;
        Vault vault(eq, params, [](std::uint64_t, bool, Tick) {});
        for (int i = 0; i < 200; ++i)
            vault.push({static_cast<std::uint64_t>(i) * 64 * 32, true,
                        static_cast<std::uint64_t>(i)});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_VaultReads);

void
BM_DelayMonitorArrival(benchmark::State &state)
{
    DelayMonitor m;
    Tick t = 0;
    for (auto _ : state) {
        m.arrival(t, 5);
        benchmark::DoNotOptimize(m);
        t += ns(10);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DelayMonitorArrival);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.topology = TopologyKind::Star;
    cfg.sizeClass = SizeClass::Small;
    cfg.warmup = us(20);
    cfg.measure = us(100);
    cfg.policy = Policy::Unaware;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    cfg = withRunEnvironment(cfg);
    double events = 0.0, packets = 0.0, avoided = 0.0;
    for (auto _ : state) {
        const RunResult r = runSimulation(cfg);
        benchmark::DoNotOptimize(r.totalNetworkPowerW);
        events += static_cast<double>(r.eventsFired);
        packets += static_cast<double>(r.profile.packetsIssued);
        avoided += static_cast<double>(r.profile.packetAllocsAvoided());
    }
    state.counters["events_per_s"] =
        benchmark::Counter(events, benchmark::Counter::kIsRate);
    state.counters["packets_per_s"] =
        benchmark::Counter(packets, benchmark::Counter::kIsRate);
    state.counters["pool_allocs_avoided"] = benchmark::Counter(
        avoided / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

/** Records per iteration of the serialization benches. */
constexpr int kSerialRecords = 64;

/**
 * Records per iteration of BM_BenchResultsJson: enough that formatting
 * them, not starting the threads that share them out, is what it times.
 */
constexpr int kJsonRecords = 2048;

/**
 * @p n copies of one real short run (latency and energy observatories
 * on, 4 modules, about 5 KB of journal each) under seeds 1000.., each a
 * distinct key.
 */
std::map<std::string, RunResult>
seededRecords(int n)
{
    static const RunResult source = [] {
        SystemConfig cfg;
        cfg.workload = "mixA";
        cfg.topology = TopologyKind::Star;
        cfg.policy = Policy::Aware;
        cfg.mechanism = BwMechanism::Vwl;
        cfg.roo = true;
        cfg.warmup = us(5);
        cfg.measure = us(20);
        return runSimulation(withRunEnvironment(cfg));
    }();
    std::map<std::string, RunResult> m;
    for (int i = 0; i < n; ++i) {
        RunResult r = source;
        r.config.seed = 1000 + i;
        m.emplace(Runner::key(r.config), std::move(r));
    }
    return m;
}

/** What the serialization benches write and read. */
const std::map<std::string, RunResult> &
serialRecords()
{
    static const std::map<std::string, RunResult> records =
        seededRecords(kSerialRecords);
    return records;
}

std::string
serialPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

void
writeJournal(const std::string &path)
{
    std::filesystem::remove(path);
    RunJournal journal(path);
    journal.open();
    for (const auto &[key, r] : serialRecords())
        journal.append(key, r);
}

/** RunJournal::append, one flush per record, as --journal does. */
void
BM_JournalAppend(benchmark::State &state)
{
    const std::string path = serialPath("memnet_bench_append.jsonl");
    for (auto _ : state)
        writeJournal(path);
    std::filesystem::remove(path);
    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kSerialRecords),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JournalAppend)->UseRealTime()->Unit(benchmark::kMillisecond);

/** loadJournal of kSerialRecords records, as --resume does. */
void
BM_JournalLoad(benchmark::State &state)
{
    const std::string path = serialPath("memnet_bench_load.jsonl");
    writeJournal(path);
    for (auto _ : state) {
        std::map<std::string, RunResult> pool;
        JournalLoadStats stats;
        loadJournal(path, &pool, &stats);
        if (stats.loaded != kSerialRecords)
            state.SkipWithError("journal records lost");
        benchmark::DoNotOptimize(pool);
    }
    std::filesystem::remove(path);
    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kSerialRecords),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JournalLoad)->UseRealTime()->Unit(benchmark::kMillisecond);

/** journalRecordLine alone: format and checksum, no file. */
void
BM_JournalRecordLine(benchmark::State &state)
{
    const std::map<std::string, RunResult> &records = serialRecords();
    for (auto _ : state)
        for (const auto &[key, r] : records)
            benchmark::DoNotOptimize(journalRecordLine(key, r));
    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kSerialRecords),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JournalRecordLine)->Unit(benchmark::kMillisecond);

/** parseJournalLine alone: checksum, parse and key check, no file. */
void
BM_ParseJournalLine(benchmark::State &state)
{
    std::vector<std::string> lines;
    for (const auto &[key, r] : serialRecords())
        lines.push_back(journalRecordLine(key, r));
    for (auto _ : state) {
        for (const std::string &line : lines) {
            std::string key;
            RunResult r;
            if (!parseJournalLine(line, &key, &r, nullptr))
                state.SkipWithError("journal record rejected");
            benchmark::DoNotOptimize(r);
        }
    }
    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kSerialRecords),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParseJournalLine)->Unit(benchmark::kMillisecond);

/** crc32 of one record's payload, about 4.5 KB. */
void
BM_Crc32(benchmark::State &state)
{
    const auto &[key, r] = *serialRecords().begin();
    const std::string line = journalRecordLine(key, r);
    // The checksummed bytes: after "record": and before the closing "}\n".
    const std::size_t at = line.find("\"record\":") + 9;
    const std::string payload = line.substr(at, line.size() - at - 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(payload.data(), payload.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_Crc32);

/** writeBenchResultsJson, the bench --json output, into memory. */
void
BM_BenchResultsJson(benchmark::State &state)
{
    static const std::map<std::string, RunResult> records =
        seededRecords(kJsonRecords);
    for (auto _ : state) {
        std::ostringstream os;
        writeBenchResultsJson(os, "bench_micro_kernel", records);
        benchmark::DoNotOptimize(os.tellp());
    }
    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kJsonRecords),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BenchResultsJson)->UseRealTime()->Unit(benchmark::kMillisecond);

/**
 * The sweep engine on a small four-workload batch. Arg = worker
 * threads; on a single hardware thread the interesting property is that
 * jobs > 1 costs no correctness and little overhead, not speedup.
 */
void
BM_ParallelSweep(benchmark::State &state)
{
    const int jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Runner runner;
        std::vector<SystemConfig> cfgs;
        for (const char *wl : {"mixA", "mixB", "mixC", "mixD"}) {
            SystemConfig cfg;
            cfg.workload = wl;
            cfg.topology = TopologyKind::Star;
            cfg.warmup = us(10);
            cfg.measure = us(50);
            cfgs.push_back(withRunEnvironment(cfg));
        }
        ParallelRunner(runner, jobs).run(cfgs);
        benchmark::DoNotOptimize(runner.runsExecuted());
    }
    state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** The 16-module four-channel system the partitioned-kernel speedup
 *  is quoted on: mixA's big-study footprint (14 chunks) spread over 4
 *  channels = 4 modules per channel. */
MultiChannelConfig
partitionBenchConfig(int partitions)
{
    MultiChannelConfig mc;
    mc.base.workload = "mixA";
    mc.base.topology = TopologyKind::Star;
    mc.base.sizeClass = SizeClass::Big;
    mc.base.policy = Policy::Aware;
    mc.base.mechanism = BwMechanism::Vwl;
    mc.base.roo = true;
    mc.base.warmup = us(10);
    mc.base.measure = us(50);
    mc.base.partitions = partitions;
    mc.base = withRunEnvironment(mc.base);
    mc.channels = 4;
    return mc;
}

/**
 * Intra-run parallelism (sim/partition.hh): one large multi-channel
 * simulation sharded by channel. Arg = partitions; Arg 1 is the serial
 * kernel the speedup is measured against. reads_per_s is completed
 * reads per wall-clock second, so the ratio of the two entries'
 * counters is the partitioned kernel's speedup — it scales with
 * available hardware threads, so the CI baseline tracks it with the
 * loose wall-clock tolerance class rather than an exact bound.
 */
void
BM_PartitionedMultiChannel(benchmark::State &state)
{
    const MultiChannelConfig mc =
        partitionBenchConfig(static_cast<int>(state.range(0)));
    double reads = 0.0;
    for (auto _ : state) {
        const MultiChannelResult r = runMultiChannel(mc);
        benchmark::DoNotOptimize(r.totalPowerW);
        // readsPerSec is completed reads over the simulated window.
        reads += std::round(r.readsPerSec * toSeconds(mc.base.measure));
    }
    state.counters["reads_per_s"] =
        benchmark::Counter(reads, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PartitionedMultiChannel)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The headline number: serial and partitioned runs of the same config
 * timed back to back, reported as a speedup counter so the CI baseline
 * records it directly. Wall-clock by nature (and below 1.0 on a
 * single-core host, where the barriers only add scheduling overhead),
 * so the baseline gives it a tolerance of 1.0.
 */
void
BM_PartitionedSpeedup(benchmark::State &state)
{
    using clock = std::chrono::steady_clock;
    double serialS = 0.0, partS = 0.0;
    for (auto _ : state) {
        const auto t0 = clock::now();
        const MultiChannelResult a =
            runMultiChannel(partitionBenchConfig(1));
        const auto t1 = clock::now();
        const MultiChannelResult b =
            runMultiChannel(partitionBenchConfig(4));
        const auto t2 = clock::now();
        benchmark::DoNotOptimize(a.totalPowerW + b.totalPowerW);
        serialS += std::chrono::duration<double>(t1 - t0).count();
        partS += std::chrono::duration<double>(t2 - t1).count();
    }
    state.counters["speedup"] =
        benchmark::Counter(partS > 0.0 ? serialS / partS : 0.0);
}
BENCHMARK(BM_PartitionedSpeedup)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
