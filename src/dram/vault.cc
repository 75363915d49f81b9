#include "dram/vault.hh"

#include <utility>

#include "sim/log.hh"

namespace memnet
{

Vault::Vault(EventQueue &eq, const DramParams &params, Callback cb)
    : eq(eq), params(params), callback(std::move(cb))
{
    bankFreeAt.assign(params.banksPerVault, 0);
}

void
Vault::push(const VaultRequest &req)
{
    if (!hasSpace())
        ++nOverflow;
    if (req.isRead) {
        readQ.push_back(req);
        ++activeReads;
    } else {
        writeQ.push_back(req);
    }
    trySchedule();
}

void
Vault::trySchedule()
{
    if (busy || (readQ.empty() && writeQ.empty()))
        return;
    if (!scheduleEvent.scheduled())
        eq.schedule(&scheduleEvent, eq.now());
}

void
Vault::startNext()
{
    if (busy)
        return;
    // Reads are prioritized: writes are posted and off the critical path.
    if (!readQ.empty()) {
        current = readQ.front();
        readQ.pop_front();
    } else if (!writeQ.empty()) {
        current = writeQ.front();
        writeQ.pop_front();
    } else {
        return;
    }
    busy = true;

    const Tick now = eq.now();
    const int bank = bankOf(current.addr);
    const Tick act = std::max({now, nextActAt, bankFreeAt[bank]});
    // Close page: ACT -> CAS (tRCD) -> data (tCL) -> burst. Writes use
    // the same CAS latency (tCWL ~= tCL simplification).
    const Tick data_ready = act + params.tRCD + params.tCL;
    const Tick bus_start = std::max(data_ready, busFreeAt);
    const Tick done = bus_start + params.burstTime();

    busFreeAt = done;
    nextActAt = act + params.tRRD;
    Tick bank_close = std::max(act + params.tRAS, done);
    if (!current.isRead)
        bank_close = std::max(bank_close, done + params.tWR);
    bankFreeAt[bank] = bank_close + params.tRP;

    eq.schedule(&burstEvent, done);
}

void
Vault::onBurstDone()
{
    memnet_assert(busy, "burst completion while idle");
    busy = false;
    if (current.isRead) {
        ++nReads;
        --activeReads;
    } else {
        ++nWrites;
    }
    callback(current.tag, current.isRead, eq.now());
    trySchedule();
}

} // namespace memnet
