/**
 * @file
 * Cycle-level model of one HMC vault (a vertical slice of the DRAM
 * stack with its own TSV data bus and controller).
 *
 * Close-page policy: every access performs ACT -> RD/WR -> burst ->
 * auto-precharge. The vault serializes bursts on its data bus, spaces
 * activates by tRRD, and respects per-bank tRAS/tRP/tWR. Reads are
 * prioritized over writes (writes are posted and off the critical path).
 */

#ifndef MEMNET_DRAM_VAULT_HH
#define MEMNET_DRAM_VAULT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "dram/dram_params.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/types.hh"

namespace memnet
{

/** One queued vault request. */
struct VaultRequest
{
    std::uint64_t addr = 0;
    bool isRead = true;
    /** Opaque tag returned with the completion callback. */
    std::uint64_t tag = 0;
};

/**
 * One vault: banks + TSV bus + a 16-entry request queue.
 */
class Vault
{
  public:
    /** Completion callback: (tag, isRead, completionTick). */
    using Callback = std::function<void(std::uint64_t, bool, Tick)>;

    Vault(EventQueue &eq, const DramParams &params, Callback cb);

    /**
     * Enqueue a request. The caller must check hasSpace() first when it
     * wants to honor the 16-entry buffer; overflow is tolerated but
     * counted (in-flight traffic is bounded by the cores' MSHRs, see
     * DESIGN.md).
     */
    void push(const VaultRequest &req);

    bool
    hasSpace() const
    {
        return static_cast<int>(readQ.size() + writeQ.size()) <
               params.bufferEntries;
    }

    /** Outstanding requests (queued + in service). */
    std::size_t
    pending() const
    {
        return readQ.size() + writeQ.size() + (busy ? 1u : 0u);
    }

    /** Reads currently being serviced or queued (for wake coordination). */
    bool readsInFlight() const { return activeReads > 0; }

    std::uint64_t servicedReads() const { return nReads; }
    std::uint64_t servicedWrites() const { return nWrites; }
    std::uint64_t overflowed() const { return nOverflow; }

  private:
    void trySchedule();
    void startNext();
    void onBurstDone();

    /** Pick the bank for a line address (line-interleaved). */
    int
    bankOf(std::uint64_t addr) const
    {
        return static_cast<int>((addr / params.lineBytes /
                                 static_cast<unsigned>(params.vaults)) %
                                static_cast<unsigned>(
                                    params.banksPerVault));
    }

    EventQueue &eq;
    const DramParams &params;
    Callback callback;

    Fifo<VaultRequest> readQ;
    Fifo<VaultRequest> writeQ;

    /** Earliest tick each bank may start a new ACT. */
    std::vector<Tick> bankFreeAt;
    /** Earliest tick the shared data bus is free. */
    Tick busFreeAt = 0;
    /** Earliest tick a new ACT may issue (tRRD spacing). */
    Tick nextActAt = 0;

    bool busy = false;
    int activeReads = 0;
    VaultRequest current{};

    std::uint64_t nReads = 0;
    std::uint64_t nWrites = 0;
    std::uint64_t nOverflow = 0;

    MemberEvent<Vault, &Vault::startNext> scheduleEvent{this};
    MemberEvent<Vault, &Vault::onBurstDone> burstEvent{this};
};

} // namespace memnet

#endif // MEMNET_DRAM_VAULT_HH
