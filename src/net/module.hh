/**
 * @file
 * One HMC module: router + vaults + the connectivity-link endpoints.
 */

#ifndef MEMNET_NET_MODULE_HH
#define MEMNET_NET_MODULE_HH

#include <cstdint>

#include "dram/vault_set.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "power/hmc_power_model.hh"

namespace memnet
{

class Network;
class Module;

/** Management hooks for module-level (DRAM) activity. */
class ModuleObserver
{
  public:
    virtual ~ModuleObserver() = default;

    /** A DRAM read started at this module (vault enqueue). */
    virtual void onDramRead(Module &, Tick) {}

    /** The module's last in-flight DRAM read completed. */
    virtual void onDramIdle(Module &, Tick) {}
};

/**
 * An HMC module. It is the PacketSink of its own request connectivity
 * link and of its children's response links.
 */
class Module : public PacketSink
{
  public:
    Module(Network &net, EventQueue &eq, int id, Radix radix,
           const DramParams &dram_params);

    /** PacketSink: a packet delivered by an attached link. */
    void accept(Packet *pkt, Tick now) override;

    int id() const { return id_; }
    Radix radix() const { return radix_; }

    /** Total flits that crossed this module's router (since reset). */
    std::uint64_t flitsRouted() const { return flits_ - flitsBase; }

    /** DRAM accesses serviced since reset. */
    std::uint64_t
    dramAccesses() const
    {
        return vaults.servicedReads() + vaults.servicedWrites() -
               dramBase;
    }

    /** Monotonic count of DRAM reads serviced (management counter). */
    std::uint64_t dramReadsServiced() const { return dramReadsDone; }

    /** True while any read is queued or in service in the vaults. */
    bool dramReadsInFlight() const { return readsInFlight > 0; }

    void
    resetStats()
    {
        flitsBase = flits_;
        dramBase = vaults.servicedReads() + vaults.servicedWrites();
    }

    void setObserver(ModuleObserver *o) { observer = o; }

    const VaultSet &vaultSet() const { return vaults; }

  private:
    void onVaultDone(std::uint64_t tag, bool is_read, Tick now);

    Network &net;
    EventQueue &eq;
    const int id_;
    const Radix radix_;
    VaultSet vaults;
    ModuleObserver *observer = nullptr;

    std::uint64_t flits_ = 0;
    std::uint64_t flitsBase = 0;
    std::uint64_t dramBase = 0;
    std::uint64_t dramReadsDone = 0;
    int readsInFlight = 0;
};

} // namespace memnet

#endif // MEMNET_NET_MODULE_HH
