/**
 * @file
 * The 32 vaults of one HMC module behind a line-interleaved decoder.
 */

#ifndef MEMNET_DRAM_VAULT_SET_HH
#define MEMNET_DRAM_VAULT_SET_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/vault.hh"

namespace memnet
{

/**
 * Owns a module's vaults and decodes line addresses onto them
 * (line-interleaved per Table I).
 */
class VaultSet
{
  public:
    VaultSet(EventQueue &eq, const DramParams &params,
             Vault::Callback cb)
        : params(params)
    {
        vaults.reserve(params.vaults);
        for (int i = 0; i < params.vaults; ++i)
            vaults.push_back(std::make_unique<Vault>(eq, params, cb));
    }

    /** Vault index for an address (line-interleaved). */
    int
    vaultOf(std::uint64_t addr) const
    {
        return static_cast<int>(
            (addr / static_cast<unsigned>(params.lineBytes)) %
            static_cast<unsigned>(params.vaults));
    }

    void
    access(std::uint64_t addr, bool is_read, std::uint64_t tag)
    {
        vaults[vaultOf(addr)]->push(VaultRequest{addr, is_read, tag});
    }

    /** True if any vault is servicing or holding a read. */
    bool
    readsInFlight() const
    {
        for (const auto &v : vaults)
            if (v->readsInFlight())
                return true;
        return false;
    }

    std::uint64_t
    servicedReads() const
    {
        std::uint64_t n = 0;
        for (const auto &v : vaults)
            n += v->servicedReads();
        return n;
    }

    std::uint64_t
    servicedWrites() const
    {
        std::uint64_t n = 0;
        for (const auto &v : vaults)
            n += v->servicedWrites();
        return n;
    }

    const Vault &vault(int i) const { return *vaults[i]; }
    int numVaults() const { return params.vaults; }

  private:
    const DramParams &params;
    std::vector<std::unique_ptr<Vault>> vaults;
};

} // namespace memnet

#endif // MEMNET_DRAM_VAULT_SET_HH
