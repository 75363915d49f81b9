#include "net/module.hh"

#include "net/network.hh"
#include "sim/log.hh"

namespace memnet
{

Module::Module(Network &net, EventQueue &eq, int id, Radix radix,
               const DramParams &dram_params)
    : net(net),
      eq(eq),
      id_(id),
      radix_(radix),
      vaults(eq, dram_params,
             [this](std::uint64_t tag, bool is_read, Tick now) {
                 onVaultDone(tag, is_read, now);
             })
{
}

void
Module::accept(Packet *pkt, Tick now)
{
    flits_ += static_cast<std::uint64_t>(pkt->flits);

    if (pkt->type == PacketType::ReadResp) {
        // Forwarded up from a child's response link.
        net.responseLink(id_).enqueue(pkt);
        return;
    }

    if (pkt->homeModule == id_) {
        const bool is_read = pkt->type == PacketType::ReadReq;
        if (is_read) {
            ++readsInFlight;
            if (observer)
                observer->onDramRead(*this, now);
        }
        vaults.access(pkt->addr, is_read,
                      reinterpret_cast<std::uint64_t>(pkt));
        return;
    }

    // Route toward the home module: next hop along the path.
    const auto &path = net.pathOf(pkt->homeModule);
    ++pkt->hop;
    memnet_assert(pkt->hop < static_cast<int>(path.size()),
                  "request overran its path");
    net.requestLink(path[pkt->hop]).enqueue(pkt);
}

void
Module::onVaultDone(std::uint64_t tag, bool is_read, Tick now)
{
    if (!is_read) {
        net.host()->writeRetired(reinterpret_cast<Packet *>(tag), now);
        return;
    }
    Packet *pkt = reinterpret_cast<Packet *>(tag);
    ++dramReadsDone;
    --readsInFlight;
    if (readsInFlight == 0 && observer)
        observer->onDramIdle(*this, now);

    // Turn the request into a 5-flit response and send it upstream;
    // the vault-to-link crossing traverses the router once more.
    pkt->type = PacketType::ReadResp;
    pkt->flits = flitsFor(PacketType::ReadResp);
    flits_ += static_cast<std::uint64_t>(pkt->flits);
    net.responseLink(id_).enqueue(pkt);
}

} // namespace memnet
