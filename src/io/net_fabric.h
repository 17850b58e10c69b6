/**
 * @file
 * The physical network: a 10 GbE link between the device-under-test
 * machine and a bare-metal peer (Table 4's Intel X540-AT2).
 */

#ifndef SVTSIM_IO_NET_FABRIC_H
#define SVTSIM_IO_NET_FABRIC_H

#include <cstdint>
#include <functional>

#include "arch/machine.h"
#include "io/net_port.h"

namespace svtsim {

/**
 * Point-to-point link with propagation latency and serialization
 * bandwidth, both ends on one Machine. Serialization is modeled with
 * a per-direction "link free at" horizon, so back-to-back large
 * segments queue behind each other and the STREAM workloads saturate
 * at line rate.
 *
 * The fabric itself is the local end (what the DUT's NIC plugs into);
 * peer() is the far end. Both are NetPorts, so a bare-metal peer
 * (NetserverPeer, OpenLoopEtcLoadgen, ...) attaches to peer() exactly
 * as it would to a CrossLink end on a real second machine.
 */
class NetFabric : public NetPort
{
  public:
    NetFabric(Machine &machine, Ticks latency, double bits_per_sec);
    NetFabric(const NetFabric &) = delete;
    NetFabric &operator=(const NetFabric &) = delete;

    /** The far end of the wire, on the same Machine. */
    NetPort &peer() { return peer_; }

    // -- NetPort (the local end) ------------------------------------------
    void send(const NetPacket &pkt) override { transmit(pkt, dirs_[0]); }
    void
    setReceiveHandler(std::function<void(NetPacket)> handler) override
    {
        dirs_[1].handler = std::move(handler);
    }
    /** Serialization time of @p bytes at link rate (with framing). */
    Ticks serialization(std::uint32_t bytes) const override;

    std::uint64_t deliveredToPeer() const { return dirs_[0].delivered; }
    std::uint64_t deliveredToLocal() const { return dirs_[1].delivered; }

  private:
    /** One direction's state; delivery closures capture a pointer to
     *  this (plus the packet) instead of copying the handler. */
    struct Direction
    {
        Ticks freeAt = 0;
        std::function<void(NetPacket)> handler;
        std::uint64_t delivered = 0;
    };

    /** The far end: transmits peer -> local, receives local -> peer. */
    class FarEnd : public NetPort
    {
      public:
        explicit FarEnd(NetFabric &fabric) : fabric_(fabric) {}
        void
        send(const NetPacket &pkt) override
        {
            fabric_.transmit(pkt, fabric_.dirs_[1]);
        }
        void
        setReceiveHandler(std::function<void(NetPacket)> handler) override
        {
            fabric_.dirs_[0].handler = std::move(handler);
        }
        Ticks
        serialization(std::uint32_t bytes) const override
        {
            return fabric_.serialization(bytes);
        }

      private:
        NetFabric &fabric_;
    };

    void transmit(const NetPacket &pkt, Direction &dir);

    Machine &machine_;
    Ticks latency_;
    /** Link rate in bits/sec (integral; see netlink::serializationTicks). */
    std::int64_t bitsPerSec_;
    /** [0] local -> peer, [1] peer -> local. */
    Direction dirs_[2];
    FarEnd peer_{*this};
};

} // namespace svtsim

#endif // SVTSIM_IO_NET_FABRIC_H
