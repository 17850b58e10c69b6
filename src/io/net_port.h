/**
 * @file
 * Wire-side abstraction of a network attachment point.
 *
 * A NetPort is what a NIC model (VirtioNetStack) or a bare-metal
 * workload plugs into: transmit toward the remote end, register one
 * receive handler. Every peer (NetserverPeer, OpenLoopEtcLoadgen, the
 * TPC-C client) is written against it. Two wires provide the ends:
 *
 *  - NetFabric: both ends live on the same Machine/EventQueue; the
 *    fabric is the local end and NetFabric::peer() the far end (the
 *    single-machine benches).
 *
 *  - CrossLink: the ends live on different Machines; delivery crosses
 *    event queues through the cluster engine's staged epoch merge.
 */

#ifndef SVTSIM_IO_NET_PORT_H
#define SVTSIM_IO_NET_PORT_H

#include <cstdint>
#include <functional>

#include "sim/ticks.h"

namespace svtsim {

/** One packet on the wire. */
struct NetPacket
{
    std::uint64_t id = 0;
    std::uint32_t bytes = 0;
    std::uint64_t payload = 0;
};

/** One end of a point-to-point link. */
class NetPort
{
  public:
    virtual ~NetPort() = default;

    /** Transmit toward the remote end of the wire. */
    virtual void send(const NetPacket &pkt) = 0;

    /**
     * Install the receive handler for packets arriving at this end.
     * The handler is stored once and invoked in event context per
     * delivered packet; it is not copied on the delivery hot path.
     */
    virtual void setReceiveHandler(std::function<void(NetPacket)> handler) = 0;

    /** Serialization time of @p bytes at link rate (with framing). */
    virtual Ticks serialization(std::uint32_t bytes) const = 0;
};

namespace netlink {

/** Ethernet + IP + TCP framing per segment. */
constexpr std::uint32_t framingBytes = 78;

/**
 * Serialization delay of a frame on a link of @p bitsPerSec, as an
 * exact integer computation: ticks are picoseconds, so
 * bits * 10^12 / rate with 128-bit intermediate — no double rounding
 * whose last ulp could differ across platforms/FPU modes and break
 * cross-host byte-identity of link timing.
 */
inline Ticks
serializationTicks(std::uint32_t bytes, std::int64_t bitsPerSec)
{
    const auto bits =
        static_cast<unsigned __int128>(bytes + framingBytes) * 8u;
    return static_cast<Ticks>(
        bits * 1000000000000ull /
        static_cast<unsigned __int128>(bitsPerSec));
}

} // namespace netlink

} // namespace svtsim

#endif // SVTSIM_IO_NET_PORT_H
