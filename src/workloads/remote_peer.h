/**
 * @file
 * Bare-metal peer machines for the cluster benches.
 *
 * The classic single-machine benches model the netperf/mutilate peer
 * as event handlers on the *same* EventQueue (NetFabric's far end).
 * These classes are the same peers promoted to real second Machines
 * driven through a CrossLink, for the parallel cluster engine:
 *
 *  - NetserverPeer  — fig7's netserver on a VirtMode::Native machine;
 *    purely event-driven (no driver thread needed), it reacts to
 *    tagged request packets: RR requests are echoed after the peer
 *    turnaround time, STREAM segments are acknowledged cumulatively.
 *  - ClusterNetperf — the netperf client in the guest, identical to
 *    Netperf except the peer lives across a CrossLink, so requests
 *    carry a wire tag telling the remote netserver what to do.
 *  - MutilateClient — fig8's open-loop load generator on a Native
 *    machine (a synchronous cluster driver: arrivals are events, the
 *    driver just idles the machine to the end of the run).
 *  - MemcachedServer — fig8's serving loop alone (the client half of
 *    MemcachedBench removed); a synchronous cluster driver on the
 *    virtualized machine.
 *
 * The timing structure is identical to the NetFabric versions: a
 * request sent at t arrives at t + serialization + latency, the peer
 * turns it around, and the response lands after its own
 * serialization + latency. Only the event-queue *ownership* moved.
 */

#ifndef SVTSIM_WORKLOADS_REMOTE_PEER_H
#define SVTSIM_WORKLOADS_REMOTE_PEER_H

#include <cstdint>

#include "hv/virt_stack.h"
#include "io/net_port.h"
#include "io/virtio_net.h"
#include "sim/random.h"
#include "workloads/memcached.h"
#include "workloads/netperf.h"

namespace svtsim {

/**
 * Wire tags for cross-machine netperf requests. The top byte of the
 * packet payload selects the peer behavior; the low bits carry the
 * request parameter. (The single-machine Netperf needs no tags — its
 * peer handler is installed per run.)
 */
namespace peerwire {

constexpr std::uint64_t rrTag = 1;
constexpr std::uint64_t streamTag = 2;

/** RR request: the peer echoes @p resp_bytes after its turnaround. */
inline std::uint64_t
rrRequest(std::uint32_t resp_bytes)
{
    return (rrTag << 56) | resp_bytes;
}

/** STREAM segment: the peer acks every @p ack_every segments. */
inline std::uint64_t
streamSegment(std::uint32_t ack_every)
{
    return (streamTag << 56) | ack_every;
}

inline std::uint64_t
tagOf(std::uint64_t payload)
{
    return payload >> 56;
}

inline std::uint64_t
argOf(std::uint64_t payload)
{
    return payload & ((std::uint64_t{1} << 56) - 1);
}

} // namespace peerwire

/**
 * The netserver process on a bare-metal peer machine. Install it on
 * the peer's end of the CrossLink; it needs no cluster driver (every
 * reaction is an event on the peer's own queue).
 */
class NetserverPeer
{
  public:
    NetserverPeer(Machine &machine, NetPort &port);

    /** Segments received so far (tests/diagnostics). */
    std::uint64_t received() const { return received_; }

  private:
    void onRequest(NetPacket pkt);

    Machine &machine_;
    NetPort &port_;
    std::uint64_t received_ = 0;
    /** STREAM segments seen (the cumulative-ack counter). */
    std::uint64_t streamRxed_ = 0;
};

/**
 * The netperf client in the guest, peered with a NetserverPeer across
 * a CrossLink. Run from the client machine's cluster driver.
 */
class ClusterNetperf
{
  public:
    ClusterNetperf(VirtStack &stack, VirtioNetStack &net);

    /** TCP_RR against the remote netserver (see Netperf::runRr). */
    NetperfRrResult runRr(std::uint32_t req_bytes,
                          std::uint32_t resp_bytes, int transactions);

    /** TCP_STREAM against the remote netserver (see
     *  Netperf::runStream). */
    NetperfStreamResult runStream(std::uint32_t seg_bytes,
                                  Ticks duration, int window = 128,
                                  int ack_every = 16);

  private:
    VirtStack &stack_;
    VirtioNetStack &net_;
};

/**
 * mutilate on a bare-metal client machine: one open-loop ETC flow
 * (OpenLoopEtcLoadgen) talking raw packets on its CrossLink end (no
 * virtio on bare metal), reported as a load point. The ETC request
 * sampling lives at the client, like real mutilate: the sampled value
 * size rides in the packet payload for the server to decode.
 */
class MutilateClient
{
  public:
    MutilateClient(Machine &machine, NetPort &port,
                   std::uint64_t seed = 42);

    /**
     * Offer @p qps for @p duration and idle the machine through the
     * run plus a drain grace period. Synchronous: call from the
     * client machine's cluster driver. Every call replays the arrival
     * stream from the constructor's seed.
     */
    MemcachedPoint runLoad(double qps, Ticks duration);

  private:
    Machine &machine_;
    NetPort &port_;
    std::uint64_t seed_;
};

/**
 * The memcached serving half of MemcachedBench alone: the in-guest
 * serving loop plus the L1-kernel housekeeping interference. The
 * load-proportional housekeeping (vhost bookkeeping on the paired L1
 * vCPU) is posted when a request is *received* — in the single-machine
 * model it was posted at the client's send, which is the same tick
 * stream shifted by the wire.
 */
class MemcachedServer
{
  public:
    /** Parameter semantics match MemcachedBench. */
    MemcachedServer(VirtStack &stack, VirtioNetStack &net,
                    std::uint64_t seed = 42,
                    double l1_housekeeping_rate_hz = 1000.0,
                    Ticks l1_housekeeping_cost = usec(14.5),
                    double l1_housekeeping_per_request = 0.9);

    /**
     * Serve until the machine clock reaches @p end, then drain the
     * backlog through a grace period. Synchronous: call from the
     * server machine's cluster driver. Returns requests served.
     */
    std::uint64_t serveUntil(Ticks end);

  private:
    struct Request
    {
        std::uint64_t id;
        bool get;
        std::uint32_t valueBytes;
    };

    void scheduleHousekeeping(Ticks end);

    VirtStack &stack_;
    VirtioNetStack &net_;
    Rng rng_;
    double housekeepingRate_;
    Ticks housekeepingCost_;
    double housekeepingPerRequest_;
    std::deque<Request> inbox_;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_REMOTE_PEER_H
