/**
 * @file
 * The paper's bare-metal peers (Table 4's second box) and the guest
 * workloads that talk to them, all written against NetPort. A peer
 * attaches to a NetPort end: fabric.peer() when it shares the
 * device-under-test's Machine (the single-machine benches), or a
 * CrossLink end when it is a real second Machine on the parallel
 * cluster engine. The timing structure is the same either way: a
 * request sent at t arrives at t + serialization + latency, the peer
 * turns it around, and the response lands after its own
 * serialization + latency.
 *
 *  - NetserverPeer  — fig7's netserver; purely event-driven (no
 *    cluster driver needed), it reacts to tagged request packets: RR
 *    requests are echoed after the peer turnaround time, STREAM
 *    segments are acknowledged cumulatively per connection.
 *  - Netperf        — the netperf client in the guest (Section 6.2
 *    TCP_RR / TCP_STREAM); requests carry a wire tag telling the
 *    netserver what to do.
 *  - MutilateClient — fig8's open-loop load generator on a Native
 *    machine (a synchronous cluster driver: arrivals are events, the
 *    driver just idles the machine to the end of the run).
 *  - MemcachedServer — fig8's in-guest serving loop plus the L1-kernel
 *    housekeeping interference (Section 6.3.1).
 */

#ifndef SVTSIM_WORKLOADS_REMOTE_PEER_H
#define SVTSIM_WORKLOADS_REMOTE_PEER_H

#include <cstdint>
#include <deque>

#include "hv/virt_stack.h"
#include "io/net_port.h"
#include "io/virtio_net.h"
#include "sim/random.h"
#include "workloads/memcached.h"

namespace svtsim {

/** Result of a request/response (TCP_RR) run. */
struct NetperfRrResult
{
    double meanUsec = 0;
    double p99Usec = 0;
    std::uint64_t transactions = 0;
};

/** Result of a bulk-transfer (TCP_STREAM) run. */
struct NetperfStreamResult
{
    double mbps = 0;
    std::uint64_t segments = 0;
};

/**
 * Wire tags for netperf requests. The top byte of the packet payload
 * selects the peer behavior; the low bits carry the request
 * parameter.
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

/** Largest STREAM ack interval a segment can carry (24 bits). */
constexpr int maxAckEvery = (1 << 24) - 1;

/**
 * STREAM segment of connection @p conn (netperf opens one per run):
 * the peer acks every @p ack_every segments of that connection.
 */
inline std::uint64_t
streamSegment(std::uint32_t ack_every, std::uint32_t conn)
{
    return (streamTag << 56) | (std::uint64_t{conn} << 24) | ack_every;
}

/** The peer's cumulative ack of @p segments on connection @p conn. */
inline std::uint64_t
streamAck(std::uint32_t conn, std::uint64_t segments)
{
    return (std::uint64_t{conn} << 32) | segments;
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

inline std::uint32_t
segmentConnOf(std::uint64_t segment)
{
    return static_cast<std::uint32_t>(argOf(segment) >> 24);
}

inline std::uint32_t
ackEveryOf(std::uint64_t segment)
{
    return static_cast<std::uint32_t>(segment & maxAckEvery);
}

inline std::uint32_t
ackConnOf(std::uint64_t ack)
{
    return static_cast<std::uint32_t>(ack >> 32);
}

inline std::uint64_t
ackedOf(std::uint64_t ack)
{
    return ack & 0xffffffffu;
}

} // namespace peerwire

/**
 * The netserver process on a bare-metal peer machine. Install it on
 * the peer's NetPort end (fabric.peer() or a CrossLink end); it needs
 * no cluster driver (every reaction is an event on the peer's own
 * queue).
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
    /** The current STREAM connection and its segment count (the
     *  cumulative-ack counter). */
    std::uint32_t streamConn_ = 0;
    std::uint64_t streamRxed_ = 0;
};

/**
 * The netperf client in the guest, peered with a NetserverPeer on the
 * far end of the VirtioNetStack's wire. Synchronous: call from the
 * client machine's driver.
 */
class Netperf
{
  public:
    Netperf(VirtStack &stack, VirtioNetStack &net);

    /**
     * TCP_RR: @p transactions request/response rounds of
     * @p req_bytes / @p resp_bytes (plus one unmeasured warm-up).
     */
    NetperfRrResult runRr(std::uint32_t req_bytes,
                          std::uint32_t resp_bytes, int transactions);

    /**
     * TCP_STREAM: transmit @p seg_bytes segments for @p duration with
     * a send window of @p window segments; the peer acknowledges
     * every @p ack_every segments (delayed-ack + NIC coalescing).
     */
    NetperfStreamResult runStream(std::uint32_t seg_bytes,
                                  Ticks duration, int window = 128,
                                  int ack_every = 16);

  private:
    VirtStack &stack_;
    VirtioNetStack &net_;
    /** STREAM runs so far; each run is connection streamConns_. */
    std::uint32_t streamConns_ = 0;
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
 * The in-guest memcached serving loop plus the L1-kernel housekeeping
 * interference. The load-proportional housekeeping (vhost bookkeeping
 * on the paired L1 vCPU) is posted when a request is received.
 */
class MemcachedServer
{
  public:
    /**
     * @param l1_housekeeping_rate_hz Background rate of L1-kernel
     *        housekeeping (scheduler ticks, RCU) interfering with the
     *        serving vCPU (0 disables).
     * @param l1_housekeeping_cost Cost of each event.
     * @param l1_housekeeping_per_request Load-proportional L1 work in
     *        events per request. Serviced serially in the baseline;
     *        overlapped by the SVt-thread in SW SVt.
     */
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

    /**
     * Single-machine memcached: serve one open-loop mutilate flow
     * (OpenLoopEtcLoadgen seeded 42, like MutilateClient) offering
     * @p qps for @p duration from @p client_port, the far end of this
     * server's wire on the same Machine (NetFabric::peer()).
     */
    MemcachedPoint serveLocalLoad(NetPort &client_port, double qps,
                                  Ticks duration);

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
