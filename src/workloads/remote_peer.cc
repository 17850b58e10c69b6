#include "workloads/remote_peer.h"

#include <algorithm>

#include "sim/log.h"
#include "stats/summary.h"
#include "workloads/guest_os.h"
#include "workloads/tenant_drivers.h"

namespace svtsim {

NetserverPeer::NetserverPeer(Machine &machine, NetPort &port)
    : machine_(machine), port_(port)
{
    port_.setReceiveHandler(
        [this](NetPacket pkt) { onRequest(pkt); });
}

void
NetserverPeer::onRequest(NetPacket pkt)
{
    ++received_;
    switch (peerwire::tagOf(pkt.payload)) {
      case peerwire::rrTag: {
        const auto resp_bytes =
            static_cast<std::uint32_t>(peerwire::argOf(pkt.payload));
        machine_.events().scheduleIn(
            machine_.costs().remotePeerTurnaround,
            [this, pkt, resp_bytes] {
                port_.send(NetPacket{pkt.id, resp_bytes, pkt.payload});
            },
            "netserver-rr");
        break;
      }
      case peerwire::streamTag: {
        const std::uint32_t conn = peerwire::segmentConnOf(pkt.payload);
        const std::uint32_t ack_every = peerwire::ackEveryOf(pkt.payload);
        if (ack_every == 0)
            panic("NetserverPeer: STREAM segment with ack_every=0");
        if (conn != streamConn_) {
            // Each STREAM run opens a new connection; a straggler of
            // an older one is dropped.
            if (conn < streamConn_)
                break;
            streamConn_ = conn;
            streamRxed_ = 0;
        }
        ++streamRxed_;
        if (streamRxed_ % ack_every == 0) {
            // Delayed ack + NIC interrupt moderation.
            const std::uint64_t acked = streamRxed_;
            machine_.events().scheduleIn(
                usec(2),
                [this, conn, acked] {
                    port_.send(NetPacket{acked, 60,
                                         peerwire::streamAck(conn, acked)});
                },
                "netserver-ack");
        }
        break;
      }
      default:
        panic("NetserverPeer: packet with unknown wire tag %llu",
              static_cast<unsigned long long>(
                  peerwire::tagOf(pkt.payload)));
    }
}

Netperf::Netperf(VirtStack &stack, VirtioNetStack &net)
    : stack_(stack), net_(net)
{
}

NetperfRrResult
Netperf::runRr(std::uint32_t req_bytes, std::uint32_t resp_bytes,
               int transactions)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();

    std::uint64_t received = 0;
    net_.setRxHandler([&](NetPacket) { ++received; });

    Percentiles lat;
    const std::uint64_t payload = peerwire::rrRequest(resp_bytes);
    // One warm-up transaction outside the measurement.
    int total = transactions + 1;
    for (int i = 0; i < total; ++i) {
        std::uint64_t want = received + 1;
        Ticks t0 = machine.now();
        net_.send(req_bytes, static_cast<std::uint64_t>(i), payload);
        GuestOs::idleWait(api, [&] { return received >= want; });
        if (i > 0)
            lat.add(toUsec(machine.now() - t0));
    }
    // The machine keeps running as a cluster follower after the
    // driver returns; nothing may reference this frame.
    net_.setRxHandler([](NetPacket) {});

    NetperfRrResult r;
    r.meanUsec = lat.mean();
    r.p99Usec = lat.p99();
    r.transactions = lat.count();
    return r;
}

NetperfStreamResult
Netperf::runStream(std::uint32_t seg_bytes, Ticks duration,
                   int window, int ack_every)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();
    if (window < ack_every)
        fatal("netperf stream window must cover the ack interval");
    if (ack_every <= 0 || ack_every > peerwire::maxAckEvery)
        fatal("netperf stream ack interval out of range");

    const std::uint32_t conn = ++streamConns_;
    std::uint64_t acked = 0;
    net_.setRxHandler([&](NetPacket pkt) {
        // Cumulative acknowledgement from the remote netserver; acks
        // of an earlier run's connection are ignored.
        if (peerwire::ackConnOf(pkt.payload) == conn &&
            peerwire::ackedOf(pkt.payload) > acked)
            acked = peerwire::ackedOf(pkt.payload);
    });

    const std::uint64_t payload = peerwire::streamSegment(
        static_cast<std::uint32_t>(ack_every), conn);
    Ticks end = machine.now() + duration;
    std::uint64_t sent = 0;
    while (machine.now() < end) {
        if (sent - acked < static_cast<std::uint64_t>(window)) {
            net_.send(seg_bytes, sent, payload);
            ++sent;
        } else {
            std::uint64_t limit = sent;
            GuestOs::idleWait(api, [&] {
                return machine.now() >= end ||
                       limit - acked <
                           static_cast<std::uint64_t>(window);
            });
        }
    }
    net_.setRxHandler([](NetPacket) {});

    NetperfStreamResult r;
    r.segments = acked;
    double bits = static_cast<double>(acked) *
                  static_cast<double>(seg_bytes) * 8.0;
    r.mbps = bits / toSec(duration) / 1e6;
    return r;
}

MutilateClient::MutilateClient(Machine &machine, NetPort &port,
                               std::uint64_t seed)
    : machine_(machine), port_(port), seed_(seed)
{
}

MemcachedPoint
MutilateClient::runLoad(double qps, Ticks duration)
{
    const Ticks t0 = machine_.now();
    OpenLoopEtcLoadgen gen(machine_, seed_);
    gen.addFlow(port_, qps);
    gen.run(duration);
    return gen.point(0, t0);
}

MemcachedServer::MemcachedServer(VirtStack &stack, VirtioNetStack &net,
                                 std::uint64_t seed,
                                 double l1_housekeeping_rate_hz,
                                 Ticks l1_housekeeping_cost,
                                 double l1_housekeeping_per_request)
    : stack_(stack), net_(net), rng_(seed),
      housekeepingRate_(l1_housekeeping_rate_hz),
      housekeepingCost_(l1_housekeeping_cost),
      housekeepingPerRequest_(l1_housekeeping_per_request)
{
}

void
MemcachedServer::scheduleHousekeeping(Ticks end)
{
    if (housekeepingRate_ <= 0)
        return;
    Machine &m = stack_.machine();
    Ticks gap = static_cast<Ticks>(
        rng_.exponential(1e12 / housekeepingRate_));
    Ticks when = m.now() + std::max<Ticks>(gap, 1);
    if (when >= end)
        return;
    m.events().schedule(when, [this, end] {
        stack_.postL1Housekeeping(housekeepingCost_);
        scheduleHousekeeping(end);
    }, "l1-housekeeping");
}

std::uint64_t
MemcachedServer::serveUntil(Ticks end)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();

    inbox_.clear();
    std::uint64_t served = 0;

    // Requests land in the connection inbox under the receive
    // interrupt; each also triggers the load-proportional L1-kernel
    // work (vhost bookkeeping on the paired vCPU).
    net_.setRxHandler([this](NetPacket pkt) {
        inbox_.push_back(Request{pkt.id, (pkt.payload & 1) != 0,
                                 static_cast<std::uint32_t>(
                                     pkt.payload >> 1)});
        double events = housekeepingPerRequest_;
        while (events >= 1.0 || rng_.chance(events)) {
            stack_.postL1Housekeeping(housekeepingCost_);
            events -= 1.0;
            if (events <= 0)
                break;
        }
    });
    scheduleHousekeeping(end);

    auto serve_one = [&] {
        Request req = inbox_.front();
        inbox_.pop_front();
        // Parse + hash lookup + LRU bookkeeping + value access.
        Ticks service = usec(1.6) +
                        static_cast<Ticks>(req.valueBytes) * psec(40);
        if (!req.get)
            service += usec(1.1); // allocation + store
        api.compute(service);
        std::uint32_t resp_bytes = req.get ? 28 + req.valueBytes : 28;
        net_.send(resp_bytes, req.id);
        ++served;
    };
    while (machine.now() < end) {
        if (inbox_.empty()) {
            GuestOs::idleWait(api, [&] {
                return !inbox_.empty() || machine.now() >= end;
            });
            continue;
        }
        serve_one();
    }
    // Drain the backlog and keep serving stragglers through a grace
    // period so late in-flight requests still get responses.
    while (!inbox_.empty())
        serve_one();
    Ticks grace = machine.now() + msec(5);
    GuestOs::idleWait(api, [&] {
        while (!inbox_.empty())
            serve_one();
        return machine.now() >= grace;
    });
    net_.setRxHandler([](NetPacket) {});
    return served;
}

MemcachedPoint
MemcachedServer::serveLocalLoad(NetPort &client_port, double qps,
                                Ticks duration)
{
    Machine &machine = stack_.machine();
    OpenLoopEtcLoadgen gen(machine, 42);
    gen.addFlow(client_port, qps);
    const Ticks t0 = machine.now();
    serveUntil(gen.start(duration));
    gen.stop();
    return gen.point(0, t0);
}

} // namespace svtsim
