/**
 * @file
 * Tests for the conservative parallel cluster engine and its
 * supporting layers: the EventQueue horizon fast path, the WorkerPool
 * bulk-submit path, CrossLink ordering/latency properties, and the
 * headline determinism contract — a cluster run is byte-identical for
 * any worker count, including under fault injection, with errors from
 * driver fibers contained and rethrown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/cross_link.h"
#include "io/virtio_net.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/worker_pool.h"
#include "system/cluster.h"
#include "system/nested_system.h"
#include "workloads/remote_peer.h"

namespace svtsim {
namespace {

// ---------------------------------------------------------------------
// EventQueue::runUntilTick (the cluster window drain fast path).

TEST(RunUntilTick, FiresStrictlyBelowLimitOnly)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(99, [&] { fired.push_back(2); });
    q.schedule(100, [&] { fired.push_back(3); });
    q.schedule(150, [&] { fired.push_back(4); });

    EXPECT_EQ(q.runUntilTick(100), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    // The clock stays at the last fired event, not at the limit.
    EXPECT_EQ(q.now(), 99);

    EXPECT_EQ(q.runUntilTick(1000), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 150);
}

TEST(RunUntilTick, EventsScheduledDuringDrainRun)
{
    EventQueue q;
    int count = 0;
    // A chain that re-schedules itself inside the window.
    std::function<void()> chain = [&] {
        ++count;
        if (count < 5)
            q.scheduleIn(10, [&] { chain(); });
    };
    q.schedule(10, [&] { chain(); });
    q.runUntilTick(100);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50);
}

TEST(RunUntilTick, EmptyWindowIsANoOp)
{
    EventQueue q;
    q.schedule(500, [] {});
    EXPECT_EQ(q.runUntilTick(100), 0u);
    EXPECT_EQ(q.now(), 0);
    EXPECT_EQ(q.nextEventTime(), 500);
}

// ---------------------------------------------------------------------
// WorkerPool::runTasks (the zero-alloc epoch submit path).

TEST(WorkerPoolRunTasks, RunsEveryBorrowedSlotAndIsReusable)
{
    WorkerPool pool(3);
    std::atomic<int> counter{0};
    std::vector<std::function<void()>> slots;
    for (int i = 0; i < 8; ++i)
        slots.push_back([&counter] { ++counter; });
    std::vector<std::function<void()> *> ptrs;
    for (auto &s : slots)
        ptrs.push_back(&s);

    pool.runTasks(ptrs.data(), ptrs.size());
    EXPECT_EQ(counter.load(), 8);
    // Slots are reusable across windows without re-allocation.
    pool.runTasks(ptrs.data(), ptrs.size());
    EXPECT_EQ(counter.load(), 16);
    // Empty bulk submit returns immediately.
    pool.runTasks(ptrs.data(), 0);
    EXPECT_EQ(counter.load(), 16);
}

TEST(WorkerPoolRunTasks, MixesWithSubmit)
{
    WorkerPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    std::function<void()> task = [&counter] { counter += 10; };
    std::function<void()> *ptr = &task;
    pool.runTasks(&ptr, 1);
    pool.wait();
    EXPECT_EQ(counter.load(), 11);
}

// ---------------------------------------------------------------------
// CrossLink wire properties.

TEST(CrossLink, DeliveryRespectsSerializationPlusLatency)
{
    NestedSystem sysA(VirtMode::Native);
    NestedSystem sysB(VirtMode::Native);
    const Ticks latency = usec(5);
    const double rate = 10e9;
    CrossLink link(sysA.machine(), 0, sysB.machine(), 1, latency,
                   rate);

    std::vector<Ticks> arrivals;
    std::vector<std::uint64_t> ids;
    link.port(1).setReceiveHandler([&](NetPacket pkt) {
        arrivals.push_back(sysB.machine().now());
        ids.push_back(pkt.id);
    });

    const std::uint32_t bytes = 1000;
    const Ticks ser = link.port(0).serialization(bytes);
    ASSERT_GT(ser, 0);
    // Two back-to-back sends: the second queues behind the first's
    // serialization (the wire is busy), both cross the latency.
    link.port(0).send(NetPacket{1, bytes, 0});
    link.port(0).send(NetPacket{2, bytes, 0});
    EXPECT_EQ(link.stagedCount(), 2u);

    link.deliverStaged();
    sysB.machine().events().runUntilTick(maxTick);

    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(arrivals[0], ser + latency);
    EXPECT_EQ(arrivals[1], 2 * ser + latency);
}

TEST(CrossLink, FifoPerDirectionUnderRandomSends)
{
    NestedSystem sysA(VirtMode::Native, {}, 11);
    NestedSystem sysB(VirtMode::Native, {}, 12);
    CrossLink link(sysA.machine(), 0, sysB.machine(), 1, usec(3),
                   10e9);

    std::vector<std::uint64_t> got;
    std::vector<Ticks> when;
    link.port(1).setReceiveHandler([&](NetPacket pkt) {
        got.push_back(pkt.id);
        when.push_back(sysB.machine().now());
    });

    Rng rng(99);
    std::uint64_t id = 0;
    for (int round = 0; round < 20; ++round) {
        // Source machine advances between bursts; sizes vary, so
        // serialization times differ per packet.
        sysA.machine().events().scheduleIn(
            nsec(50 + static_cast<Ticks>(rng.below(2000))), [] {});
        sysA.machine().events().runUntilTick(maxTick);
        int burst = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < burst; ++i)
            link.port(0).send(NetPacket{
                id++,
                64 + static_cast<std::uint32_t>(rng.below(9000)), 0});
    }
    link.deliverStaged();
    sysB.machine().events().runUntilTick(maxTick);

    ASSERT_EQ(got.size(), id);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], i); // FIFO: ids in send order
    for (std::size_t i = 1; i < when.size(); ++i)
        EXPECT_LE(when[i - 1], when[i]); // arrivals monotone
}

TEST(CrossLink, CanonicalMergeOrdersAcrossLinks)
{
    NestedSystem hub(VirtMode::Native);
    NestedSystem peer1(VirtMode::Native);
    NestedSystem peer2(VirtMode::Native);
    // Same latency/rate: equal-size packets from both peers collide
    // on the same arrival tick, forcing the src-id tie break.
    CrossLink l1(peer1.machine(), 1, hub.machine(), 0, usec(2), 10e9);
    CrossLink l2(peer2.machine(), 2, hub.machine(), 0, usec(2), 10e9);

    std::vector<std::pair<Ticks, std::uint64_t>> seen;
    auto handler = [&](NetPacket pkt) {
        seen.emplace_back(hub.machine().now(), pkt.id);
    };
    l1.port(1).setReceiveHandler(handler);
    l2.port(1).setReceiveHandler(handler);

    l2.port(0).send(NetPacket{20, 500, 0});
    l1.port(0).send(NetPacket{10, 500, 0});

    std::vector<CrossLink::Delivery> staged;
    l1.drainStaged(staged);
    l2.drainStaged(staged);
    std::stable_sort(staged.begin(), staged.end(),
                     CrossLink::canonicalLess);
    ASSERT_EQ(staged.size(), 2u);
    // Identical arrival tick: the lower src machine id delivers first.
    EXPECT_EQ(staged[0].arrival, staged[1].arrival);
    EXPECT_EQ(staged[0].srcId, 1);
    EXPECT_EQ(staged[1].srcId, 2);
    for (const auto &d : staged)
        d.link->deliver(d);
    hub.machine().events().runUntilTick(maxTick);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].second, 10u);
    EXPECT_EQ(seen[1].second, 20u);
}

TEST(CrossLink, IntegerSerializationMatchesExactRate)
{
    // (bytes + framing) * 8 bits at 10 GbE: exact picosecond math,
    // no double rounding (platform determinism).
    EXPECT_EQ(netlink::serializationTicks(1000, 10'000'000'000LL),
              Ticks{(1000 + 78) * 8 * 100});
    EXPECT_EQ(netlink::serializationTicks(0, 10'000'000'000LL),
              Ticks{78 * 8 * 100});
    EXPECT_EQ(netlink::serializationTicks(1522, 40'000'000'000LL),
              Ticks{(1522 + 78) * 8 * 25});
}

// ---------------------------------------------------------------------
// Cluster engine: determinism across worker counts.

/** A three-machine raw ping-pong: one driver machine round-robins
 *  requests to two echo peers over links of *different* latencies, so
 *  epochs interleave staged traffic from both. Returns a fingerprint
 *  covering clocks, counters and epoch statistics. */
std::string
pingPongFingerprint(int jobs, const std::string &faults = "")
{
    Cluster cluster(17);
    int a = cluster.addMachine("driver", VirtMode::Native);
    int b = cluster.addMachine("echo1", VirtMode::Native);
    int c = cluster.addMachine("echo2", VirtMode::Native);
    CrossLink &l1 = cluster.connect(a, b, usec(3), 10e9);
    CrossLink &l2 = cluster.connect(a, c, usec(7), 10e9);

    NetserverPeer p1(cluster.machine(b), l1.port(1));
    NetserverPeer p2(cluster.machine(c), l2.port(1));

    if (!faults.empty())
        cluster.installFaultPlan(FaultPlan::parse(faults));

    std::uint64_t got1 = 0, got2 = 0;
    l1.port(0).setReceiveHandler([&](NetPacket) { ++got1; });
    l2.port(0).setReceiveHandler([&](NetPacket) { ++got2; });

    cluster.setDriver(a, [&](NestedSystem &sys) {
        Machine &m = sys.machine();
        for (int round = 0; round < 25; ++round) {
            std::uint64_t want1 = got1 + 1, want2 = got2 + 1;
            l1.port(0).send(NetPacket{
                static_cast<std::uint64_t>(round), 200,
                peerwire::rrRequest(100)});
            l2.port(0).send(NetPacket{
                static_cast<std::uint64_t>(round), 900,
                peerwire::rrRequest(60)});
            while (got1 < want1 || got2 < want2)
                m.idleUntil(m.now() + usec(50));
        }
    });

    ClusterStats stats = cluster.run(jobs);

    std::ostringstream fp;
    fp << got1 << ":" << got2 << " epochs=" << stats.epochs
       << " steps=" << stats.steps << " merged=" << stats.merged;
    for (int i = 0; i < cluster.size(); ++i)
        fp << " t" << i << "=" << cluster.machine(i).now();
    fp << " d1=" << l1.delivered(0) << "," << l1.delivered(1)
       << " d2=" << l2.delivered(0) << "," << l2.delivered(1);
    return fp.str();
}

TEST(Cluster, PingPongByteIdenticalAcrossWorkerCounts)
{
    const std::string seq = pingPongFingerprint(1);
    EXPECT_NE(seq.find("epochs="), std::string::npos);
    EXPECT_EQ(seq, pingPongFingerprint(2));
    EXPECT_EQ(seq, pingPongFingerprint(3));
    EXPECT_EQ(seq, pingPongFingerprint(8));
}

TEST(Cluster, FaultInjectionStaysDeterministicThroughClusterPath)
{
    const std::string spec =
        "virtio.completion.delay@p0.3,d40us;ipi.delay@p0.1,d3us";
    const std::string seq = pingPongFingerprint(1, spec);
    EXPECT_EQ(seq, pingPongFingerprint(3, spec));
    // The injected delays must actually change the simulation.
    EXPECT_NE(seq, pingPongFingerprint(1));
}

/** The full nested stack through the cluster: a virtualized client
 *  machine running netperf RR against a bare-metal NetserverPeer. */
std::string
nestedRrFingerprint(int jobs, VirtMode mode)
{
    Cluster cluster(5);
    int c = cluster.addMachine("client", mode);
    int p = cluster.addMachine("peer", VirtMode::Native);
    CrossLink &link = cluster.connect(
        c, p, cluster.machine(c).costs().wireLatency,
        cluster.machine(c).costs().linkBitsPerSec);

    VirtioNetStack net(cluster.system(c).stack(), link.port(0));
    NetserverPeer peer(cluster.machine(p), link.port(1));
    Netperf netperf(cluster.system(c).stack(), net);

    NetperfRrResult rr;
    cluster.setDriver(c, [&](NestedSystem &) {
        rr = netperf.runRr(1, 1, 15);
    });
    ClusterStats stats = cluster.run(jobs);

    std::ostringstream fp;
    fp.precision(17);
    fp << rr.meanUsec << "/" << rr.p99Usec << "/" << rr.transactions
       << " epochs=" << stats.epochs << " merged=" << stats.merged
       << " t0=" << cluster.machine(0).now()
       << " t1=" << cluster.machine(1).now();
    return fp.str();
}

TEST(Cluster, NestedStackRrIdenticalAcrossWorkerCounts)
{
    for (VirtMode mode : {VirtMode::Nested, VirtMode::SwSvt}) {
        const std::string seq = nestedRrFingerprint(1, mode);
        EXPECT_EQ(seq, nestedRrFingerprint(2, mode)) << "mode "
            << virtModeName(mode);
    }
}

TEST(Cluster, FollowerOnlyClusterDrainsAndTerminates)
{
    // No drivers at all: machines just run their queued events; the
    // run ends when every queue is empty.
    Cluster cluster(3);
    int a = cluster.addMachine("a", VirtMode::Native);
    int b = cluster.addMachine("b", VirtMode::Native);
    CrossLink &link = cluster.connect(a, b, usec(1), 10e9);

    std::uint64_t got = 0;
    link.port(1).setReceiveHandler([&](NetPacket) { ++got; });
    cluster.machine(a).events().schedule(usec(10), [&] {
        link.port(0).send(NetPacket{1, 100, 0});
    });
    cluster.machine(b).events().schedule(usec(2), [] {});

    ClusterStats stats = cluster.run(2);
    EXPECT_EQ(got, 1u);
    EXPECT_GE(stats.merged, 1u);
    EXPECT_GT(cluster.machine(b).now(), usec(10));
}

TEST(Cluster, DriverErrorIsContainedAndRethrown)
{
    Cluster cluster(1);
    int a = cluster.addMachine("boom", VirtMode::Native);
    int b = cluster.addMachine("quiet", VirtMode::Native);
    cluster.connect(a, b, usec(1), 10e9);
    cluster.setDriver(a, [](NestedSystem &sys) {
        sys.machine().idleUntil(usec(5));
        throw SimError("deliberate driver failure");
    });
    cluster.setDriver(b, [](NestedSystem &sys) {
        sys.machine().idleUntil(msec(1));
    });
    EXPECT_THROW(
        {
            try {
                cluster.run(2);
            } catch (const SimError &e) {
                EXPECT_NE(std::string(e.what())
                              .find("deliberate driver failure"),
                          std::string::npos);
                throw;
            }
        },
        SimError);
}

TEST(Cluster, DriverRunsOnSteppingThread)
{
    // A driver is part of its machine's epoch step: with jobs = 1
    // every step, setup code included, runs on run()'s caller.
    Cluster cluster(1);
    int a = cluster.addMachine("a", VirtMode::Native);
    int b = cluster.addMachine("b", VirtMode::Native);
    cluster.connect(a, b, usec(1), 10e9);
    std::vector<std::thread::id> seen;
    for (int id : {a, b})
        cluster.setDriver(id, [&seen](NestedSystem &sys) {
            Machine &m = sys.machine();
            seen.push_back(std::this_thread::get_id());
            // Each wait crosses the granted horizon, so it parks.
            for (int k = 1; k <= 5; ++k) {
                while (m.now() < usec(k))
                    m.idleUntil(usec(k));
                seen.push_back(std::this_thread::get_id());
            }
        });
    cluster.run(1);
    EXPECT_EQ(seen.size(), 12u);
    for (const std::thread::id &id : seen)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Cluster, ParkedDriverUnwindsWhenAnotherThrows)
{
    struct SetOnExit
    {
        bool &flag;
        ~SetOnExit() { flag = true; }
    };
    for (int jobs : {1, 2}) {
        Cluster cluster(1);
        int a = cluster.addMachine("boom", VirtMode::Native);
        int b = cluster.addMachine("parked", VirtMode::Native);
        cluster.connect(a, b, usec(1), 10e9);
        cluster.setDriver(a, [](NestedSystem &sys) {
            sys.machine().idleUntil(usec(5));
            throw SimError("deliberate driver failure");
        });
        bool unwound = false;
        cluster.setDriver(b, [&unwound](NestedSystem &sys) {
            SetOnExit guard{unwound};
            Machine &m = sys.machine();
            while (m.now() < msec(1))
                m.idleUntil(msec(1));
        });
        EXPECT_THROW(cluster.run(jobs), SimError) << "jobs=" << jobs;
        EXPECT_TRUE(unwound) << "jobs=" << jobs;
    }
}

TEST(Cluster, RunIsOnceOnly)
{
    Cluster cluster(1);
    cluster.addMachine("solo", VirtMode::Native);
    cluster.run(1);
    EXPECT_THROW(cluster.run(1), PanicError);
}

} // namespace
} // namespace svtsim
