/**
 * @file
 * Tests for the workload generators: guest-OS idle, netperf, disk
 * benches, memcached/mutilate, TPC-C and video playback.
 */

#include <gtest/gtest.h>

#include "io/net_fabric.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "sim/log.h"
#include "system/cluster_spec.h"
#include "system/nested_system.h"
#include "workloads/diskbench.h"
#include "workloads/guest_os.h"
#include "workloads/microbench.h"
#include "workloads/remote_peer.h"
#include "workloads/tenant_drivers.h"
#include "workloads/tpcc.h"
#include "workloads/video.h"

namespace svtsim {
namespace {

// ------------------------------------------------------------- guest os

TEST(GuestOs, IdleWaitWakesPromptlyOnInterrupt)
{
    NestedSystem sys(VirtMode::Nested);
    bool flag = false;
    sys.stack().setIrqHandler(2, 0x80, [&] { flag = true; });
    sys.machine().events().scheduleIn(
        usec(120), [&] { sys.stack().raiseL2Irq(0x80); });
    Ticks t0 = sys.machine().now();
    GuestOs::idleWait(sys.api(), [&] { return flag; });
    EXPECT_TRUE(flag);
    Ticks waited = sys.machine().now() - t0;
    EXPECT_GE(waited, usec(120));
    // Woken by the interrupt, not by the 1 ms watchdog.
    EXPECT_LT(waited, usec(700));
}

TEST(GuestOs, IdleWaitFallsBackToWatchdog)
{
    // A condition that becomes true without any interrupt is only
    // noticed at the idle watchdog tick.
    NestedSystem sys(VirtMode::Nested);
    bool flag = false;
    sys.machine().events().scheduleIn(usec(120),
                                      [&] { flag = true; });
    Ticks t0 = sys.machine().now();
    GuestOs::idleWait(sys.api(), [&] { return flag; });
    Ticks waited = sys.machine().now() - t0;
    EXPECT_GE(waited, msec(1));
    EXPECT_LT(waited, msec(1.5));
}

TEST(GuestOs, IdleWaitReturnsImmediatelyWhenReady)
{
    NestedSystem sys(VirtMode::Nested);
    Ticks t0 = sys.machine().now();
    GuestOs::idleWait(sys.api(), [] { return true; });
    EXPECT_EQ(sys.machine().now(), t0);
}

TEST(GuestOs, WatchdogKeepsFiringOnLongWaits)
{
    NestedSystem sys(VirtMode::Nested);
    bool flag = false;
    sys.machine().events().scheduleIn(msec(3.5), [&] { flag = true; });
    GuestOs::idleWait(sys.api(), [&] { return flag; });
    EXPECT_TRUE(flag);
}

// ----------------------------------------------------------------- ETC

TEST(Etc, ValueSizesWithinCap)
{
    Rng rng(1);
    EtcWorkload etc;
    for (int i = 0; i < 20000; ++i) {
        auto v = etc.sampleValueSize(rng);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, etc.valueCap);
    }
}

TEST(Etc, MostRequestsAreGets)
{
    Rng rng(2);
    EtcWorkload etc;
    int gets = 0;
    for (int i = 0; i < 10000; ++i)
        gets += etc.isGet(rng);
    EXPECT_NEAR(gets / 10000.0, etc.getRatio, 0.02);
}

TEST(Etc, KeySizesInRange)
{
    Rng rng(3);
    EtcWorkload etc;
    for (int i = 0; i < 1000; ++i) {
        auto k = etc.sampleKeySize(rng);
        EXPECT_GE(k, etc.keyMin);
        EXPECT_LE(k, etc.keyMax);
    }
}

// -------------------------------------------------------------- netperf

/** netperf in the guest, netserver on the far end of the same
 *  machine's wire. */
struct NetRig
{
    explicit NetRig(VirtMode mode)
        : sys(mode),
          fabric(sys.machine(), sys.machine().costs().wireLatency,
                 sys.machine().costs().linkBitsPerSec),
          net(sys.stack(), fabric), peer(sys.machine(), fabric.peer()),
          netperf(sys.stack(), net)
    {
    }

    NestedSystem sys;
    NetFabric fabric;
    VirtioNetStack net;
    NetserverPeer peer;
    Netperf netperf;
};

TEST(Netperf, RrLatencyIsSane)
{
    NetRig rig(VirtMode::Nested);
    auto r = rig.netperf.runRr(1, 1, 20);
    EXPECT_EQ(r.transactions, 20u);
    // Must at least cover two wire crossings plus the peer.
    EXPECT_GT(r.meanUsec,
              2 * toUsec(rig.sys.machine().costs().wireLatency));
    EXPECT_LT(r.meanUsec, 400.0);
    EXPECT_GE(r.p99Usec, r.meanUsec);
}

TEST(Netperf, RrFasterWithSvt)
{
    NetRig base(VirtMode::Nested);
    NetRig sw(VirtMode::SwSvt);
    NetRig hw(VirtMode::HwSvt);
    double b = base.netperf.runRr(1, 1, 25).meanUsec;
    double s = sw.netperf.runRr(1, 1, 25).meanUsec;
    double h = hw.netperf.runRr(1, 1, 25).meanUsec;
    EXPECT_LT(s, b);
    EXPECT_LT(h, s);
}

TEST(Netperf, StreamApproachesLineRate)
{
    NetRig rig(VirtMode::Nested);
    auto r = rig.netperf.runStream(16384, msec(25));
    // 10 GbE: must exceed 8 Gb/s and stay below the raw line rate
    // plus a small accounting tolerance.
    EXPECT_GT(r.mbps, 8000.0);
    EXPECT_LT(r.mbps, 11000.0);
    EXPECT_GT(r.segments, 1000u);
}

TEST(Netperf, StreamRunsRepeatOnOnePeer)
{
    // Each run is its own connection: the second run's acks count
    // only its own segments, so it cannot report more than the first
    // (whose tail still occupies the wire when the second starts).
    NetRig rig(VirtMode::Nested);
    auto a = rig.netperf.runStream(16384, msec(25));
    auto b = rig.netperf.runStream(16384, msec(25));
    EXPECT_LE(b.segments, a.segments);
    EXPECT_GT(b.mbps, 8000.0);
}

TEST(Netperf, StreamWindowValidation)
{
    NetRig rig(VirtMode::Nested);
    EXPECT_THROW(rig.netperf.runStream(16384, msec(1), 4, 8),
                 FatalError);
    EXPECT_THROW(rig.netperf.runStream(16384, msec(1), 4, 0),
                 FatalError);
}

// ------------------------------------------------------------ diskbench

struct BlkRig
{
    explicit BlkRig(VirtMode mode)
        : sys(mode), disk(sys.machine(), "d"), blk(sys.stack(), disk)
    {
    }

    NestedSystem sys;
    RamDisk disk;
    VirtioBlkStack blk;
};

TEST(IoPing, ReadLatencyIsSane)
{
    BlkRig rig(VirtMode::Nested);
    IoPing ioping(rig.sys.stack(), rig.blk);
    auto r = ioping.run(512, false, 20);
    EXPECT_EQ(r.requests, 20u);
    EXPECT_GT(r.meanUsec,
              toUsec(rig.disk.serviceTime(512, false)));
    EXPECT_LT(r.meanUsec, 400.0);
}

TEST(IoPing, SyncWritesSlowerThanReads)
{
    BlkRig rig(VirtMode::Nested);
    IoPing ioping(rig.sys.stack(), rig.blk);
    double rd = ioping.run(512, false, 15).meanUsec;
    double wr = ioping.run(512, true, 15).meanUsec;
    // The O_SYNC flush roughly doubles the trap chain.
    EXPECT_GT(wr, rd * 1.5);
}

TEST(Fio, ThroughputScalesWithIodepth)
{
    BlkRig rig(VirtMode::Nested);
    Fio fio(rig.sys.stack(), rig.blk);
    auto qd1 = fio.run(4096, false, 1, msec(20));
    auto qd4 = fio.run(4096, false, 4, msec(20));
    EXPECT_GT(qd1.operations, 10u);
    EXPECT_GT(qd4.kbPerSec, qd1.kbPerSec);
}

TEST(Fio, BackToBackRunsAreClean)
{
    // Regression: stragglers from a previous run must not corrupt the
    // next run's submission window (unsigned underflow bug).
    BlkRig rig(VirtMode::Nested);
    Fio fio(rig.sys.stack(), rig.blk);
    auto a = fio.run(4096, false, 4, msec(15));
    auto b = fio.run(4096, true, 4, msec(15));
    EXPECT_GT(a.operations, 50u);
    EXPECT_GT(b.operations, 50u);
    // Reads and writes within a sane factor of each other.
    EXPECT_GT(b.kbPerSec, a.kbPerSec * 0.4);
}

// ------------------------------------------------------------ memcached

/** memcached in the guest, one mutilate flow on the far end of the
 *  same machine's wire. */
struct McRig
{
    explicit McRig(VirtMode mode)
        : sys(mode),
          fabric(sys.machine(), sys.machine().costs().wireLatency,
                 sys.machine().costs().linkBitsPerSec),
          net(sys.stack(), fabric), server(sys.stack(), net)
    {
    }

    MemcachedPoint
    runLoad(double qps, Ticks duration)
    {
        return server.serveLocalLoad(fabric.peer(), qps, duration);
    }

    NestedSystem sys;
    NetFabric fabric;
    VirtioNetStack net;
    MemcachedServer server;
};

TEST(Memcached, LowLoadLatencyIsSane)
{
    McRig rig(VirtMode::Nested);
    auto p = rig.runLoad(2000, msec(60));
    EXPECT_GT(p.completed, 60u);
    EXPECT_GT(p.avgUsec, 50.0);
    EXPECT_LT(p.avgUsec, 500.0);
    EXPECT_GE(p.p99Usec, p.avgUsec);
}

TEST(Memcached, LatencyGrowsWithLoad)
{
    McRig low(VirtMode::Nested);
    McRig high(VirtMode::Nested);
    auto a = low.runLoad(2000, msec(60));
    auto b = high.runLoad(12000, msec(60));
    EXPECT_GT(b.p99Usec, a.p99Usec);
}

TEST(Memcached, SvtReducesTailLatency)
{
    McRig base(VirtMode::Nested);
    McRig svt(VirtMode::SwSvt);
    auto a = base.runLoad(10000, msec(80));
    auto b = svt.runLoad(10000, msec(80));
    EXPECT_LT(b.p99Usec, a.p99Usec);
    EXPECT_LT(b.avgUsec, a.avgUsec);
}

TEST(Memcached, HousekeepingIsOverlappedOnlyUnderSwSvt)
{
    McRig base(VirtMode::Nested);
    McRig svt(VirtMode::SwSvt);
    base.runLoad(6000, msec(30));
    svt.runLoad(6000, msec(30));
    EXPECT_GT(base.sys.machine().counter("l1.housekeeping.serial"),
              0u);
    EXPECT_EQ(base.sys.machine().counter("l1.housekeeping.overlapped"),
              0u);
    EXPECT_GT(svt.sys.machine().counter("l1.housekeeping.overlapped"),
              0u);
    EXPECT_EQ(svt.sys.machine().counter("l1.housekeeping.serial"), 0u);
}

TEST(OpenLoopEtcLoadgen, ArrivalStreamIndependentOfTransport)
{
    // The arrival stream is a pure function of the flow seed: the
    // same flow offers the same requests whether it sits on the far
    // end of one machine's NetFabric or across a CrossLink pair.
    const double qps = 10000;
    const Ticks duration = msec(250);

    McRig rig(VirtMode::Nested);
    OpenLoopEtcLoadgen local(rig.sys.machine(), 42);
    local.addFlow(rig.fabric.peer(), qps);
    rig.server.serveUntil(local.start(duration));
    local.stop();

    ClusterBuild b = ClusterSpec()
                         .machine("server", VirtMode::Nested)
                         .machine("client", VirtMode::Native)
                         .link("server", "client")
                         .realize(1);
    VirtioNetStack net(b.stack("server"), b.port("server", "client"));
    MemcachedServer server(b.stack("server"), net);
    OpenLoopEtcLoadgen remote(b.machine("client"), 42);
    remote.addFlow(b.port("client", "server"), qps);
    b.driver("server",
             [&](NestedSystem &) { server.serveUntil(duration); });
    b.driver("client",
             [&](NestedSystem &) { remote.run(duration); });
    b.run(1);

    EXPECT_GT(local.flow(0).sent, 2000u);
    EXPECT_EQ(local.flow(0).sent, remote.flow(0).sent);
    EXPECT_GT(local.flow(0).completed, 0u);
    EXPECT_GT(remote.flow(0).completed, 0u);
}

// ----------------------------------------------------------------- tpcc

TEST(Tpcc, CompletesTransactions)
{
    NestedSystem sys(VirtMode::Nested);
    NetFabric fabric(sys.machine(), sys.machine().costs().wireLatency,
                     sys.machine().costs().linkBitsPerSec);
    VirtioNetStack net(sys.stack(), fabric);
    RamDisk disk(sys.machine(), "pg");
    VirtioBlkStack blk(sys.stack(), disk);
    Tpcc tpcc(sys.stack(), net, fabric, blk);
    auto r = tpcc.run(msec(400));
    EXPECT_GT(r.transactions, 20u);
    EXPECT_GT(r.tpm, 1000.0);
    EXPECT_GT(r.meanTxnMsec, 1.0);
}

TEST(Tpcc, MixWeightsSumTo100)
{
    int count = 0;
    const TpccTxnProfile *p = Tpcc::profiles(count);
    int total = 0;
    for (int i = 0; i < count; ++i)
        total += p[i].weight;
    EXPECT_EQ(total, 100);
}

TEST(Tpcc, SvtImprovesThroughput)
{
    auto run = [](VirtMode mode) {
        NestedSystem sys(mode);
        NetFabric fabric(sys.machine(),
                         sys.machine().costs().wireLatency,
                         sys.machine().costs().linkBitsPerSec);
        VirtioNetStack net(sys.stack(), fabric);
        RamDisk disk(sys.machine(), "pg");
        VirtioBlkStack blk(sys.stack(), disk);
        Tpcc tpcc(sys.stack(), net, fabric, blk);
        return tpcc.run(msec(500)).tpm;
    };
    double base = run(VirtMode::Nested);
    double svt = run(VirtMode::SwSvt);
    EXPECT_GT(svt, base);
}

// ---------------------------------------------------------------- video

TEST(Video, NoDropsAtCinemaRate)
{
    NestedSystem sys(VirtMode::Nested);
    RamDisk disk(sys.machine(), "m");
    VirtioBlkStack blk(sys.stack(), disk);
    VideoPlayback player(sys.stack(), blk);
    auto r = player.run(24, sec(10));
    EXPECT_EQ(r.droppedFrames, 0);
    EXPECT_EQ(r.totalFrames, 240);
    EXPECT_LT(r.busyFraction, 0.2);
}

TEST(Video, BusyFractionScalesWithRate)
{
    auto busy = [](double fps) {
        NestedSystem sys(VirtMode::Nested);
        RamDisk disk(sys.machine(), "m");
        VirtioBlkStack blk(sys.stack(), disk);
        VideoPlayback player(sys.stack(), blk);
        return player.run(fps, sec(5)).busyFraction;
    };
    EXPECT_GT(busy(120), busy(24) * 3);
}

TEST(Video, SvtDropsNoMoreLateWakeupsThanBaseline)
{
    // Decode-tail drops are common-mode noise; the SVt benefit shows
    // in the late-wakeup drops (timer delivery latency).
    auto run = [](VirtMode mode) {
        NestedSystem sys(mode);
        RamDisk disk(sys.machine(), "m");
        VirtioBlkStack blk(sys.stack(), disk);
        VideoPlayback player(sys.stack(), blk);
        return player.run(120, sec(60));
    };
    VideoResult base = run(VirtMode::Nested);
    VideoResult svt = run(VirtMode::SwSvt);
    EXPECT_LE(svt.lateWakeupDrops, base.lateWakeupDrops);
    EXPECT_LE(svt.droppedFrames, base.droppedFrames + 2);
}

// ----------------------------------------------------------- microbench

TEST(Microbench, ConvergesAndMatchesTable1)
{
    NestedSystem sys(VirtMode::Nested);
    auto r = CpuidMicrobench::run(sys.machine(), sys.api());
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.meanUsec, 10.40, 0.55);
}

TEST(Microbench, WorkloadSizeAddsLinearly)
{
    NestedSystem sys(VirtMode::Nested);
    auto small = CpuidMicrobench::run(sys.machine(), sys.api(), 0);
    auto large =
        CpuidMicrobench::run(sys.machine(), sys.api(), 10000);
    double extra =
        toUsec(sys.machine().costs().regOp) * 10000;
    EXPECT_NEAR(large.meanUsec - small.meanUsec, extra,
                extra * 0.05 + 0.05);
}

} // namespace
} // namespace svtsim
