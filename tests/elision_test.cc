/**
 * @file
 * Tests for the exit-elision ladder: posted-interrupt delivery with
 * x2APIC virtualization (rung 1), multi-queue virtio with interrupt
 * coalescing (rung 2), the StackConfig validation for the new knobs,
 * and byte-identity of elision runs across --jobs/--cluster-jobs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hv/stack_config.h"
#include "hv/virt_stack.h"
#include "io/irq_coalescer.h"
#include "io/net_fabric.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "sim/log.h"
#include "system/bench_harness.h"
#include "system/cluster_spec.h"
#include "system/nested_system.h"
#include "workloads/remote_peer.h"

namespace svtsim {
namespace {

/** One rung combination of the ladder. */
StackConfig
elisionCfg(VirtMode mode, bool posted, int queues = 1, int count = 1,
           Ticks timeout = 0)
{
    StackConfig cfg;
    cfg.mode = mode;
    cfg.postedInterrupts = posted;
    cfg.virtioQueues = queues;
    cfg.virtioCoalesceCount = count;
    cfg.virtioCoalesceTimeout = timeout;
    return cfg;
}

// --------------------------------------------------- config validation

TEST(ElisionConfig, PostedInterruptsRequireANestedStack)
{
    EXPECT_THROW(validateStackConfig(
                     elisionCfg(VirtMode::Native, true)),
                 FatalError);
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt})
        EXPECT_NO_THROW(validateStackConfig(elisionCfg(mode, true)));
}

TEST(ElisionConfig, QueueCountIsBoundedAndNestedOnly)
{
    EXPECT_THROW(
        validateStackConfig(elisionCfg(VirtMode::Nested, false, 0)),
        FatalError);
    EXPECT_THROW(
        validateStackConfig(elisionCfg(VirtMode::Nested, false, 9)),
        FatalError);
    EXPECT_THROW(
        validateStackConfig(elisionCfg(VirtMode::Native, false, 2)),
        FatalError);
    EXPECT_NO_THROW(
        validateStackConfig(elisionCfg(VirtMode::Native, false, 1)));
    EXPECT_NO_THROW(validateStackConfig(
        elisionCfg(VirtMode::Nested, false, 8, 4, usec(25))));
}

TEST(ElisionConfig, CoalescingKnobsAreValidated)
{
    // Count below 1, a count that can strand a tail batch (no
    // timeout), a negative timeout, and tuning on a non-nested stack.
    EXPECT_THROW(
        validateStackConfig(elisionCfg(VirtMode::Nested, false, 1, 0)),
        FatalError);
    EXPECT_THROW(
        validateStackConfig(elisionCfg(VirtMode::Nested, false, 1, 4)),
        FatalError);
    EXPECT_THROW(validateStackConfig(
                     elisionCfg(VirtMode::Nested, false, 1, 1, -1)),
                 FatalError);
    EXPECT_THROW(validateStackConfig(elisionCfg(VirtMode::Native,
                                                false, 1, 4,
                                                usec(25))),
                 FatalError);
    EXPECT_NO_THROW(validateStackConfig(
        elisionCfg(VirtMode::Nested, false, 1, 4, usec(25))));
}

// ------------------------------------------------- coalescer mechanics

class IrqCoalescerTest : public ::testing::Test
{
  protected:
    Machine machine{MachineTopology{1, 1, 2}};
    int fires = 0;
};

TEST_F(IrqCoalescerTest, FiresAtExactCountThreshold)
{
    IrqCoalescer co(machine, "co", 3, usec(50), [&] { ++fires; });
    co.note();
    co.note();
    EXPECT_EQ(fires, 0);
    EXPECT_EQ(co.pending(), 2);
    co.note(); // exactly the threshold
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(co.pending(), 0);
    EXPECT_EQ(machine.counter("co.count_fire"), 1u);
    EXPECT_EQ(machine.counter("co.noted"), 3u);
    EXPECT_EQ(machine.counter("co.timer_fire"), 0u);
}

TEST_F(IrqCoalescerTest, TimerDeliversAPartialBatch)
{
    IrqCoalescer co(machine, "co", 4, usec(25), [&] { ++fires; });
    co.note();
    co.note();
    EXPECT_EQ(fires, 0);
    machine.events().advanceBy(usec(25) - 1);
    EXPECT_EQ(fires, 0); // still inside the window
    machine.events().advanceBy(1);
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(machine.counter("co.timer_fire"), 1u);
    EXPECT_EQ(machine.counter("co.count_fire"), 0u);
    EXPECT_FALSE(co.timerArmed());
}

TEST_F(IrqCoalescerTest, LeftoverTimerAfterCountFireIsANoOp)
{
    // A count-threshold fire deliberately leaves the armed timer in
    // place; it later finds an empty batch and only bumps the
    // empty_timer counter (the documented boundary).
    IrqCoalescer co(machine, "co", 2, usec(25), [&] { ++fires; });
    co.note(); // arms the timer
    co.note(); // count fire; timer stays armed
    EXPECT_EQ(fires, 1);
    EXPECT_TRUE(co.timerArmed());
    machine.events().advanceBy(usec(25));
    EXPECT_EQ(fires, 1); // no spurious delivery
    EXPECT_EQ(machine.counter("co.empty_timer"), 1u);
    EXPECT_FALSE(co.timerArmed());
}

TEST_F(IrqCoalescerTest, CountOneDegeneratesToPerCompletionIrqs)
{
    IrqCoalescer co(machine, "co", 1, 0, [&] { ++fires; });
    for (int i = 0; i < 5; ++i)
        co.note();
    EXPECT_EQ(fires, 5);
    EXPECT_FALSE(co.timerArmed());
    EXPECT_EQ(machine.counter("co.count_fire"), 5u);
}

TEST_F(IrqCoalescerTest, DeliveredBatchesMatchTheFireCounters)
{
    IrqCoalescer co(machine, "co", 3, usec(10), [&] { ++fires; });
    for (int i = 0; i < 7; ++i)
        co.note(); // two count fires + one pending
    machine.events().advanceBy(usec(50)); // timer flushes the tail
    EXPECT_EQ(co.pending(), 0);
    EXPECT_EQ(static_cast<std::uint64_t>(fires),
              machine.counter("co.count_fire") +
                  machine.counter("co.timer_fire"));
    EXPECT_EQ(machine.counter("co.noted"), 7u);
}

TEST_F(IrqCoalescerTest, RejectsUnboundedBatching)
{
    EXPECT_THROW(IrqCoalescer(machine, "co", 0, 0, [] {}),
                 FatalError);
    // count > 1 without a timeout could strand a tail batch forever.
    EXPECT_THROW(IrqCoalescer(machine, "co", 4, 0, [] {}),
                 FatalError);
}

// ---------------------------------------------- posted-interrupt rung

/** Disk rig with a configurable stack. */
struct ElisionBlkRig
{
    explicit ElisionBlkRig(StackConfig cfg)
        : sys(cfg.mode, cfg), disk(sys.machine(), "ramdisk"),
          blk(sys.stack(), disk)
    {
    }

    /** Run @p n concurrent requests, halting while idle. */
    void
    runHalted(int n)
    {
        int done = 0;
        blk.setCompletionHandler([&](std::uint64_t) { ++done; });
        for (int i = 0; i < n; ++i)
            blk.submit(next_id++, i * 8, 4096, false);
        while (done < n)
            sys.api().halt();
    }

    /** Run @p n concurrent requests while L2 stays busy computing, so
     *  completion vectors find the vCPU in guest mode. */
    void
    runBusy(int n)
    {
        int done = 0;
        blk.setCompletionHandler([&](std::uint64_t) { ++done; });
        for (int i = 0; i < n; ++i)
            blk.submit(next_id++, i * 8, 4096, false);
        for (long spins = 0; done < n; ++spins) {
            ASSERT_LT(spins, 2000000L) << "requests stalled";
            sys.api().compute(usec(2));
        }
    }

    std::uint64_t
    counter(const char *key)
    {
        return sys.machine().counter(key);
    }

    NestedSystem sys;
    RamDisk disk;
    VirtioBlkStack blk;
    std::uint64_t next_id = 1;
};

TEST(PostedInterrupts, ExitlessDeliveryWhileL2Runs)
{
    // The completion interrupt must reach L2 from outside the
    // host-interrupt chain (which has already exited L2) for the
    // exitless path to be visible. Coalesce with a timeout longer
    // than the whole completion stream: the batch is delivered by the
    // one-shot timer event, which fires while the vCPU is busy in
    // guest mode with no host interrupt pending.
    ElisionBlkRig off(
        elisionCfg(VirtMode::Nested, false, 1, 64, msec(1)));
    ElisionBlkRig on(
        elisionCfg(VirtMode::Nested, true, 1, 64, msec(1)));
    off.runBusy(16);
    on.runBusy(16);
    ASSERT_EQ(on.blk.completedCount(), 16u);
    // At least part of the completion vectors hit the running vCPU
    // and were delivered through the posted path without a VM exit.
    EXPECT_GT(on.counter("l2.exit.elided.posted"), 0u);
    EXPECT_GT(on.counter("irq.posted"), 0u);
    // The exit structure shrinks on both axes: interrupt-arrival
    // exits and the x2APIC EOI trap rounds.
    EXPECT_LT(on.counter("vmx.exit.EXTERNAL_INTERRUPT"),
              off.counter("vmx.exit.EXTERNAL_INTERRUPT"));
    EXPECT_LT(on.counter("l2.exit.MSR_WRITE"),
              off.counter("l2.exit.MSR_WRITE"));
    EXPECT_EQ(off.counter("l2.exit.elided.posted"), 0u);
    EXPECT_EQ(off.counter("irq.posted"), 0u);
}

TEST(PostedInterrupts, HaltedVcpuFallsBackToInjection)
{
    // The no-lost-interrupts property: a posted vector that finds the
    // vCPU halted is merged into the IRR and delivered through the
    // conventional injection path instead of being dropped.
    ElisionBlkRig rig(elisionCfg(VirtMode::Nested, true));
    rig.runHalted(1);
    EXPECT_EQ(rig.blk.completedCount(), 1u);
    EXPECT_GT(rig.counter("irq.posted"), 0u);
    EXPECT_GT(rig.counter("irq.delivered.l2"), 0u);
}

TEST(PostedInterrupts, EoiVirtualizationElidesTheMsrTrapRound)
{
    // Sequential requests so every completion is its own interrupt
    // delivery (concurrent ones merge into a couple of batches).
    ElisionBlkRig off(elisionCfg(VirtMode::Nested, false));
    ElisionBlkRig on(elisionCfg(VirtMode::Nested, true));
    for (int i = 0; i < 20; ++i) {
        off.runHalted(1);
        on.runHalted(1);
    }
    ASSERT_EQ(on.blk.completedCount(), 20u);
    EXPECT_GT(on.counter("l2.exit.elided.eoi"), 10u);
    EXPECT_LT(on.counter("l2.exit.MSR_WRITE"),
              off.counter("l2.exit.MSR_WRITE"));
}

TEST(PostedInterrupts, WorksInAllThreeModes)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        ElisionBlkRig rig(elisionCfg(mode, true));
        rig.runHalted(4);
        EXPECT_EQ(rig.blk.completedCount(), 4u) << virtModeName(mode);
        EXPECT_GT(rig.counter("l2.exit.elided.eoi"), 0u)
            << virtModeName(mode);
    }
}

// ------------------------------------------------- multi-queue rung

TEST(MultiQueueVirtio, CompletionsStayFifoWithinEachQueue)
{
    ElisionBlkRig rig(elisionCfg(VirtMode::Nested, false, 4));
    ASSERT_EQ(rig.blk.queues(), 4);
    std::vector<std::uint64_t> order;
    int done = 0;
    rig.blk.setCompletionHandler([&](std::uint64_t id) {
        order.push_back(id);
        ++done;
    });
    for (std::uint64_t id = 0; id < 16; ++id)
        rig.blk.submit(id, id * 8, 4096, false);
    while (done < 16)
        rig.sys.api().halt();
    ASSERT_EQ(order.size(), 16u);
    // Requests shard by id % queues; within a queue (one residue
    // class) completion order must match submission order.
    std::vector<std::uint64_t> last(4, 0);
    std::vector<bool> seen(4, false);
    for (std::uint64_t id : order) {
        auto q = static_cast<std::size_t>(id % 4);
        if (seen[q]) {
            EXPECT_LT(last[q], id) << "queue " << q << " reordered";
        }
        last[q] = id;
        seen[q] = true;
    }
}

TEST(MultiQueueVirtio, RequestsShardAcrossPerQueueRings)
{
    ElisionBlkRig rig(elisionCfg(VirtMode::Nested, false, 2));
    rig.runHalted(8);
    // Both submission rings saw traffic, under the suffixed names.
    EXPECT_EQ(rig.counter("l2.blk.q.q0.posted"), 4u);
    EXPECT_EQ(rig.counter("l2.blk.q.q1.posted"), 4u);
}

TEST(MultiQueueVirtio, SingleQueueKeepsTheLegacyCounterSchema)
{
    ElisionBlkRig rig(elisionCfg(VirtMode::Nested, false, 1));
    rig.runHalted(2);
    EXPECT_EQ(rig.counter("l2.blk.q.posted"), 2u);
}

TEST(MultiQueueVirtio, PostedAndCoalescedEndToEndInAllModes)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        ElisionBlkRig rig(elisionCfg(mode, true, 2, 4, usec(25)));
        rig.runHalted(8);
        EXPECT_EQ(rig.blk.completedCount(), 8u) << virtModeName(mode);
        // Every completion went through a coalescer.
        EXPECT_EQ(
            rig.counter("l2.blk.compl.q0.coalesce.noted") +
                rig.counter("l2.blk.compl.q1.coalesce.noted"),
            8u)
            << virtModeName(mode);
    }
}

TEST(MultiQueueVirtio, NetEchoAcrossTwoQueues)
{
    NestedSystem sys(VirtMode::Nested,
                     elisionCfg(VirtMode::Nested, true, 2, 4,
                                usec(25)));
    NetFabric fabric(sys.machine(), sys.machine().costs().wireLatency,
                     sys.machine().costs().linkBitsPerSec);
    VirtioNetStack net(sys.stack(), fabric);
    ASSERT_EQ(net.queues(), 2);
    fabric.peer().setReceiveHandler([&](NetPacket pkt) {
        sys.machine().events().scheduleIn(
            sys.machine().costs().remotePeerTurnaround,
            [&fabric, pkt] { fabric.peer().send(pkt); });
    });
    int got = 0;
    net.setRxHandler([&](NetPacket) { ++got; });
    for (std::uint64_t id = 1; id <= 8; ++id)
        net.send(512, id);
    while (got < 8)
        sys.api().halt();
    EXPECT_EQ(net.rxPackets(), 8u);
    // Odd/even flow ids landed in different rx rings, and every
    // received packet went through a per-queue coalescer.
    EXPECT_GT(sys.machine().counter("l2.net.rx.q0.coalesce.noted"),
              0u);
    EXPECT_GT(sys.machine().counter("l2.net.rx.q1.coalesce.noted"),
              0u);
    EXPECT_EQ(sys.machine().counter("l2.net.rx.q0.coalesce.noted") +
                  sys.machine().counter("l2.net.rx.q1.coalesce.noted"),
              8u);
    // The tx side sharded as well.
    EXPECT_GT(sys.machine().counter("l2.net.tx.q0.posted"), 0u);
    EXPECT_GT(sys.machine().counter("l2.net.tx.q1.posted"), 0u);
}

// ------------------------------------------------ harness determinism

void
elisionDiskScenario(NestedSystem &sys, ScenarioResult &r)
{
    RamDisk disk(sys.machine(), "ramdisk");
    VirtioBlkStack blk(sys.stack(), disk);
    int done = 0;
    blk.setCompletionHandler([&](std::uint64_t) { ++done; });
    for (int i = 0; i < 12; ++i)
        blk.submit(static_cast<std::uint64_t>(i), i * 8, 4096, false);
    while (done < 12)
        sys.api().halt();
    r.record("completed", done);
    r.record("now_usec", toUsec(sys.machine().now()));
    r.record("elided_eoi",
             static_cast<double>(
                 sys.machine().counter("l2.exit.elided.eoi")));
}

void
elisionNetScenario(ClusterContext &ctx, ScenarioResult &r)
{
    ClusterBuild b =
        ClusterSpec()
            .machine("server", VirtMode::Nested,
                     elisionCfg(VirtMode::Nested, true, 2, 4,
                                usec(25)))
            .machine("client", VirtMode::Native)
            .link("server", "client")
            .realize(ctx);
    VirtioNetStack net(b.stack("server"), b.port("server", "client"));
    MemcachedServer server(b.stack("server"), net);
    MutilateClient client(b.machine("client"),
                          b.port("client", "server"));
    MemcachedPoint pt;
    b.driver("server",
             [&](NestedSystem &) { server.serveUntil(msec(5)); });
    b.driver("client", [&](NestedSystem &) {
        pt = client.runLoad(20000.0, msec(5));
    });
    b.run(ctx);
    r.record("completed", static_cast<double>(pt.completed));
    r.record("p99_us", pt.p99Usec);
    ctx.finish(b.cluster(), r);
}

int
runHarness(BenchHarness &bench, std::vector<std::string> args)
{
    std::vector<char *> argv;
    args.insert(args.begin(), "elision_bench");
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench.main(static_cast<int>(argv.size()), argv.data());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ElisionHarness, RunsAreByteIdenticalAcrossJobsAndClusterJobs)
{
    BenchHarness bench("elision_bench",
                       "elision determinism under test");
    bench.add("disk-elide", VirtMode::Nested,
              elisionCfg(VirtMode::Nested, true, 2, 4, usec(25)),
              elisionDiskScenario);
    bench.addCluster("net-elide", VirtMode::Nested,
                     elisionNetScenario);

    struct Variant
    {
        const char *tag;
        std::vector<std::string> args;
    };
    const Variant variants[] = {
        {"j1", {"--jobs=1", "--cluster-jobs=1"}},
        {"j4", {"--jobs=4", "--cluster-jobs=1"}},
        {"c4", {"--jobs=2", "--cluster-jobs=4"}},
    };
    std::string ref_json, ref_pmu;
    for (const Variant &v : variants) {
        std::string json =
            testing::TempDir() + "elision_" + v.tag + ".json";
        std::string pmu =
            testing::TempDir() + "elision_" + v.tag + "_pmu.json";
        std::vector<std::string> args = v.args;
        args.push_back("--json=" + json);
        args.push_back("--metrics=" + pmu);
        ASSERT_EQ(runHarness(bench, args), 0) << v.tag;
        if (ref_json.empty()) {
            ref_json = slurp(json);
            ref_pmu = slurp(pmu);
            ASSERT_FALSE(ref_json.empty());
            ASSERT_FALSE(ref_pmu.empty());
            // The elision counters are part of the artifact.
            EXPECT_NE(ref_pmu.find("l2.exit.elided.eoi"),
                      std::string::npos);
        } else {
            EXPECT_EQ(ref_json, slurp(json)) << v.tag;
            EXPECT_EQ(ref_pmu, slurp(pmu)) << v.tag;
        }
    }
}

} // namespace
} // namespace svtsim
