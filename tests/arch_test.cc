/**
 * @file
 * Unit tests for the arch module: physical register file, rename maps,
 * hardware contexts, SMT core, local APIC, machine and attribution.
 */

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "arch/hw_context.h"
#include "arch/lapic.h"
#include "arch/machine.h"
#include "arch/phys_reg_file.h"
#include "arch/regs.h"
#include "arch/smt_core.h"
#include "sim/log.h"

namespace svtsim {
namespace {

// -------------------------------------------------------- phys reg file

TEST(PhysRegFile, AllocateFreeRoundTrip)
{
    PhysRegFile prf(8);
    EXPECT_EQ(prf.freeCount(), 8u);
    PhysReg r = prf.alloc();
    EXPECT_EQ(prf.freeCount(), 7u);
    prf.write(r, 0xdead);
    EXPECT_EQ(prf.read(r), 0xdeadu);
    prf.free(r);
    EXPECT_EQ(prf.freeCount(), 8u);
}

TEST(PhysRegFile, ExhaustionPanics)
{
    PhysRegFile prf(2);
    prf.alloc();
    prf.alloc();
    EXPECT_THROW(prf.alloc(), PanicError);
}

TEST(PhysRegFile, UseAfterFreePanics)
{
    PhysRegFile prf(2);
    PhysReg r = prf.alloc();
    prf.free(r);
    EXPECT_THROW(prf.read(r), PanicError);
    EXPECT_THROW(prf.write(r, 1), PanicError);
    EXPECT_THROW(prf.free(r), PanicError);
}

TEST(PhysRegFile, OutOfRangePanics)
{
    PhysRegFile prf(2);
    EXPECT_THROW(prf.read(100), PanicError);
}

TEST(PhysRegFile, EmptyPoolRejected)
{
    EXPECT_THROW(PhysRegFile(0), FatalError);
}

TEST(PhysRegFile, FreshAllocationIsZeroed)
{
    PhysRegFile prf(2);
    PhysReg r = prf.alloc();
    prf.write(r, 77);
    prf.free(r);
    PhysReg r2 = prf.alloc();
    EXPECT_EQ(prf.read(r2), 0u);
}

// ------------------------------------------------------------ rename map

TEST(RenameMap, ReadsBackWrites)
{
    PhysRegFile prf(64);
    RenameMap map(prf);
    map.write(Gpr::Rax, 123);
    map.write(Gpr::R15, 456);
    EXPECT_EQ(map.read(Gpr::Rax), 123u);
    EXPECT_EQ(map.read(Gpr::R15), 456u);
}

TEST(RenameMap, WriteAllocatesFreshPhysicalRegister)
{
    PhysRegFile prf(64);
    RenameMap map(prf);
    PhysReg before = map.physOf(Gpr::Rbx);
    map.write(Gpr::Rbx, 9);
    PhysReg after = map.physOf(Gpr::Rbx);
    EXPECT_NE(before, after);
    EXPECT_EQ(prf.read(after), 9u);
}

TEST(RenameMap, SteadyStateOccupancy)
{
    PhysRegFile prf(64);
    RenameMap map(prf);
    std::size_t occupied = 64 - prf.freeCount();
    // Many writes must not leak physical registers.
    for (int i = 0; i < 1000; ++i)
        map.write(static_cast<Gpr>(i % numGprs), i);
    EXPECT_EQ(64 - prf.freeCount(), occupied);
}

TEST(RenameMap, DestructorReleasesRegisters)
{
    PhysRegFile prf(64);
    {
        RenameMap map(prf);
        EXPECT_LT(prf.freeCount(), 64u);
    }
    EXPECT_EQ(prf.freeCount(), 64u);
}

TEST(RenameMap, TwoMapsShareOnePool)
{
    // The structural property behind ctxtld/ctxtst: two contexts' maps
    // index the same physical file.
    PhysRegFile prf(64);
    RenameMap a(prf), b(prf);
    a.write(Gpr::Rcx, 11);
    b.write(Gpr::Rcx, 22);
    EXPECT_EQ(a.read(Gpr::Rcx), 11u);
    EXPECT_EQ(b.read(Gpr::Rcx), 22u);
    // Cross-context access by physical index sees the other's value.
    EXPECT_EQ(prf.read(b.physOf(Gpr::Rcx)), 22u);
}

// ------------------------------------------------------------ hw context

TEST(HwContext, IndependentArchState)
{
    PhysRegFile prf(128);
    HwContext c0(prf, 0), c1(prf, 1);
    c0.writeGpr(Gpr::Rax, 1);
    c1.writeGpr(Gpr::Rax, 2);
    c0.rip = 0x1000;
    c1.rip = 0x2000;
    c0.writeCr(Ctrl::Cr3, 0xaaa);
    c1.writeCr(Ctrl::Cr3, 0xbbb);
    EXPECT_EQ(c0.readGpr(Gpr::Rax), 1u);
    EXPECT_EQ(c1.readGpr(Gpr::Rax), 2u);
    EXPECT_EQ(c0.readCr(Ctrl::Cr3), 0xaaau);
    EXPECT_EQ(c1.readCr(Ctrl::Cr3), 0xbbbu);
}

TEST(HwContext, MsrDefaultsToZero)
{
    PhysRegFile prf(64);
    HwContext c(prf, 0);
    EXPECT_EQ(c.rdmsr(msr::ia32Efer), 0u);
    c.wrmsr(msr::ia32Efer, 0x500);
    EXPECT_EQ(c.rdmsr(msr::ia32Efer), 0x500u);
}

TEST(HwContext, CopyArchState)
{
    PhysRegFile prf(128);
    HwContext src(prf, 0), dst(prf, 1);
    src.writeGpr(Gpr::Rdx, 0x42);
    src.rip = 0xfeed;
    src.rflags = 0x246;
    src.wrmsr(msr::ia32Lstar, 0x777);
    src.writeCr(Ctrl::Cr0, 0x80000011);
    dst.copyArchStateFrom(src);
    EXPECT_EQ(dst.readGpr(Gpr::Rdx), 0x42u);
    EXPECT_EQ(dst.rip, 0xfeedu);
    EXPECT_EQ(dst.rflags, 0x246u);
    EXPECT_EQ(dst.rdmsr(msr::ia32Lstar), 0x777u);
    EXPECT_EQ(dst.readCr(Ctrl::Cr0), 0x80000011u);
}

// -------------------------------------------------------------- smt core

class SmtCoreTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    CostModel costs;
};

TEST_F(SmtCoreTest, ConstructsContexts)
{
    SmtCore core(eq, costs, 0, 3, 0);
    EXPECT_EQ(core.numContexts(), 3);
    EXPECT_EQ(core.activeContext(), 0);
    EXPECT_EQ(core.context(2).index(), 2);
}

TEST_F(SmtCoreTest, RetargetFetchStallsAndResumes)
{
    SmtCore core(eq, costs, 0, 2, 0);
    core.retargetFetch(1);
    EXPECT_EQ(core.activeContext(), 1);
    EXPECT_TRUE(core.context(0).stalled);
    EXPECT_FALSE(core.context(1).stalled);
    core.retargetFetch(0);
    EXPECT_EQ(core.activeContext(), 0);
    EXPECT_FALSE(core.context(0).stalled);
    EXPECT_EQ(core.retargetCount(), 2u);
}

TEST_F(SmtCoreTest, RetargetToSelfIsNoop)
{
    SmtCore core(eq, costs, 0, 2, 0);
    core.retargetFetch(0);
    EXPECT_EQ(core.retargetCount(), 0u);
}

TEST_F(SmtCoreTest, InvalidContextPanics)
{
    SmtCore core(eq, costs, 0, 2, 0);
    EXPECT_THROW(core.context(2), PanicError);
    EXPECT_THROW(core.context(-1), PanicError);
    EXPECT_THROW(core.retargetFetch(5), PanicError);
    EXPECT_THROW(core.lapic(2), PanicError);
}

TEST_F(SmtCoreTest, ContextsShareThePhysicalFile)
{
    SmtCore core(eq, costs, 0, 2, 0);
    core.context(0).writeGpr(Gpr::Rax, 5);
    core.context(1).writeGpr(Gpr::Rax, 6);
    PhysReg p1 = core.context(1).physOf(Gpr::Rax);
    EXPECT_EQ(core.prf().read(p1), 6u);
    EXPECT_EQ(core.context(0).readGpr(Gpr::Rax), 5u);
}

TEST_F(SmtCoreTest, TinyPrfRejected)
{
    EXPECT_THROW(SmtCore(eq, costs, 0, 4, 0, 16), FatalError);
}

TEST_F(SmtCoreTest, ZeroContextsRejected)
{
    EXPECT_THROW(SmtCore(eq, costs, 0, 0, 0), FatalError);
}

// ------------------------------------------------------------------ lapic

class LapicTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    CostModel costs;
};

TEST_F(LapicTest, RaiseAndAck)
{
    Lapic apic(eq, costs, 0);
    EXPECT_FALSE(apic.hasPending());
    EXPECT_EQ(apic.ack(), -1);
    apic.raise(32);
    EXPECT_TRUE(apic.hasPending());
    EXPECT_TRUE(apic.isPending(32));
    EXPECT_EQ(apic.ack(), 32);
    EXPECT_FALSE(apic.hasPending());
}

TEST_F(LapicTest, HigherVectorWins)
{
    Lapic apic(eq, costs, 0);
    apic.raise(32);
    apic.raise(240);
    apic.raise(100);
    EXPECT_EQ(apic.highestPending(), 240);
    EXPECT_EQ(apic.ack(), 240);
    EXPECT_EQ(apic.ack(), 100);
    EXPECT_EQ(apic.ack(), 32);
}

TEST_F(LapicTest, ClearSpecificVector)
{
    Lapic apic(eq, costs, 0);
    apic.raise(50);
    apic.raise(60);
    apic.clear(60);
    EXPECT_FALSE(apic.isPending(60));
    EXPECT_TRUE(apic.isPending(50));
}

TEST_F(LapicTest, IpiArrivesAfterLatency)
{
    Lapic a(eq, costs, 0), b(eq, costs, 1);
    a.sendIpi(b, 0xfd);
    EXPECT_FALSE(b.hasPending());
    eq.advanceBy(costs.ipiLatency - 1);
    EXPECT_FALSE(b.hasPending());
    eq.advanceBy(1);
    EXPECT_TRUE(b.isPending(0xfd));
}

TEST_F(LapicTest, ExternalRedirection)
{
    // SVt steers external interrupts to the hypervisor context.
    Lapic vm(eq, costs, 0), visor(eq, costs, 1);
    vm.redirect = &visor;
    vm.assertExternal(33);
    EXPECT_FALSE(vm.hasPending());
    EXPECT_TRUE(visor.isPending(33));
}

TEST_F(LapicTest, RedirectionChainFollowed)
{
    Lapic a(eq, costs, 0), b(eq, costs, 1), c(eq, costs, 2);
    a.redirect = &b;
    b.redirect = &c;
    a.assertExternal(40);
    EXPECT_TRUE(c.isPending(40));
}

TEST_F(LapicTest, RedirectionCyclePanics)
{
    Lapic a(eq, costs, 0), b(eq, costs, 1);
    a.redirect = &b;
    b.redirect = &a;
    EXPECT_THROW(a.assertExternal(40), PanicError);
}

TEST_F(LapicTest, TscDeadlineFiresAtDeadline)
{
    Lapic apic(eq, costs, 0);
    apic.armTscDeadline(usec(10), 0xef);
    EXPECT_TRUE(apic.tscDeadlineArmed());
    eq.advanceTo(usec(10) - 1);
    EXPECT_FALSE(apic.isPending(0xef));
    eq.advanceBy(1);
    EXPECT_TRUE(apic.isPending(0xef));
    EXPECT_FALSE(apic.tscDeadlineArmed());
}

TEST_F(LapicTest, TscDeadlineInPastFiresImmediately)
{
    Lapic apic(eq, costs, 0);
    eq.advanceTo(usec(100));
    apic.armTscDeadline(usec(50), 0xef);
    EXPECT_TRUE(apic.isPending(0xef));
    EXPECT_FALSE(apic.tscDeadlineArmed());
}

TEST_F(LapicTest, RearmReplacesDeadline)
{
    Lapic apic(eq, costs, 0);
    apic.armTscDeadline(usec(10), 0xef);
    apic.armTscDeadline(usec(20), 0xef);
    eq.advanceTo(usec(15));
    EXPECT_FALSE(apic.isPending(0xef));
    eq.advanceTo(usec(20));
    EXPECT_TRUE(apic.isPending(0xef));
}

TEST_F(LapicTest, CancelDisarms)
{
    Lapic apic(eq, costs, 0);
    apic.armTscDeadline(usec(10), 0xef);
    apic.cancelTscDeadline();
    EXPECT_FALSE(apic.tscDeadlineArmed());
    eq.advanceTo(usec(20));
    EXPECT_FALSE(apic.isPending(0xef));
}

// ---------------------------------------------------------------- machine

TEST(Machine, TopologyBuildsCores)
{
    Machine m(MachineTopology{2, 8, 2});
    EXPECT_EQ(m.numCores(), 16);
    EXPECT_EQ(m.core(0).numaNode(), 0);
    EXPECT_EQ(m.core(8).numaNode(), 1);
    EXPECT_EQ(m.core(3).numContexts(), 2);
}

TEST(Machine, InvalidTopologyRejected)
{
    EXPECT_THROW(Machine(MachineTopology{0, 1, 1}), FatalError);
    EXPECT_THROW(Machine(MachineTopology{1, 1, 0}), FatalError);
}

TEST(Machine, CoreIndexChecked)
{
    Machine m(MachineTopology{1, 2, 2});
    EXPECT_THROW(m.core(2), PanicError);
}

TEST(Machine, ConsumeAdvancesTime)
{
    Machine m(MachineTopology{1, 1, 2});
    m.consume(usec(3));
    EXPECT_EQ(m.now(), usec(3));
    EXPECT_THROW(m.consume(-1), PanicError);
}

TEST(Machine, AttributionSingleScope)
{
    Machine m(MachineTopology{1, 1, 2});
    const ScopeId a = m.internScope("stage-a", TraceCategory::Sim);
    {
        TimeScope scope(m, a);
        m.consume(nsec(100));
    }
    m.consume(nsec(50));
    EXPECT_EQ(m.scopeTotal("stage-a"), nsec(100));
    EXPECT_EQ(m.scopeTotal("unknown"), 0);
}

TEST(Machine, AttributionNestedScopesBothAccrue)
{
    Machine m(MachineTopology{1, 1, 2});
    const ScopeId outer_id = m.internScope("outer", TraceCategory::Sim);
    const ScopeId inner_id = m.internScope("inner", TraceCategory::Sim);
    {
        TimeScope outer(m, outer_id);
        m.consume(nsec(10));
        {
            TimeScope inner(m, inner_id);
            m.consume(nsec(5));
        }
    }
    EXPECT_EQ(m.scopeTotal("outer"), nsec(15));
    EXPECT_EQ(m.scopeTotal("inner"), nsec(5));
}

TEST(Machine, IdleTimeNotAttributed)
{
    Machine m(MachineTopology{1, 1, 2});
    TimeScope scope(m, m.internScope("busy", TraceCategory::Sim));
    m.idleUntil(usec(10));
    EXPECT_EQ(m.scopeTotal("busy"), 0);
    EXPECT_EQ(m.now(), usec(10));
}

TEST(Machine, ResetAttributionClears)
{
    Machine m(MachineTopology{1, 1, 2});
    const ScopeId x = m.internScope("x", TraceCategory::Sim);
    {
        TimeScope scope(m, x);
        m.consume(nsec(10));
    }
    m.resetAttribution();
    EXPECT_EQ(m.scopeTotal("x"), 0);
    // The handle survives the reset.
    {
        TimeScope scope(m, x);
        m.consume(nsec(7));
    }
    EXPECT_EQ(m.scopeTotal("x"), nsec(7));
}

TEST(Machine, InternScopeIsIdempotentByName)
{
    Machine m(MachineTopology{1, 1, 2});
    const ScopeId a = m.internScope("stage.a", TraceCategory::Stage);
    const ScopeId b = m.internScope("exit.B", TraceCategory::Exit);
    EXPECT_NE(a, b);
    EXPECT_EQ(m.internScope("stage.a", TraceCategory::Stage), a);
    EXPECT_EQ(m.internScope("exit.B", TraceCategory::Exit), b);
    // A name keeps the category it was first interned with.
    EXPECT_THROW(m.internScope("stage.a", TraceCategory::Exit),
                 PanicError);
}

TEST(Machine, SnapshotScopesSortedAndNonZero)
{
    Machine m(MachineTopology{1, 1, 2});
    // Interned out of name order; "stage.idle" never accrues.
    const ScopeId z = m.internScope("stage.z", TraceCategory::Stage);
    const ScopeId idle = m.internScope("stage.idle", TraceCategory::Stage);
    const ScopeId a = m.internScope("exit.A", TraceCategory::Exit);
    {
        TimeScope outer(m, z);
        m.consume(nsec(10));
        TimeScope inner(m, a);
        m.consume(nsec(5));
    }
    {
        TimeScope scope(m, idle);
        m.idleUntil(m.now() + nsec(20));
    }
    using Scopes = std::vector<std::pair<std::string, Ticks>>;
    EXPECT_EQ(m.snapshotMetrics().scopes,
              (Scopes{{"exit.A", nsec(5)}, {"stage.z", nsec(15)}}));

    m.resetAttribution();
    EXPECT_TRUE(m.snapshotMetrics().scopes.empty());
    {
        TimeScope scope(m, a);
        m.consume(nsec(3));
    }
    EXPECT_EQ(m.snapshotMetrics().scopes,
              (Scopes{{"exit.A", nsec(3)}}));
}

TEST(Machine, PopWithoutPushPanics)
{
    Machine m(MachineTopology{1, 1, 2});
    EXPECT_THROW(m.popScope(), PanicError);
    EXPECT_THROW(m.pushScope(0), PanicError); // nothing interned
}

TEST(Machine, CountersAccumulate)
{
    Machine m(MachineTopology{1, 1, 2});
    // counter() reads the PMU registry by name; components bump the
    // interned handles.
    Counter cpuid =
        m.metrics().counter(MetricScope::Machine, "test", "exit:CPUID");
    m.metrics().counter(MetricScope::Machine, "test", "exit:HLT");
    cpuid.inc();
    cpuid.inc(4);
    EXPECT_EQ(m.counter("exit:CPUID"), 5u);
    EXPECT_EQ(m.counter("exit:HLT"), 0u);
    m.resetCounters();
    EXPECT_EQ(m.counter("exit:CPUID"), 0u);
}

TEST(Machine, CountOfUnregisteredKeyThrows)
{
    Machine m(MachineTopology{1, 1, 2});
    EXPECT_THROW(m.counter("no.such.metric"), FatalError);
}

TEST(Machine, ConsumeRunsDueEvents)
{
    Machine m(MachineTopology{1, 1, 2});
    bool fired = false;
    m.events().scheduleIn(nsec(10), [&] { fired = true; });
    m.consume(nsec(20));
    EXPECT_TRUE(fired);
}

TEST(CostModel, CycleMatchesFrequency)
{
    CostModel costs;
    costs.freqGhz = 2.0;
    EXPECT_EQ(costs.cycle(), 500);
}

} // namespace
} // namespace svtsim
