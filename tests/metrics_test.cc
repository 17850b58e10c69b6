/**
 * @file
 * Simulated-PMU tests: registry mechanics (interning, kinds, reset),
 * histogram math, the exit-reason instrumentation contract, the
 * histogram-vs-trace time-conservation invariant, and byte-identity
 * of the --metrics export across sweep worker counts.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "arch/regs.h"
#include "io/net_fabric.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "sim/log.h"
#include "sim/trace.h"
#include "stats/metrics.h"
#include "system/bench_harness.h"
#include "system/nested_system.h"
#include "virt/exit_reason.h"

namespace svtsim {
namespace {

// ---------------------------------------------------- registry basics

TEST(MetricsRegistry, CounterGaugeHistogramRoundTrip)
{
    MetricsRegistry reg;
    Counter c = reg.counter(MetricScope::L0, "test", "c");
    Gauge g = reg.gauge(MetricScope::Svt, "test", "g");
    LatencyHistogram h = reg.histogram(MetricScope::L2, "test", "h");

    EXPECT_TRUE(c.valid());
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);

    g.set(3);
    g.set(1);
    EXPECT_EQ(g.value(), 1);
    EXPECT_EQ(g.maxValue(), 3);

    h.record(10);
    h.record(20);
    EXPECT_EQ(h.data().count, 2u);
    EXPECT_EQ(h.data().sum, 30);
    EXPECT_EQ(h.data().min, 10);
    EXPECT_EQ(h.data().max, 20);

    EXPECT_TRUE(reg.has("c"));
    EXPECT_FALSE(reg.has("nope"));
    EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, RegistrationIsIdempotentOnName)
{
    // Two components opening the same name share one slot (aggregate
    // metrics), exactly like the old shared string keys.
    MetricsRegistry reg;
    Counter a = reg.counter(MetricScope::L0, "one", "shared");
    Counter b = reg.counter(MetricScope::L1, "two", "shared");
    a.inc();
    b.inc(2);
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);

    // The first registration's scope/component win.
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 1u);
    EXPECT_EQ(snap.samples[0].scope, MetricScope::L0);
    EXPECT_EQ(snap.samples[0].component, "one");
}

TEST(MetricsRegistry, KindMismatchPanics)
{
    MetricsRegistry reg;
    reg.counter(MetricScope::Machine, "test", "m");
    EXPECT_THROW(reg.gauge(MetricScope::Machine, "test", "m"),
                 PanicError);
    EXPECT_THROW(reg.histogram(MetricScope::Machine, "test", "m"),
                 PanicError);
}

TEST(MetricsRegistry, InertHandlesAreNoOps)
{
    Counter c;
    Gauge g;
    LatencyHistogram h;
    EXPECT_FALSE(c.valid());
    EXPECT_FALSE(g.valid());
    EXPECT_FALSE(h.valid());
    c.inc();
    g.set(7);
    h.record(7);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.maxValue(), 0);
    EXPECT_EQ(h.data().count, 0u);
}

TEST(MetricsRegistry, ResetKeepsHandlesAlive)
{
    MetricsRegistry reg;
    Counter c = reg.counter(MetricScope::Machine, "test", "c");
    Gauge g = reg.gauge(MetricScope::Machine, "test", "g");
    LatencyHistogram h = reg.histogram(MetricScope::Machine, "test", "h");
    c.inc(9);
    g.set(9);
    h.record(9);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.maxValue(), 0);
    EXPECT_EQ(h.data().count, 0u);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsRegistry, NameCompatSurface)
{
    MetricsRegistry reg;
    reg.counter(MetricScope::Machine, "test", "known").inc(3);
    reg.gauge(MetricScope::Machine, "test", "level");
    EXPECT_EQ(reg.counterValue("known"), 3u);
    EXPECT_THROW(reg.counterValue("unknown"), FatalError);
    EXPECT_THROW(reg.counterValue("level"), FatalError);

    auto values = reg.counterValues();
    ASSERT_EQ(values.size(), 1u); // counters only, zeros included
    EXPECT_EQ(values.at("known"), 3u);
}

// ------------------------------------------------------ histogram math

TEST(HistogramData, QuantileEdgeCases)
{
    HistogramData h;
    EXPECT_EQ(h.quantile(0.0), 0.0); // empty
    EXPECT_EQ(h.quantile(1.0), 0.0);

    h.record(42);
    EXPECT_EQ(h.quantile(0.0), 42.0); // single sample -> min
    EXPECT_EQ(h.quantile(0.5), 42.0);
    EXPECT_EQ(h.quantile(1.0), 42.0);

    EXPECT_THROW(h.quantile(-0.1), PanicError);
    EXPECT_THROW(h.quantile(1.1), PanicError);
    EXPECT_THROW(h.record(-1), PanicError);
}

TEST(HistogramData, QuantileClampedToObservedRange)
{
    HistogramData h;
    h.record(0);
    for (int i = 0; i < 99; ++i)
        h.record(1000);
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.min, 0);
    EXPECT_EQ(h.max, 1000);
    EXPECT_EQ(h.quantile(0.0), 0.0);
    // The p99 bin-estimate may overshoot the bin's upper bound but is
    // clamped to the exact observed max.
    EXPECT_EQ(h.quantile(0.99), 1000.0);
    EXPECT_NEAR(h.mean(), 990.0, 1e-9);
}

// ------------------------------------- exit-reason instrumentation

TEST(MetricsPmu, EveryExitReasonNamedAndInstrumented)
{
    // One nested cpuid round trip is enough to force full registration
    // (it happens at construction time, not lazily on first event).
    NestedSystem sys(VirtMode::Nested);
    sys.api().cpuid(1);

    const MetricsRegistry &reg = sys.machine().metrics();
    for (int r = 0; r < static_cast<int>(ExitReason::NumReasons); ++r) {
        std::string name = exitReasonName(static_cast<ExitReason>(r));
        EXPECT_NE(name, "UNKNOWN") << "reason " << r;
        EXPECT_TRUE(reg.has("l2.exit." + name)) << name;
        EXPECT_TRUE(reg.has("l2.exit_latency." + name)) << name;
        EXPECT_TRUE(reg.has("l0.exit." + name)) << name;
        EXPECT_TRUE(reg.has("l0.exit_latency." + name)) << name;
        EXPECT_TRUE(reg.has("vmx.exit." + name)) << name;
    }
    // The round trip itself showed up where expected.
    EXPECT_GT(sys.machine().counter("l2.exit.CPUID"), 0u);
}

/** Every exit reason a nested round reaches accrues attribution time
 *  under "exit." + exitReasonName(reason), and nothing else appears
 *  under "exit." — the --metrics "stages" schema. */
TEST(MetricsPmu, NestedExitReasonsAccrueUnderExitScopes)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        NestedSystem sys(mode);
        Machine &m = sys.machine();
        NetFabric fabric(m, m.costs().wireLatency,
                         m.costs().linkBitsPerSec);
        VirtioNetStack net(sys.stack(), fabric);
        RamDisk disk(m, "d");
        VirtioBlkStack blk(sys.stack(), disk);
        fabric.peer().setReceiveHandler(
            [&](NetPacket pkt) { fabric.peer().send(pkt); });
        int rx = 0;
        net.setRxHandler([&](NetPacket) { ++rx; });
        bool io_done = false;
        blk.setCompletionHandler([&](std::uint64_t) { io_done = true; });

        GuestApi &api = sys.api();
        api.cpuid(1);
        api.wrmsr(msr::ia32Lstar, 0x1234);
        api.rdmsr(msr::ia32Lstar);
        api.ioOut(0x3f8, 'H');
        api.vmcall(99, 0, 0);
        net.send(512, 1);
        blk.submit(7, 0, 4096, true);
        while (!io_done || rx < 1)
            api.halt();

        std::map<std::string, Ticks> exit_scopes;
        for (const auto &[name, ticks] : m.snapshotMetrics().scopes) {
            if (name.rfind("exit.", 0) == 0)
                exit_scopes.emplace(name, ticks);
        }
        std::size_t reached = 0;
        for (int r = 0; r < static_cast<int>(ExitReason::NumReasons);
             ++r) {
            const std::string name =
                exitReasonName(static_cast<ExitReason>(r));
            const bool taken = m.counter("l2.exit." + name) > 0;
            reached += taken ? 1 : 0;
            EXPECT_EQ(exit_scopes.count("exit." + name) != 0, taken)
                << virtModeName(mode) << " " << name;
            EXPECT_EQ(m.scopeTotal("exit." + name) > 0, taken)
                << virtModeName(mode) << " " << name;
        }
        EXPECT_EQ(exit_scopes.size(), reached) << virtModeName(mode);
        EXPECT_GE(reached, 5u) << virtModeName(mode);
    }
}

// -------------------------------------------- conservation invariant

/** Sum of the per-exit-reason latency histograms == total duration of
 *  the trace layer's exit.<reason> spans: the PMU and the trace layer
 *  must tell the same story about where nested-trap time went. */
void
expectHistogramTraceConservation(VirtMode mode)
{
    NestedSystem sys(mode);
    TraceSink sink(sys.machine().events());
    sys.machine().setTraceSink(&sink);
    sys.api().cpuid(1);            // warm up (EPT fills)
    sys.machine().resetCounters(); // drop warm-up histogram samples
    sink.setEnabled(true);
    for (int i = 0; i < 10; ++i)
        sys.api().cpuid(1);
    sys.machine().setTraceSink(nullptr);

    Ticks span_total = 0;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.phase == TraceEvent::Phase::Complete &&
            ev.name.rfind("exit.", 0) == 0) {
            span_total += ev.duration;
        }
    }

    std::int64_t hist_total = 0;
    MetricsSnapshot snap = sys.machine().snapshotMetrics();
    for (const MetricSample &s : snap.samples) {
        if (s.kind == MetricKind::Histogram &&
            s.name.rfind("l2.exit_latency.", 0) == 0) {
            hist_total += s.hist.sum;
        }
    }

    EXPECT_GT(span_total, 0);
    EXPECT_EQ(hist_total, span_total);
}

TEST(MetricsPmu, NestedCpuidHistogramsConserveTraceTime)
{
    expectHistogramTraceConservation(VirtMode::Nested);
}

TEST(MetricsPmu, SwSvtCpuidHistogramsConserveTraceTime)
{
    expectHistogramTraceConservation(VirtMode::SwSvt);
}

TEST(MetricsPmu, HwSvtCpuidHistogramsConserveTraceTime)
{
    expectHistogramTraceConservation(VirtMode::HwSvt);
}

// --------------------------------------------- deterministic export

std::string
metricsDump(int jobs)
{
    BenchHarness bench("metrics_probe", "determinism probe");
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        bench.add(std::string("cpuid.") + virtModeName(mode), mode,
                  [](NestedSystem &sys, ScenarioResult &r) {
                      for (int i = 0; i < 5; ++i)
                          sys.api().cpuid(1);
                      r.record("ticks", static_cast<double>(
                                            sys.machine().now()));
                  });
    }
    SweepOptions sweep_options;
    sweep_options.jobs = jobs;
    SweepResults results = runSweep(bench.scenarios(), sweep_options);
    EXPECT_TRUE(results.allOk());
    std::ostringstream os;
    bench.writeMetricsJson(os, results, BenchOptions{});
    return os.str();
}

TEST(MetricsPmu, MetricsJsonIdenticalAcrossWorkerCounts)
{
    std::string serial = metricsDump(1);
    std::string parallel = metricsDump(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // Sanity on the shape: scenario snapshots carry PMU samples and
    // stage attribution.
    EXPECT_NE(serial.find("\"pmu\":"), std::string::npos);
    EXPECT_NE(serial.find("\"l2.exit.CPUID\""), std::string::npos);
    EXPECT_NE(serial.find("\"stages\":"), std::string::npos);
}

TEST(MetricsPmu, BreakdownReportsExitTables)
{
    NestedSystem sys(VirtMode::Nested);
    for (int i = 0; i < 3; ++i)
        sys.api().cpuid(1);
    std::ostringstream os;
    sys.machine().snapshotMetrics().writeBreakdown(os);
    std::string report = os.str();
    EXPECT_NE(report.find("CPUID"), std::string::npos);
    EXPECT_NE(report.find("Reason"), std::string::npos);
}

} // namespace
} // namespace svtsim
