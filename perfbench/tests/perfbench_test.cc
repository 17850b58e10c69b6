/**
 * @file
 * Tests of the benchmark's own code: fingerprint determinism, tracing
 * that leaves the simulation alone, span self-time arithmetic, metric
 * naming, and the list of per-layer metrics in BENCHMARK.json.
 */

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "report.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
  protected:
    BatchResult run(std::uint64_t seed, SpanRecorder *trace = nullptr)
    {
        return findWorkload(GetParam())->run(seed, testSize(), trace);
    }
};

std::string
describe(const BatchResult &b)
{
    std::string s;
    for (const std::string &f : b.failures)
        s += f + "\n";
    return s;
}

} // namespace

TEST_P(EveryWorkload, SameSeedSameFingerprintOtherSeedOther)
{
    const BatchResult a = run(3);
    const BatchResult b = run(3);
    const BatchResult c = run(4);
    ASSERT_FALSE(a.exact.empty());
    EXPECT_EQ(a.fingerprint().value(), b.fingerprint().value());
    EXPECT_NE(a.fingerprint().value(), c.fingerprint().value());
}

TEST_P(EveryWorkload, TracingDoesNotPerturbTheSimulation)
{
    SpanRecorder rec;
    const BatchResult plain = run(5);
    const BatchResult traced = run(5, &rec);
    EXPECT_EQ(plain.fingerprint().value(), traced.fingerprint().value());
    EXPECT_FALSE(rec.spans().empty());
    for (const Span &s : rec.spans())
        EXPECT_GE(s.endNs, s.startNs) << s.name;
}

TEST_P(EveryWorkload, InvariantsHoldAndAreCounted)
{
    const BatchResult b = run(7);
    EXPECT_GT(b.attempted, 0u);
    EXPECT_TRUE(b.failures.empty()) << describe(b);
    EXPECT_GT(b.wallSec, 0);
    EXPECT_GT(b.simUs, 0);
    EXPECT_GT(b.setupSec, 0);
}

INSTANTIATE_TEST_SUITE_P(All, EveryWorkload,
                         ::testing::Values("memcached_pair", "exit_storm",
                                           "fleet_mix"));

TEST(ExitStorm, FiresNoEventsAndTimesEveryCall)
{
    SpanRecorder rec;
    const BatchResult b = runExitStorm(9, testSize(), &rec);
    double events = -1;
    for (const auto &[k, v] : b.exact)
        if (k == "sim.events")
            events = v;
    EXPECT_EQ(events, 0);
    const WorkloadSize size = testSize();
    // One compute + one trap per step, plus the cpuid phase, per mode.
    EXPECT_EQ(b.samples.at("arch.compute_host_ns.nested").size(),
              std::size_t(size.stormSteps));
    EXPECT_EQ(b.samples.at("hv.trap_host_ns_p99.sw_svt").size(),
              std::size_t(size.stormSteps + size.cpuidCalls));
}

TEST(Spans, SelfTimeSubtractsSameThreadChildrenOnly)
{
    // workload(0..100) -> run(10..90) -> call(20..30), call(40..45)
    // driver on thread 1 (15..85), caused by run, -> call(50..60).
    auto span = [](std::uint32_t id, std::uint32_t parent,
                   std::uint32_t thread, Layer layer, std::uint64_t a,
                   std::uint64_t b) {
        Span s;
        s.id = id;
        s.parent = parent;
        s.thread = thread;
        s.layer = layer;
        s.startNs = a * 1000000000ull;
        s.endNs = b * 1000000000ull;
        return s;
    };
    const std::vector<Span> tree = {
        span(1, 0, 0, Layer::Bench, 0, 100),
        span(2, 1, 0, Layer::System, 10, 90),
        span(3, 2, 0, Layer::Hv, 20, 30),
        span(4, 2, 0, Layer::Arch, 40, 45),
        span(5, 2, 1, Layer::Workloads, 15, 85),
        span(6, 5, 1, Layer::Hv, 50, 60),
    };
    const auto self = layerSelfTimes(tree);
    EXPECT_DOUBLE_EQ(self[int(Layer::Bench)], 20);  // 100 - 80
    EXPECT_DOUBLE_EQ(self[int(Layer::System)], 65); // 80 - 10 - 5
    EXPECT_DOUBLE_EQ(self[int(Layer::Hv)], 20);     // 10 + 10
    EXPECT_DOUBLE_EQ(self[int(Layer::Arch)], 5);
    EXPECT_DOUBLE_EQ(self[int(Layer::Workloads)], 60); // 70 - 10
    EXPECT_DOUBLE_EQ(self[int(Layer::Io)], 0);
}

TEST(Spans, RecorderNestsOnOneThread)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer", Layer::Bench);
        ScopedSpan inner(&rec, "inner", Layer::System);
        EXPECT_EQ(currentSpan(), inner.id());
    }
    EXPECT_EQ(currentSpan(), 0u);
    const auto spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    ScopedSpan off(nullptr, "off", Layer::Bench);
    EXPECT_EQ(off.id(), 0u);
}

TEST(Report, MetricNamesAndUnitsUseTheAllowedAlphabet)
{
    std::set<std::string> seen;
    for (const auto &[name, unit] : perLayerMetrics()) {
        EXPECT_TRUE(validMetricName(name)) << name;
        EXPECT_TRUE(validUnit(unit)) << name << " " << unit;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    }
    for (const char *name : {"wall_s", "cpu_s", "sim_us_per_wall_s",
                             "peak_rss_mb", "setup_s"})
        EXPECT_TRUE(validMetricName(name));
    EXPECT_FALSE(validMetricName("hv.cpuid ns"));
    EXPECT_FALSE(validMetricName("µs"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_TRUE(validUnit("us/s"));
    EXPECT_TRUE(validUnit("%"));
}

TEST(Report, BenchmarkJsonListsEveryPerLayerMetric)
{
    std::ifstream in(PERFBENCH_REPO_ROOT "/BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found";
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto perLayer = text.find("\"per_layer\"");
    ASSERT_NE(perLayer, std::string::npos);
    const std::string section = text.substr(perLayer);
    std::set<std::string> listed;
    const std::regex entry(
        "\\{\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
    for (auto it = std::sregex_iterator(section.begin(), section.end(),
                                        entry);
         it != std::sregex_iterator(); ++it)
        listed.insert((*it)[1].str() + " " + (*it)[2].str());
    std::set<std::string> emitted;
    for (const auto &[name, unit] : perLayerMetrics())
        emitted.insert(name + " " + unit);
    EXPECT_EQ(listed, emitted);
}

TEST(Report, ResultLineShape)
{
    const std::string line = resultJson(
        true, 12, 0, {{"wall_s", 1.25, "s"}, {"setup_s", 0.5, "s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": "
              "\"s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(Report, MedianAndQuantile)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0);
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100);
}

TEST(Report, FingerprintHashesKeysAndExactBits)
{
    Fingerprint a, b, c;
    a.add("x", 1.0);
    b.add("x", 1.0);
    c.add("x", 1.0000000000000002);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_NE(a.value(), c.value());
    Fingerprint d;
    d.add("y", 1.0);
    EXPECT_NE(a.value(), d.value());
    EXPECT_EQ(a.hex().size(), 16u);
}
