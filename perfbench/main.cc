/**
 * @file
 * perfbench: host-speed benchmark of the simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *
 * Pins the process to one CPU, runs one untimed warm-up batch, then
 * repeats batches of the workload at the given seed for S seconds. It
 * reports the slowest batch's times and the median set-up time. Every
 * batch must reproduce the warm-up's fingerprint of simulated outputs
 * and pass the workload's invariants.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates plain
 * and traced batches and prints the per-layer metrics, including the
 * traced-vs-plain wall overhead; --spans writes the last traced
 * batch's span tree as Chrome trace-event JSON.
 *
 * The last line of standard output is the JSON result.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "host.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Batches measured at the least, however long they take. */
constexpr int minBatches = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\nworkloads:",
                 msg);
    for (const WorkloadInfo &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (flag == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            if (!o.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (flag == "--spans") {
            o.spansPath = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad number for " + flag).c_str());
    }
    if (!findWorkload(o.workload))
        usage(("unknown workload '" + o.workload + "'").c_str());
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** Per-batch series collected over a run. */
struct Series
{
    std::vector<double> wall, cpu, setup, simRate;
    std::map<std::string, std::vector<double>> host;

    void add(const BatchResult &b)
    {
        wall.push_back(b.wallSec);
        cpu.push_back(b.cpuSec);
        setup.push_back(b.setupSec);
        simRate.push_back(b.simUs / b.wallSec);
        for (const auto &[k, v] : b.host)
            host[k].push_back(v);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const WorkloadInfo &wl = *findWorkload(opt.workload);
    const WorkloadSize size;

    // One CPU for every workload, fleet_mix's two cluster workers too:
    // on two CPUs of a 4-vCPU VM its wall time followed the
    // hypervisor's co-scheduling of both vCPUs (0.9 to 1.7 s across
    // runs) instead of the simulator.
    const int pinned = pinToLastCpu();
    const std::uint64_t steal0 = stealTicks();

    // Warm-up: caches, allocator arenas, page faults. Its fingerprint
    // is the reference every timed batch must reproduce.
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto account = [&](const BatchResult &b, const Fingerprint &ref) {
        attempted += b.attempted + 1;
        failed += b.failures.size();
        for (const std::string &f : b.failures)
            failures.push_back(f);
        if (b.fingerprint().value() != ref.value()) {
            ++failed;
            failures.push_back("fingerprint " + b.fingerprint().hex() +
                               " differs from the warm-up's " + ref.hex());
        }
    };
    const BatchResult warm = wl.run(opt.seed, size, nullptr);
    const Fingerprint ref = warm.fingerprint();
    account(warm, ref);

    Series plain, traced;
    SpanRecorder recorder;
    std::map<std::string, std::vector<double>> samples;
    const double start = wallSec();
    const int leastBatches = minBatches * (opt.trace ? 2 : 1);
    for (int n = 0; n < leastBatches || wallSec() - start < opt.seconds;
         ++n) {
        const bool tracedBatch = opt.trace && n % 2 == 1;
        if (tracedBatch)
            recorder.clear();
        BatchResult b = wl.run(opt.seed, size,
                               tracedBatch ? &recorder : nullptr);
        account(b, ref);
        (tracedBatch ? traced : plain).add(b);
        for (auto &[k, v] : b.samples)
            samples[k].insert(samples[k].end(), v.begin(), v.end());
    }
    const std::uint64_t steal = stealTicks() - steal0;

    std::vector<Metric> metrics;
    // The sample count behind each p99: the trap calls of every traced
    // batch pooled. Stated, not reported as a metric, since it grows
    // with the number of batches that fit into --seconds.
    std::string p99Samples;
    const double wall = median(plain.wall);
    if (!opt.trace) {
        // Times are the slowest plain batch of the run. On a shared
        // host, identical batches run up to 40 % faster in phases of a
        // few seconds, and how much of a run those phases cover varies:
        // over eight runs the batch median spread by up to 0.32
        // (quartile distance over median), the slowest batch, which
        // sits on a plateau of like batches, by up to 0.12.
        metrics = {
            {"wall_s", quantile(plain.wall, 1), "s"},
            {"cpu_s", quantile(plain.cpu, 1), "s"},
            {"sim_us_per_wall_s", quantile(plain.simRate, 0), "us/s"},
            {"peak_rss_mb", static_cast<double>(peakRssKb()) / 1024.0,
             "MB"},
            {"setup_s", median(plain.setup), "s"},
        };
    } else {
        std::map<std::string, double> values;
        for (const auto &[k, v] : plain.host)
            values[k] = median(v);
        for (const auto &[k, v] : warm.exact)
            values[k] = v;
        for (const auto &[k, v] : samples) {
            const bool p99 = k.rfind("hv.trap_host_ns_p99.", 0) == 0;
            values[k] = p99 ? quantile(v, 0.99) : median(v);
            if (p99)
                p99Samples += " " + k + "=" + std::to_string(v.size());
        }
        const double events = values["sim.events"];
        values["sim.host_ns_per_event"] =
            events > 0 ? wall * 1e9 / events : 0;
        values["trace.overhead_pct"] =
            (median(traced.wall) / wall - 1.0) * 100.0;
        values["host.steal_ticks"] = static_cast<double>(steal);
        const std::vector<Span> spans = recorder.spans();
        const auto self = layerSelfTimes(spans);
        for (int i = 0; i < numLayers; ++i)
            values[std::string("trace.self_s.") +
                   layerName(static_cast<Layer>(i))] = self[i];
        for (const auto &[name, unit] : perLayerMetrics())
            metrics.push_back({name, values[name], unit});
        if (!opt.spansPath.empty() &&
            !writeChromeTrace(opt.spansPath, spans))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.spansPath.c_str());
    }

    std::printf("perfbench %s seed=%llu batches=%zu traced_batches=%zu\n",
                wl.name, static_cast<unsigned long long>(opt.seed),
                plain.wall.size(), traced.wall.size());
    std::printf("host nproc=%d pinned_cpu=%s steal_ticks=%llu\n",
                onlineCpus(),
                pinned < 0 ? "none" : std::to_string(pinned).c_str(),
                static_cast<unsigned long long>(steal));
    std::printf("batch wall_s min=%.6f q1=%.6f median=%.6f q3=%.6f "
                "max=%.6f\n",
                quantile(plain.wall, 0), quantile(plain.wall, 0.25), wall,
                quantile(plain.wall, 0.75), quantile(plain.wall, 1));
    std::printf("fingerprint %s\n", ref.hex().c_str());
    if (opt.trace)
        std::printf("p99 samples:%s\n", p99Samples.c_str());
    for (const auto &[k, v] : warm.exact)
        if (k == "paper_err_pct")
            std::printf("paper_err_pct %.6f %%\n", v);
    for (const Metric &m : metrics)
        std::printf("%-36s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &f : failures)
        std::printf("FAILED %s\n", f.c_str());
    std::printf("%s\n",
                resultJson(failed == 0, attempted, failed, metrics).c_str());
    return 0;
}
