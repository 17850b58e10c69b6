/**
 * @file
 * The benchmark's workloads. Each runs one batch — the whole workload
 * once, at one seed — through public simulator calls only, and
 * returns its host timings, the exact simulated counts it read back
 * and the invariant checks it made.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "spans.h"

namespace perfbench {

/** Workload sizes; the tests shrink them. */
struct WorkloadSize
{
    /** exit_storm: trap + compute steps per mode. */
    int stormSteps = 40000;
    /** exit_storm: calls in the cpuid-only phase per mode. */
    int cpuidCalls = 4000;
    /** memcached_pair: simulated serving time per load point, us. */
    double pairDurationUs = 100000;
    /** fleet_mix: tenant run lengths as a share of fleet_scale's
     *  (memcached 200 ms, TPC-C 400 ms, video 2 s); the tenant set and
     *  vCPU counts are fleet_scale's full ones. */
    double fleetDurationShare = 0.25;
};

/** A small size for tests (each workload well under a second). */
WorkloadSize testSize();

/** One batch of one workload. */
struct BatchResult
{
    /** Host time building machines, stacks, devices, links and
     *  placements. */
    double setupSec = 0;
    /** Host wall time of the simulation phase (set-up excluded). */
    double wallSec = 0;
    /** Process user+sys CPU over the simulation phase. */
    double cpuSec = 0;
    /** Simulated us advanced on each scenario's primary machine. */
    double simUs = 0;

    /** Per-layer host figures of this batch (seconds or counts). */
    std::map<std::string, double> host;
    /** Exact simulated quantities, in a fixed order: reported as
     *  metrics and hashed into the fingerprint. */
    std::vector<std::pair<std::string, double>> exact;
    /** Host ns per timed call, keyed by metric (traced batches). */
    std::map<std::string, std::vector<double>> samples;

    /** Invariant checks made; each is one attempted operation. */
    std::uint64_t attempted = 0;
    /** One line per violated invariant. */
    std::vector<std::string> failures;

    /** Count one check; record @p what when it fails. */
    bool expect(bool ok, const std::string &what);

    /** Fingerprint over `exact`. */
    Fingerprint fingerprint() const;
};

using WorkloadFn = BatchResult (*)(std::uint64_t seed,
                                   const WorkloadSize &size,
                                   SpanRecorder *trace);

struct WorkloadInfo
{
    const char *name;
    WorkloadFn run;
};

const std::vector<WorkloadInfo> &workloads();

/** The named workload, or nullptr. */
const WorkloadInfo *findWorkload(const std::string &name);

/** Every per-layer metric a traced run prints, with its unit. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

BatchResult runMemcachedPair(std::uint64_t seed, const WorkloadSize &size,
                             SpanRecorder *trace);
BatchResult runExitStorm(std::uint64_t seed, const WorkloadSize &size,
                         SpanRecorder *trace);
BatchResult runFleetMix(std::uint64_t seed, const WorkloadSize &size,
                        SpanRecorder *trace);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
