/**
 * @file
 * Host-side clocks and process accounting for the benchmark: wall
 * and CPU clocks, rusage deltas, /proc/stat steal ticks and CPU
 * pinning. Nothing here touches the simulator.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>

namespace perfbench {

/** Monotonic host clock in nanoseconds. */
std::uint64_t wallNs();

/** Monotonic host clock in seconds. */
double wallSec();

/** CPU time of the calling thread, seconds. */
double threadCpuSec();

/** Process-wide resource usage at one instant. */
struct Usage
{
    /** user + sys CPU of every thread of the process, seconds. */
    double cpuSec = 0;
    long voluntaryCsw = 0;
    long involuntaryCsw = 0;
};

Usage processUsage();

/**
 * Peak resident set of this process image (VmHWM), kilobytes.
 * ru_maxrss is not used: it carries over the high-water mark of the
 * parent that forked and exec'd us (the Python launcher).
 */
long peakRssKb();

/** Sum of the steal column of the aggregate "cpu" line of /proc/stat
 *  (0 when unreadable). */
std::uint64_t stealTicks();

/** Online CPUs. */
int onlineCpus();

/**
 * Pin the whole process (threads started later inherit it) to the
 * last CPU of its current affinity mask. Returns that CPU; -1 when
 * pinning failed (the run continues unpinned).
 */
int pinToLastCpu();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
