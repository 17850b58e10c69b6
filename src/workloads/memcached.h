/**
 * @file
 * memcached + mutilate (Section 6.3.1): the ETC request mix and the
 * load-point record. The server (MemcachedServer) and the mutilate
 * client (MutilateClient, OpenLoopEtcLoadgen) live in remote_peer.h
 * and tenant_drivers.h; latency is measured at the client against a
 * 500 us 99th-percentile SLA.
 */

#ifndef SVTSIM_WORKLOADS_MEMCACHED_H
#define SVTSIM_WORKLOADS_MEMCACHED_H

#include <cstdint>

#include "sim/random.h"

namespace svtsim {

/** Facebook ETC request distributions (Atikoglu et al. 2012). */
struct EtcWorkload
{
    /** Fraction of GETs (ETC is read-dominated). */
    double getRatio = 0.97;
    /** Value sizes: generalized Pareto (bytes). */
    double valueLocation = 0.0;
    double valueScale = 214.48;
    double valueShape = 0.348;
    /** Cap for the value-size tail. */
    std::uint32_t valueCap = 8192;
    /** Key sizes: roughly 16-40 bytes. */
    std::uint32_t keyMin = 16;
    std::uint32_t keyMax = 40;

    std::uint32_t sampleValueSize(Rng &rng) const;
    std::uint32_t sampleKeySize(Rng &rng) const;
    bool isGet(Rng &rng) const { return rng.chance(getRatio); }
};

/** One measured load point of the latency-vs-throughput curve. */
struct MemcachedPoint
{
    double offeredQps = 0;
    double achievedQps = 0;
    double avgUsec = 0;
    double p99Usec = 0;
    std::uint64_t completed = 0;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_MEMCACHED_H
