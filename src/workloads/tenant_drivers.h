/**
 * @file
 * Multi-flow open-loop ETC load generator: the fleet's memcached
 * tenants, and a single flow for fig8's MutilateClient and for
 * MemcachedServer::serveLocalLoad.
 *
 * A memcached tenant in the fleet owns one bare-metal loadgen machine
 * fanned out over one CrossLink per serving slot (the cluster_speed
 * pool, promoted to a reusable driver). Each flow is an independent
 * open-loop Poisson arrival process sampling the ETC request mix;
 * response latency is measured per flow so the tenant rollup can merge
 * the distributions.
 */

#ifndef SVTSIM_WORKLOADS_TENANT_DRIVERS_H
#define SVTSIM_WORKLOADS_TENANT_DRIVERS_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/machine.h"
#include "io/net_port.h"
#include "sim/random.h"
#include "stats/summary.h"
#include "workloads/memcached.h"

namespace svtsim {

/**
 * N open-loop ETC flows on one bare-metal machine. Add one flow per
 * serving slot, then call run() from the machine's cluster driver (or
 * start()/stop() around a server running on the same machine).
 */
class OpenLoopEtcLoadgen
{
  public:
    /** Per-flow outcome. */
    struct FlowStats
    {
        std::uint64_t sent = 0;
        std::uint64_t completed = 0;
        Percentiles latency;
    };

    OpenLoopEtcLoadgen(Machine &machine, std::uint64_t seed);

    /** Register a flow offering @p qps on @p port; flows are seeded
     *  seed+index. Call before run(). Returns the flow index. */
    int addFlow(NetPort &port, double qps);

    /**
     * Install every flow's receive handler and arm its arrivals for
     * @p duration from the machine's current clock. Returns the
     * absolute end of the offered load. Use when another driver (a
     * MemcachedServer on the same machine) runs the clock; call
     * stop() once it is done.
     */
    Ticks start(Ticks duration);

    /** Clear every flow's receive handler. */
    void stop();

    /**
     * start(@p duration), idle through the run plus @p grace to drain
     * in-flight responses, then stop(). Synchronous: call from the
     * loadgen machine's cluster driver.
     */
    void run(Ticks duration, Ticks grace = msec(5));

    int flowCount() const { return static_cast<int>(flows_.size()); }
    const FlowStats &flow(int i) const { return flows_[i]->stats; }

    /** Flow @p i as a load point measured from @p t0 to now. */
    MemcachedPoint point(int i, Ticks t0) const;

  private:
    struct Flow
    {
        NetPort &port;
        double qps;
        Rng rng;
        EtcWorkload etc;
        std::uint64_t nextId = 1;
        std::unordered_map<std::uint64_t, Ticks> inflight;
        FlowStats stats;

        Flow(NetPort &p, double q, std::uint64_t seed)
            : port(p), qps(q), rng(seed)
        {}
    };

    void arm(Flow &flow, Ticks end);

    Machine &machine_;
    std::uint64_t seed_;
    std::vector<std::unique_ptr<Flow>> flows_;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_TENANT_DRIVERS_H
