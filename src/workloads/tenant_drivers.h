/**
 * @file
 * Multi-flow open-loop ETC load generator: the fleet's memcached
 * tenants, and fig8's MutilateClient as a single flow.
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
 * serving slot, then call run() from the machine's cluster driver.
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
     * Offer every flow's load for @p duration (from the machine's
     * current clock), then idle through @p grace to drain in-flight
     * responses. Synchronous: call from the loadgen machine's cluster
     * driver. Receive handlers are cleared on return.
     */
    void run(Ticks duration, Ticks grace = msec(5));

    int flowCount() const { return static_cast<int>(flows_.size()); }
    const FlowStats &flow(int i) const { return flows_[i]->stats; }

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
