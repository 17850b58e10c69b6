#include "system/cluster.h"

#include <algorithm>
#include <exception>

#include "sim/log.h"
#include "sim/trace.h"
#include "sim/worker_pool.h"

namespace svtsim {

/*
 * Lookahead safety argument (see also the header and DESIGN.md):
 *
 * Let floor_j be machine j's floor at a barrier and C[j][i] the
 * at-least-one-hop shortest-path latency from j to i over the links
 * (Floyd-Warshall with the diagonal seeded unreachable, so C[i][i]
 * converges to the shortest *cycle* through i; links are
 * bidirectional so C is symmetric; maxTick = no path). Machine i's
 * horizon is H_i = min over ALL j of (floor_j + C[j][i]) — the
 * j = i term is load-bearing: i's own state can cause a future
 * arrival back at itself (send a request at floor_i, the neighbor
 * responds), and that echo lands no earlier than floor_i + C[i][i].
 * Any packet that can reach i originates from some machine j's
 * current state, i.e. from an action at local time t >= floor_j (j's
 * first action in the window is at its floor, every later action —
 * including reactions to packets merged at later barriers — is later
 * still), and arrives after >= 1 hops, so at
 * t + serialization + path latency >= floor_j + C[j][i] >= H_i.
 *
 * Horizons granted earlier stay safe across later epochs because H_i
 * is monotone: a stepped machine's floor rises to >= its horizon,
 * an unstepped machine's floor can only drop to a merged arrival
 * time >= H_j(E) = min_k(floor_k(E) + C[k][j]), and C obeys the
 * triangle inequality (concatenating >=1-hop paths k->j and j->i
 * yields a >=1-hop path k->i), so
 * H_i(E+1) >= min_k(floor_k(E) + C[k][i]) = H_i(E). Hence every
 * staged arrival is >= the destination's largest granted horizon
 * (asserted per delivery in mergeStaged): merging at the barrier
 * loses nothing and reorders nothing. A machine with no inbound path
 * can never receive anything and runs to completion in one window
 * (H = maxTick); having no links it cannot send either.
 *
 * Progress: the machine with the global min floor gets
 * H >= minFloor + (min latency or cycle) > its floor, so it is
 * always steppable, and stepping it raises its floor to >= H — the
 * global min floor strictly increases every epoch.
 *
 * Byte-identity across worker counts: within a window machines only
 * touch their own state plus the src side of their links, so each
 * machine's window execution is a pure function of its state at the
 * window start; the barrier merge orders staged packets canonically
 * by (deliveryTick, srcMachineId, seq) (ties across distinct links
 * broken by link creation order via stable_sort over the fixed drain
 * order); horizons are computed from simulated state only. Nothing
 * anywhere depends on wall-clock interleaving.
 */

Ticks
Cluster::DriverGate::awaitHorizon(Ticks target)
{
    // The fiber may be resumed on another worker, and the C++ runtime
    // keeps in-flight and caught exceptions per thread.
    simAssert(std::uncaught_exceptions() == 0 && !std::current_exception(),
              "Cluster: driver parked while an exception is in flight "
              "or being handled");
    parkedTarget = target;
    fiber.yield();
    parkedTarget = maxTick;
    return grant;
}

Cluster::Cluster(std::uint64_t baseSeed) : baseSeed_(baseSeed) {}

int
Cluster::addMachine(const std::string &name, VirtMode mode,
                    StackConfig config,
                    std::optional<std::uint64_t> seedOffset)
{
    simAssert(!ran_, "Cluster::addMachine after run()");
    const int id = size();
    const std::uint64_t offset =
        seedOffset ? *seedOffset : static_cast<std::uint64_t>(id);
    auto node = std::make_unique<Node>();
    node->name = name;
    node->system =
        std::make_unique<NestedSystem>(mode, config, baseSeed_ + offset);
    nodes_.push_back(std::move(node));
    return id;
}

int
Cluster::addMachine(const std::string &name,
                    const MachineTopology &topo, StackConfig config,
                    std::optional<std::uint64_t> seedOffset)
{
    simAssert(!ran_, "Cluster::addMachine after run()");
    const int id = size();
    const std::uint64_t offset =
        seedOffset ? *seedOffset : static_cast<std::uint64_t>(id);
    auto node = std::make_unique<Node>();
    node->name = name;
    node->system =
        std::make_unique<NestedSystem>(topo, config, baseSeed_ + offset);
    nodes_.push_back(std::move(node));
    return id;
}

NestedSystem &
Cluster::system(int id)
{
    simAssert(id >= 0 && id < size(), "Cluster::system bad id");
    return *nodes_[static_cast<std::size_t>(id)]->system;
}

Machine &
Cluster::machine(int id)
{
    return system(id).machine();
}

const std::string &
Cluster::machineName(int id) const
{
    simAssert(id >= 0 && id < size(), "Cluster::machineName bad id");
    return nodes_[static_cast<std::size_t>(id)]->name;
}

CrossLink &
Cluster::connect(int a, int b, Ticks latency, double bits_per_sec)
{
    simAssert(!ran_, "Cluster::connect after run()");
    simAssert(a != b, "Cluster::connect machine to itself");
    links_.push_back(std::make_unique<CrossLink>(
        machine(a), a, machine(b), b, latency, bits_per_sec));
    linkEnds_.push_back({a, b, latency});
    lookahead_ = std::min(lookahead_, latency);
    return *links_.back();
}

void
Cluster::setDriver(int id, std::function<void(NestedSystem &)> fn)
{
    simAssert(!ran_, "Cluster::setDriver after run()");
    simAssert(id >= 0 && id < size(), "Cluster::setDriver bad id");
    nodes_[static_cast<std::size_t>(id)]->driver = std::move(fn);
}

void
Cluster::installFaultPlan(const FaultPlan &plan)
{
    for (auto &np : nodes_)
        np->system->machine().installFaultPlan(plan);
}

Ticks
Cluster::floorOf(const Node &n) const
{
    const Ticks next = n.system->machine().events().nextEventTime();
    if (n.driving())
        return std::min(next, n.gate->parkedTarget);
    return next;
}

void
Cluster::stepMachine(Node &n, Ticks horizon)
{
    if (n.driving()) {
        // Run the driver on this worker until it parks again (or
        // finishes).
        n.gate->grant = horizon;
        n.gate->fiber.resume();
        return;
    }
    // Follower (or finished-driver) machine: plain horizon drain on
    // the worker itself. The drain moves the clock from event to
    // event with no driver code in between, so any advancement not
    // already attributed by handler consume() calls is idle time —
    // charge it, or the trace conservation invariant (attributed +
    // idle + unattributed == elapsed) breaks on follower machines.
    Machine &m = n.system->machine();
    TraceSink *sink = m.events().traceSink();
    if (SVTSIM_UNLIKELY(sink != nullptr)) {
        const TraceSink::Conservation before = sink->checkConservation();
        const Ticks t0 = m.now();
        m.events().runUntilTick(horizon);
        const TraceSink::Conservation after = sink->checkConservation();
        const Ticks accounted =
            (after.attributed + after.idle + after.unattributed) -
            (before.attributed + before.idle + before.unattributed);
        sink->attributeIdle((m.now() - t0) - accounted);
        return;
    }
    m.events().runUntilTick(horizon);
}

std::uint64_t
Cluster::mergeStaged()
{
    scratch_.clear();
    for (auto &l : links_)
        l->drainStaged(scratch_);
    if (scratch_.empty())
        return 0;
    std::stable_sort(scratch_.begin(), scratch_.end(),
                     CrossLink::canonicalLess);
    for (const CrossLink::Delivery &d : scratch_) {
        const Ticks granted =
            nodes_[static_cast<std::size_t>(d.dstId)]->granted;
        if (d.arrival < granted)
            panic("Cluster: staged arrival %lld below machine %d's "
                  "granted horizon %lld (lookahead violated)",
                  static_cast<long long>(d.arrival), d.dstId,
                  static_cast<long long>(granted));
        d.link->deliver(d);
    }
    return scratch_.size();
}

std::vector<Ticks>
Cluster::pairLookahead() const
{
    const int n = size();
    std::vector<Ticks> dist(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
        maxTick);
    auto at = [&dist, n](int i, int j) -> Ticks & {
        return dist[static_cast<std::size_t>(i) * n + j];
    };
    for (const LinkEnds &l : linkEnds_) {
        at(l.a, l.b) = std::min(at(l.a, l.b), l.latency);
        at(l.b, l.a) = std::min(at(l.b, l.a), l.latency);
    }
    for (int k = 0; k < n; ++k)
        for (int i = 0; i < n; ++i) {
            const Ticks dik = at(i, k);
            if (dik >= maxTick)
                continue;
            for (int j = 0; j < n; ++j) {
                const Ticks dkj = at(k, j);
                if (dkj >= maxTick)
                    continue;
                const Ticks via =
                    dik >= maxTick - dkj ? maxTick : dik + dkj;
                if (via < at(i, j))
                    at(i, j) = via;
            }
        }
    return dist;
}

ClusterStats
Cluster::run(int jobs)
{
    simAssert(!ran_, "Cluster::run may only be called once");
    ran_ = true;
    ClusterStats stats;
    if (nodes_.empty())
        return stats;

    bool anyDriver = false;
    try {
        for (auto &np : nodes_) {
            Node &n = *np;
            if (!n.driver)
                continue;
            anyDriver = true;
            n.gate = std::make_unique<DriverGate>([this, &n] {
                try {
                    n.driver(*n.system);
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lk(errorMutex_);
                    if (driverError_.empty())
                        driverError_ = n.name + ": " + e.what();
                }
            });
            // Run the driver's setup code now, in machine-id order;
            // horizon 0 parks it at its first advance, which is where
            // the epoch loop picks it up.
            n.system->machine().events().setAdvanceGate(n.gate.get(), 0);
            n.gate->fiber.resume();
        }

        std::unique_ptr<WorkerPool> pool;
        if (jobs > 1)
            pool = std::make_unique<WorkerPool>(
                std::min(jobs, size()));

        // Reusable per-machine epoch-step slots (WorkerPool bulk
        // path): built once, borrowed by pointer every window.
        for (auto &np : nodes_) {
            Node *n = np.get();
            // Pool tasks must not throw: a follower drain that panics
            // (an event handler bug) is recorded and surfaced after
            // the barrier instead of escaping into the pool.
            n->step = [this, n] {
                try {
                    stepMachine(*n, n->horizon);
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lk(errorMutex_);
                    if (driverError_.empty())
                        driverError_ = n->name + ": " + e.what();
                }
            };
        }
        std::vector<std::function<void()> *> active;
        active.reserve(nodes_.size());

        // Per-pair lookahead matrix; fixed once links are final.
        const std::vector<Ticks> dist = pairLookahead();
        const int n = size();
        std::vector<Ticks> floors(static_cast<std::size_t>(n));

        for (;;) {
            stats.merged += mergeStaged();

            bool driverAlive = false;
            Ticks minFloor = maxTick;
            for (int i = 0; i < n; ++i) {
                Node &node = *nodes_[static_cast<std::size_t>(i)];
                if (node.driving())
                    driverAlive = true;
                floors[static_cast<std::size_t>(i)] = floorOf(node);
                minFloor = std::min(
                    minFloor, floors[static_cast<std::size_t>(i)]);
            }
            // Termination: every driver returned (driver mode), or
            // every queue drained (pure event-follower mode).
            if (anyDriver ? !driverAlive : minFloor == maxTick)
                break;
            if (minFloor == maxTick)
                panic("Cluster: deadlock — drivers outstanding but no "
                      "machine can ever advance");

            active.clear();
            for (int i = 0; i < n; ++i) {
                Node &node = *nodes_[static_cast<std::size_t>(i)];
                // H_i = min over ALL j of floor_j + C[j][i], where
                // C's diagonal is the shortest cycle through i: a
                // machine's own state can cause a future arrival back
                // at itself via a round trip (request out, response
                // in), so the self-term is load-bearing — without it
                // a request/response neighbor gets over-granted.
                // maxTick when nothing can ever reach i.
                Ticks h = maxTick;
                for (int j = 0; j < n; ++j) {
                    const Ticks d =
                        dist[static_cast<std::size_t>(j) * n + i];
                    const Ticks fj = floors[static_cast<std::size_t>(j)];
                    if (d >= maxTick || fj >= maxTick - d)
                        continue;
                    h = std::min(h, fj + d);
                }
                bool needs =
                    node.system->machine().events().nextEventTime() < h;
                if (node.driving())
                    needs = needs || node.gate->parkedTarget < h;
                if (!needs)
                    continue;
                node.horizon = h;
                node.granted = std::max(node.granted, h);
                active.push_back(&node.step);
            }
            // The global-min-floor machine always gets a horizon
            // above its floor, so someone can step.
            simAssert(!active.empty(),
                      "Cluster: epoch horizon failed to advance");
            ++stats.epochs;
            stats.steps += active.size();
            if (pool)
                pool->runTasks(active.data(), active.size());
            else
                for (auto *s : active)
                    (*s)();
            {
                std::lock_guard<std::mutex> lk(errorMutex_);
                if (!driverError_.empty())
                    throw SimError(driverError_);
            }
        }
    } catch (...) {
        // Resume every parked driver with maxTick (which un-gates its
        // queue) so it runs to its end and its frame unwinds — a
        // driver that then hits its own error records it — and
        // rethrow the coordinator's error.
        for (auto &np : nodes_) {
            if (!np->driving())
                continue;
            np->gate->grant = maxTick;
            np->gate->fiber.resume();
        }
        for (auto &np : nodes_)
            np->system->machine().events().setAdvanceGate(nullptr, 0);
        throw;
    }

    for (auto &np : nodes_)
        np->system->machine().events().setAdvanceGate(nullptr, 0);
    if (!driverError_.empty())
        throw SimError(driverError_);
    return stats;
}

} // namespace svtsim
