#include "workloads/tenant_drivers.h"

#include <algorithm>

namespace svtsim {

OpenLoopEtcLoadgen::OpenLoopEtcLoadgen(Machine &machine,
                                       std::uint64_t seed)
    : machine_(machine), seed_(seed)
{}

int
OpenLoopEtcLoadgen::addFlow(NetPort &port, double qps)
{
    const std::uint64_t seed = seed_ + flows_.size();
    flows_.push_back(std::make_unique<Flow>(port, qps, seed));
    return static_cast<int>(flows_.size()) - 1;
}

void
OpenLoopEtcLoadgen::arm(Flow &flow, Ticks end)
{
    Machine &m = machine_;
    const Ticks gap = std::max<Ticks>(
        static_cast<Ticks>(flow.rng.exponential(1e12 / flow.qps)), 1);
    const Ticks when = m.now() + gap;
    if (when >= end)
        return;
    m.events().schedule(when, [this, &flow, end] {
        Machine &mm = machine_;
        const std::uint64_t id = flow.nextId++;
        const bool get = flow.etc.isGet(flow.rng);
        const std::uint32_t vsize = flow.etc.sampleValueSize(flow.rng);
        const std::uint32_t req_bytes =
            flow.etc.sampleKeySize(flow.rng) + (get ? 24 : 24 + vsize);
        flow.inflight[id] = mm.now();
        ++flow.stats.sent;
        flow.port.send(NetPacket{
            id, req_bytes,
            (static_cast<std::uint64_t>(vsize) << 1) | (get ? 1 : 0)});
        arm(flow, end);
    }, "mutilate-arrival");
}

Ticks
OpenLoopEtcLoadgen::start(Ticks duration)
{
    Machine &m = machine_;
    const Ticks end = m.now() + duration;
    for (auto &flowp : flows_) {
        Flow &flow = *flowp;
        flow.port.setReceiveHandler([&flow, &m](NetPacket pkt) {
            auto it = flow.inflight.find(pkt.id);
            if (it != flow.inflight.end()) {
                flow.stats.latency.add(toUsec(m.now() - it->second));
                flow.inflight.erase(it);
                ++flow.stats.completed;
            }
        });
        arm(flow, end);
    }
    return end;
}

void
OpenLoopEtcLoadgen::stop()
{
    for (auto &flowp : flows_)
        flowp->port.setReceiveHandler([](NetPacket) {});
}

void
OpenLoopEtcLoadgen::run(Ticks duration, Ticks grace)
{
    Machine &m = machine_;
    // Idle through the run plus the drain grace (requests dropped
    // under overload never complete; the grace bounds the wait).
    // Under a cluster gate idleUntil can return early at an epoch
    // boundary, so loop until the clock really arrives.
    const Ticks drained = start(duration) + grace;
    while (m.now() < drained)
        m.idleUntil(drained);
    stop();
}

MemcachedPoint
OpenLoopEtcLoadgen::point(int i, Ticks t0) const
{
    const FlowStats &flow = flows_[i]->stats;
    MemcachedPoint point;
    point.offeredQps = flows_[i]->qps;
    point.completed = flow.completed;
    point.achievedQps = static_cast<double>(flow.completed) /
                        toSec(machine_.now() - t0);
    if (flow.latency.count()) {
        point.avgUsec = flow.latency.mean();
        point.p99Usec = flow.latency.p99();
    }
    return point;
}

} // namespace svtsim
