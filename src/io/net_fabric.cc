#include "io/net_fabric.h"

#include <algorithm>
#include <cmath>

#include "sim/compiler.h"
#include "sim/fault.h"
#include "sim/log.h"

namespace svtsim {

NetFabric::NetFabric(Machine &machine, Ticks latency,
                     double bits_per_sec)
    : machine_(machine), latency_(latency),
      bitsPerSec_(std::llround(bits_per_sec))
{
    if (bitsPerSec_ <= 0)
        fatal("NetFabric requires a positive link rate");
}

Ticks
NetFabric::serialization(std::uint32_t bytes) const
{
    return netlink::serializationTicks(bytes, bitsPerSec_);
}

void
NetFabric::transmit(const NetPacket &pkt, Direction &dir)
{
    if (!dir.handler)
        panic("NetFabric: transmit with no receiver configured");
    Ticks now = machine_.now();
    Ticks start = std::max(now, dir.freeAt);
    Ticks done = start + serialization(pkt.bytes);
    dir.freeAt = done;
    Ticks arrival = done + latency_;
    if (FaultInjector *faults = machine_.events().faultInjector();
        SVTSIM_UNLIKELY(faults != nullptr))
        arrival += faults->delay(FaultSite::VirtioCompletionDelay);
    // The closure carries a Direction pointer and the packet — the
    // stored handler is invoked in place, never copied per delivery —
    // and fits EventClosure's inline buffer.
    Direction *d = &dir;
    machine_.events().schedule(arrival, [d, pkt] {
        ++d->delivered;
        d->handler(pkt);
    }, "net-fabric");
}

} // namespace svtsim
