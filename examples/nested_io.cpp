/**
 * @file
 * Nested I/O walkthrough: a guest in a nested VM talks to its
 * virtio-net and virtio-blk devices; the example prints where the
 * exits go and how SVt shortens the path.
 *
 *   $ ./build/examples/nested_io
 */

#include <cstdio>

#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/net_fabric.h"
#include "io/virtio_net.h"
#include "system/nested_system.h"
#include "workloads/guest_os.h"

using namespace svtsim;

namespace {

void
runOnce(VirtMode mode)
{
    NestedSystem sys(mode);
    Machine &machine = sys.machine();

    // Wire the paper's device stack: virtio-net over a 10 GbE link
    // with an echo peer, and a virtio disk on a ramdisk.
    NetFabric fabric(machine, machine.costs().wireLatency,
                     machine.costs().linkBitsPerSec);
    VirtioNetStack net(sys.stack(), fabric);
    NetPort &peer = fabric.peer();
    peer.setReceiveHandler([&](NetPacket pkt) {
        machine.events().scheduleIn(
            machine.costs().remotePeerTurnaround,
            [&peer, pkt] { peer.send(pkt); });
    });
    RamDisk disk(machine, "ramdisk");
    VirtioBlkStack blk(sys.stack(), disk);

    GuestApi &api = sys.api();

    // One network round trip.
    bool got = false;
    net.setRxHandler([&](NetPacket) { got = true; });
    Ticks t0 = machine.now();
    net.send(64, 1);
    GuestOs::idleWait(api, [&] { return got; });
    Ticks rtt = machine.now() - t0;

    // One disk read.
    bool done = false;
    blk.setCompletionHandler([&](std::uint64_t) { done = true; });
    t0 = machine.now();
    blk.submit(1, 0, 4096, false);
    GuestOs::idleWait(api, [&] { return done; });
    Ticks disk_lat = machine.now() - t0;

    std::printf("  %-16s net RTT %7.1f us   disk read %7.1f us   "
                "exits: %llu total, %llu reflected to L1\n",
                virtModeName(mode), toUsec(rtt), toUsec(disk_lat),
                static_cast<unsigned long long>(
                    machine.counter("vmx.exit")),
                static_cast<unsigned long long>(
                    machine.counter("l0.reflect")));
}

} // namespace

int
main()
{
    std::printf("Nested virtio I/O: every doorbell and interrupt "
                "walks the L2->L0->L1->L0->L2 trap path\n\n");
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt})
        runOnce(mode);
    std::printf("\nSW SVt moves the L0<->L1 half of each round onto "
                "the SMT sibling; HW SVt turns every switch into a\n"
                "thread stall/resume, which is where the factor-2 "
                "latency win of Figure 7 comes from.\n");
    return 0;
}
