/**
 * @file
 * The nested virtio-net plumbing of the evaluation platform (Table 4:
 * "virtio-net-pci + vhost" at both L1 and L2):
 *
 *   L2 driver --kick--> L1 vhost --kick--> L0 vhost --> NIC --> wire
 *   wire --> NIC --> L0 IRQ --> L1 IRQ --> L2 IRQ --> L2 driver
 *
 * Every arrow that crosses a virtualization boundary goes through the
 * real trap paths of the VirtStack, so the exit structure (and its
 * cost under baseline / SW SVt / HW SVt) emerges mechanistically.
 *
 * With StackConfig::virtioQueues > 1 the L2-facing device becomes a
 * multi-queue virtio-net: each queue pair gets its own doorbell page,
 * tx/rx Virtqueues and L1 vhost worker, and completions are sharded
 * by packet id (id % queues). Completion interrupts per rx queue run
 * through an IrqCoalescer (exit-elision ladder rung 2).
 */

#ifndef SVTSIM_IO_VIRTIO_NET_H
#define SVTSIM_IO_VIRTIO_NET_H

#include <functional>
#include <memory>
#include <vector>

#include "hv/virt_stack.h"
#include "io/async_stage.h"
#include "io/irq_coalescer.h"
#include "io/net_port.h"
#include "io/virtqueue.h"

namespace svtsim {

/** Guest-physical doorbell addresses of the modeled devices. */
namespace ioaddr {

/** L2's virtio-net doorbell (in L2's physical space); queue q rings
 *  page q of the region. */
constexpr Gpa l2NetDoorbell = 0xfe000000;
/** L2's virtio-blk doorbell (one page per queue). */
constexpr Gpa l2BlkDoorbell = 0xfe010000;
/** L1's virtio-net doorbell (in L1's physical space). */
constexpr Gpa l1NetDoorbell = 0xfd000000;
/** L1's virtio-blk doorbell. */
constexpr Gpa l1BlkDoorbell = 0xfd010000;

} // namespace ioaddr

/**
 * The full nested virtio-net stack plus its guest-driver interface.
 *
 * Requires a VirtStack in one of the nested modes. The L2-visible
 * driver interface (send / rx handler) is what the network workloads
 * program against.
 */
class VirtioNetStack
{
  public:
    /**
     * @param port The wire attachment: a NetFabric (the local end;
     *             the peer sits on its peer() end) for single-machine
     *             benches, or a CrossLink end when the peer is a real
     *             second machine.
     */
    VirtioNetStack(VirtStack &stack, NetPort &port);

    // -- L2 guest driver interface -------------------------------------
    /**
     * Transmit a segment: guest TCP/IP stack work, a descriptor and
     * (when the device is idle) a doorbell kick. Multi-queue shards
     * by @p id (the flow hash stand-in).
     */
    void send(std::uint32_t bytes, std::uint64_t id,
              std::uint64_t payload = 0);

    /** Handler invoked (in L2 interrupt context) per received
     *  segment. */
    void setRxHandler(std::function<void(NetPacket)> handler);

    // -- Statistics -------------------------------------------------------
    std::uint64_t txPackets() const { return txPackets_; }
    std::uint64_t rxPackets() const { return rxPackets_; }
    int queues() const { return queues_; }

  private:
    /** Per-queue tx state: the ring plus its L1 vhost worker. */
    struct TxQueue
    {
        TxQueue(Machine &machine, const std::string &name)
            : ring(machine, name)
        {
        }

        Virtqueue ring;
        /** vhost tx worker in L1 (separate vCPU), one per queue. */
        AsyncStage l1Vhost;
        bool pollScheduled = false;
        /** Last time this worker found work (busy-poll base). */
        Ticks lastDrain = -sec(1);
        /** Consumed tx descriptors not yet reaped by the guest. */
        std::uint64_t unreaped = 0;
    };

    /** L1 kick handler: signal the vhost worker, schedule the
     *  off-vCPU tx pipeline for the kicked queue. */
    std::uint64_t l1VhostTx(int q, Gpa addr, int size,
                            std::uint64_t value, bool is_write);
    /** Drain queue @p q's L2 tx ring into the off-vCPU pipeline;
     *  re-polls itself while the pipeline is busy (kick
     *  suppression). */
    void vhostTxPoll(int q);
    /** Wire delivery at the local NIC (event context). */
    void onWireRx(NetPacket pkt);
    /** L0 host IRQ: move packets into L1's rx ring. */
    void l0NicIrq();
    /** L1 IRQ: forward to L2's rx rings (vhost for L2). */
    void l1NetIrq();
    /** L2 IRQ: guest driver receive path (drains every queue). */
    void l2NetIrq();

    VirtStack &stack_;
    NetPort &port_;
    int queues_;
    std::vector<std::unique_ptr<TxQueue>> tx_;
    std::vector<std::unique_ptr<Virtqueue>> l2Rx_;
    /** Per-rx-queue completion-interrupt coalescing. */
    std::vector<std::unique_ptr<IrqCoalescer>> rxCoalesce_;
    Virtqueue l1Rx_;
    /** vhost-net tx worker in L0 (separate core) + NIC; shared by
     *  every queue (one physical NIC). */
    AsyncStage l0TxVhost_;
    /** vhost-net rx worker in L0 (separate core). */
    AsyncStage l0RxVhost_;
    std::function<void(NetPacket)> rxHandler_;
    std::uint64_t txPackets_ = 0;
    std::uint64_t rxPackets_ = 0;
    /** Packets dropped on an overrun rx ring (L0->L1 or L1->L2). */
    Counter rxDropMetric_;
    /** Polls re-armed by the idle-tick guard (a buffer landed in the
     *  ring at the exact tick the worker drained it empty). */
    Counter pollRearmMetric_;
};

} // namespace svtsim

#endif // SVTSIM_IO_VIRTIO_NET_H
