/**
 * @file
 * VirtStack: the assembled virtualization stack.
 *
 * One object wires together the host hypervisor (L0), the guest
 * hypervisor (L1), the VMX engines, EPTs, virtual APICs, the SVt
 * hardware unit (HW SVt) or the command channels (SW SVt), and exposes
 * GuestApi implementations for running workloads at the configured
 * top level. The same workload program produces identical
 * architectural results in every mode; only the modeled time differs.
 */

#ifndef SVTSIM_HV_VIRT_STACK_H
#define SVTSIM_HV_VIRT_STACK_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "arch/machine.h"
#include "hv/channel.h"
#include "hv/cpuid_db.h"
#include "hv/guest_api.h"
#include "hv/guest_hypervisor.h"
#include "hv/stack_config.h"
#include "hv/vcpu.h"
#include "sim/log.h"
#include "svt/svt_unit.h"
#include "virt/ept.h"
#include "virt/vmx.h"

namespace svtsim {

/** Raised when the Section 5.3 interrupt deadlock manifests (only
 *  possible with StackConfig::svtBlockedFix disabled). */
class DeadlockError : public SimError
{
  public:
    explicit DeadlockError(const std::string &what) : SimError(what) {}
};

/** Handler for an L1 MMIO access emulated by L0 (L1's virtio devs). */
using L0MmioHandler = std::function<std::uint64_t(
    Gpa addr, int size, std::uint64_t value, bool is_write)>;

/**
 * The assembled stack. See DESIGN.md section 3 for the execution
 * model: guest code runs synchronously; sensitive operations walk the
 * real trap paths; asynchronous device events are pumped at
 * instruction boundaries.
 */
class VirtStack
{
  public:
    VirtStack(Machine &machine, StackConfig config);
    ~VirtStack();

    VirtStack(const VirtStack &) = delete;
    VirtStack &operator=(const VirtStack &) = delete;

    Machine &machine() { return machine_; }
    const StackConfig &config() const { return config_; }

    /** The GuestApi of the configured top level (L0/L1/L2). */
    GuestApi &api();

    /** GuestApi of a specific level (0, 1 or 2 where applicable). */
    GuestApi &apiAt(int level);

    /** Run @p program at the top level. */
    void run(const GuestProgram &program);

    /** The guest (L1) hypervisor, for registering L2 devices. */
    GuestHypervisor &l1Hv() { return *guestHv_; }

    // -- Device plumbing ---------------------------------------------------
    /** Register an L0-emulated MMIO region in L1's physical space. */
    void registerL0Mmio(Gpa base, std::uint64_t size,
                        L0MmioHandler handler);

    /** Register an I/O port emulated by L0 (L1's devices). */
    void registerL0IoPort(
        std::uint16_t port,
        std::function<std::uint64_t(std::uint16_t, std::uint64_t,
                                    bool)>
            handler);

    /** Register an L1->L0 hypercall (e.g. the SW SVt pairing call). */
    void registerL0Hypercall(
        std::uint64_t nr,
        std::function<std::uint64_t(std::uint64_t, std::uint64_t)>
            handler);

    /** A physical device interrupt arriving at L0. */
    void raiseHostIrq(std::uint8_t vector);

    /** Raise a virtual interrupt for L1 (L0-side device backends). */
    void raiseL1Irq(std::uint8_t vector);

    /** Raise a virtual interrupt for L2 (L1-side device backends). */
    void raiseL2Irq(std::uint8_t vector);

    /** Register the interrupt handler for @p vector at @p level. */
    void setIrqHandler(int level, std::uint8_t vector,
                       std::function<void()> handler);

    /**
     * Deliver every deliverable pending interrupt now.
     * @return Number of interrupts delivered (at any level).
     */
    int pumpInterrupts();

    // -- SW SVt test/fault-injection hooks ----------------------------------
    /**
     * Arm the Section 5.3 scenario: during the next SVt-thread command,
     * a kernel thread preempts the SVt-thread for @p duration and IPIs
     * the L1 vCPU, waiting for the ack.
     */
    void armSvtThreadPreemption(Ticks duration);

    // -- L1 housekeeping interference (Section 6.3.1) -----------------------
    /**
     * Post one unit of L1-kernel housekeeping (scheduler tick, RCU
     * callback, vhost bookkeeping) of cost @p cost. In the baseline
     * and HW SVt (one effective thread) it is serviced serially before
     * the next L2 exit is handled; in SW SVt the L1 vCPU drains it on
     * its own hardware thread while the SVt-thread handles the exit,
     * so it overlaps (the paper's "less noisy" latency effect). The
     * overlap assumption holds when @p cost is below the exit-handling
     * time; keep individual units small.
     */
    void postL1Housekeeping(Ticks cost);

    /** Pending housekeeping work (for tests). */
    Ticks pendingL1Housekeeping() const { return l1Housekeeping_; }

    // -- Introspection -------------------------------------------------------
    /** Nested exits reflected to L1 so far. */
    std::uint64_t reflectedExits() const { return reflected_; }

    /** SW SVt: whether the watchdog degraded the stack onto the
     *  conventional nested trap path (until the quiet period ends). */
    bool svtDegraded() const { return svtDegraded_; }

    /** Hardware context running L2 guest register state. */
    HwContext &l2Context();

    /** L0's vCPU bookkeeping for L1 (virtual APIC lives here). */
    Vcpu &vcpuL1() { return *vcpuL1_; }

    /** L1's vCPU bookkeeping for L2. */
    Vcpu &vcpuL2() { return *vcpuL2InL1_; }

    Vmcs &vmcs01() { return *vmcs01_; }
    Vmcs &vmcs12() { return *vmcs12_; }
    Vmcs &vmcs02() { return *vmcs02_; }
    Ept &ept02() { return *ept02_; }
    SvtUnit &svtUnit() { return *svt_; }

  private:
    friend class NativeApi;
    friend class L1Api;
    friend class L2Api;
    friend class MemL1Backend;
    friend class CtxtL1Backend;
    friend class MuxL1Backend;

    // -- Construction helpers ---------------------------------------------
    void setupCommon();
    void setupSingle();
    void setupNested();

    // -- Mode predicates ------------------------------------------------------
    bool isNestedMode() const
    {
        return config_.mode == VirtMode::Nested ||
               config_.mode == VirtMode::SwSvt ||
               config_.mode == VirtMode::HwSvt;
    }

    // -- L2 trap machinery (Algorithm 1) -------------------------------------
    /** Full nested exit round: trap, reflect, handle in L1, resume. */
    void nestedExitFromL2(const ExitInfo &info);

    /** Stage 1/9: the L2<->L0 boundary. */
    void exitFromL2(const ExitInfo &info);
    void resumeL2();

    /** Stage 3/8: VMCS transformation passes (Section 2.2). */
    void transformVmcs02ToVmcs12();
    void transformVmcs12ToVmcs02();
    Ticks transformPassCost() const;

    /** Stage 4-6: deliver the trap to L1, run its handler, return.
     *  @return False if L2 halted instead of resuming. */
    bool reflectToL1(const ExitInfo &info);

    bool reflectBaseline(const ExitInfo &info);
    bool reflectSwSvt(const ExitInfo &info);
    bool reflectHwSvt(const ExitInfo &info);
    bool reflectHwSvtMultiplexed(const ExitInfo &info);

    /**
     * Context multiplexing (Section 3.1): on a core with fewer
     * hardware contexts than virtualization levels, L1 and L2 share
     * a context; switching levels spills/reloads the architectural
     * state through the hypervisor's vCPU structs.
     *
     * @param level 1 or 2: which level must own the shared context.
     */
    void svtSwitchOwner(int level);

    /** SW SVt: handle a pending preemption + IPI against the
     *  SVt-thread (Section 5.3); returns extra delay consumed. */
    void serviceSvtThreadPreemption();

    // -- SW SVt watchdog (graceful degradation) --------------------------
    /**
     * Wait for a message on @p ring under the heartbeat watchdog:
     * each missed deadline re-posts @p repost (re-ringing the
     * doorbell) with linear backoff. Without the watchdog a missed
     * message raises DeadlockError (the Section 5.3 hang).
     *
     * @return True when a message arrived; false when retries were
     *         exhausted (caller degrades via svtFallback()).
     */
    bool svtAwaitRing(CommandRing &ring, const ChannelMessage &repost);

    /** Degrade from SW SVt to the conventional nested trap path:
     *  reset the rings, start the quiet period, bump svt.fallback. */
    void svtFallback(const char *why);

    /** Re-promote to SW SVt once the quiet period has elapsed. */
    void maybeRepromoteSvt();

    /** Deliver every pending L1 vector through an L1 window (the
     *  SVT_BLOCKED drain loop of Section 5.3). */
    void drainL1Ipis();

    // -- L1's own exits (single-level rounds) ---------------------------------
    /**
     * One complete single-level trap round for L1 code: exit on the
     * given engine, dispatch in L0, resume. Returns the emulation
     * result where applicable (rdmsr, mmio read, vmcall).
     */
    std::uint64_t l1TrapRound(VmxEngine &engine, const ExitInfo &info);

    /** Dispatch of an L1-grade exit inside L0. @p engine is the VMX
     *  engine the exit occurred on, or null for the SVt path. */
    std::uint64_t handleL0Exit(const ExitInfo &info, VmxEngine *engine);

    /** Cost-only trap round used by the HW SVt backend for trapped
     *  VMCS accesses. */
    std::uint64_t svtTrapRound(const ExitInfo &info);

    // -- Interrupt delivery ----------------------------------------------------
    int deliverHostIrqs();
    int deliverL1Irqs();

    /** Enter/leave an L1 execution window from L0 control. */
    void enterL1Window();
    void leaveL1Window();

    /**
     * After an L1 window: inject pending L2 vectors (running the L2
     * handlers) and/or resume L2 if it was running before the window.
     * @return Number of vectors delivered to L2.
     */
    int maybeInjectAndResumeL2(bool l2_was_running);

    /**
     * Posted-interrupt delivery into a *running* L2: sync the PIR into
     * the IRR and run the L2 handlers without a nested exit (the
     * notification microcode path). Requires l2Running_.
     * @return Number of vectors delivered.
     */
    int deliverPostedToL2();

    void runIrqHandler(int level, int vector);

    /** Single-level (mode Single) interrupt delivery. */
    int pumpSingle();
    int pumpNative();

    // -- Members -----------------------------------------------------------------
    Machine &machine_;
    StackConfig config_;
    SmtCore &core_;

    std::vector<std::unique_ptr<VmxEngine>> engines_;
    std::unique_ptr<SvtUnit> svt_;

    std::unique_ptr<Vmcs> vmcs01_;  ///< L0's descriptor of L1.
    std::unique_ptr<Vmcs> vmcs12_;  ///< Shadow of L1's vmcs01'.
    std::unique_ptr<Vmcs> vmcs02_;  ///< L0's descriptor of L2.
    std::unique_ptr<Vmcs> vmcs01s_; ///< SW SVt: sibling vCPU of L1.

    std::unique_ptr<Ept> ept01_; ///< L0's EPT for L1.
    std::unique_ptr<Ept> ept02_; ///< L0's merged EPT for L2.

    std::unique_ptr<Vcpu> vcpuL1_;     ///< L0's vcpu struct for L1.
    std::unique_ptr<Vcpu> vcpuL2InL0_; ///< L0's vcpu struct for L2.
    std::unique_ptr<Vcpu> vcpuL2InL1_; ///< L1's vcpu struct for L2.

    std::unique_ptr<GuestHypervisor> guestHv_;
    CpuidDb l0CpuidView_; ///< what L0 exposes to its guest.

    std::unique_ptr<class NativeApi> nativeApi_;
    std::unique_ptr<class L1Api> l1Api_;
    std::unique_ptr<class L2Api> l2Api_;
    std::unique_ptr<class MemL1Backend> memBackend_;
    std::unique_ptr<class CtxtL1Backend> ctxtBackend_;
    std::unique_ptr<class MuxL1Backend> muxBackend_;

    std::unique_ptr<CommandRing> ringToSvt_;
    std::unique_ptr<CommandRing> ringFromSvt_;

    struct MmioRegion
    {
        Gpa base;
        std::uint64_t size;
        L0MmioHandler handler;
    };
    std::vector<MmioRegion> l0Mmio_;

    std::array<std::map<std::uint8_t, std::function<void()>>, 3>
        irqHandlers_;

    /** L0's emulated MSR state for L1. */
    std::map<std::uint32_t, std::uint64_t> l0Msrs_;

    /** L0's emulated I/O ports (for L1). */
    std::map<std::uint16_t,
             std::function<std::uint64_t(std::uint16_t, std::uint64_t,
                                         bool)>>
        l0IoPorts_;

    /** L0's hypercall table. */
    std::map<std::uint64_t,
             std::function<std::uint64_t(std::uint64_t, std::uint64_t)>>
        l0Hypercalls_;

    /** Armed Section 5.3 preemption scenario. */
    Ticks pendingPreemption_ = 0;

    /** Watchdog degradation state: while true, SW SVt exits route
     *  through the conventional path. */
    bool svtDegraded_ = false;
    /** When the degraded stack may re-promote to SW SVt. */
    Ticks svtRepromoteAt_ = 0;

    /** Accumulated L1 housekeeping work not yet serviced. */
    Ticks l1Housekeeping_ = 0;

    /** Service pending housekeeping per the mode's concurrency. */
    void serviceL1Housekeeping(bool overlapped);

    // -- Execution bookkeeping -------------------------------------------
    /** Whether the L2 guest is logically executing. */
    bool l2Running_ = false;
    /** Whether the Single-mode guest is logically executing. */
    bool singleGuestRunning_ = false;
    /** HW SVt with fewer contexts than levels (Section 3.1). */
    bool svtMultiplexed_ = false;
    /** Which level currently owns the shared context (1 or 2). */
    int svtCtx1Owner_ = 2;

    /** Engine and VMCS on which L1 code currently executes (null in
     *  the HW SVt handler path, which uses the SVt unit instead). */
    VmxEngine *l1Engine_ = nullptr;
    Vmcs *l1Vmcs_ = nullptr;
    bool l1ViaSvt_ = false;
    /** Slowdown applied to L1 handler compute (poll-channel SMT
     *  interference, Section 6.1). */
    double l1Slowdown_ = 1.0;
    /** Vector most recently delivered into L2 (-1 if none). */
    int l2DeliveredVector_ = -1;

    std::uint64_t reflected_ = 0;
    bool inL1Window_ = false;
    bool pumping_ = false;

    // -- Attribution scopes (interned in setupCommon) ---------------------
    /** The Table 1 stages plus channel/housekeeping/watchdog time, each
     *  the `stage.<name>` scope on the machine. */
    struct StageScopes
    {
        ScopeId l2, switchL2L0, transform, l0Handler, switchL0L1,
            l1Handler, channel, l1Housekeeping, svtWatchdog;
    };
    StageScopes stage_{};

    // -- PMU handles (interned in setupCommon) -----------------------------
    /** Per-exit-reason count plus simulated-latency histogram. */
    struct ReasonMetrics
    {
        Counter count;
        LatencyHistogram latency;
        /** The `exit.<reason>` attribution scope a nested round runs
         *  under (unused by single-level rounds). */
        ScopeId scope = 0;
    };
    using PerReason =
        std::array<ReasonMetrics,
                   static_cast<std::size_t>(ExitReason::NumReasons)>;

    /** L2 trap rounds keyed by exit reason (nested rounds). */
    PerReason l2ExitMetric_;
    /** L1-grade exits handled by L0 (single-level rounds). */
    PerReason l0ExitMetric_;

    Counter transform0212Metric_;
    Counter transform1202Metric_;
    Counter reflectMetric_;
    Counter directReflectMetric_;
    Counter ept02FillMetric_;
    Counter ept02MmioMetric_;
    Counter hkOverlappedMetric_;
    Counter hkSerialMetric_;
    Counter ctxMultiplexMetric_;
    Counter preemptionMetric_;
    Counter svtBlockedMetric_;
    Counter swsvtPairedMetric_;
    Counter svtFallbackMetric_;
    Counter svtRepromoteMetric_;
    Counter svtWatchdogRetryMetric_;
    std::array<Counter, 3> irqDeliveredMetric_;
    /** Exit-elision ladder: nested exits avoided by posted-interrupt
     *  delivery, EOI traps avoided by x2APIC virtualization, and
     *  posted-interrupt notifications sent. */
    Counter elidedExitMetric_;
    Counter elidedEoiMetric_;
    Counter postedNotifyMetric_;
    /** The HW SVt exit path bumps the same vmx.exit* slots VmxEngine
     *  registers (an SVt trap replaces the exit microcode). */
    Counter vmxExitMetric_;
    std::array<Counter,
               static_cast<std::size_t>(ExitReason::NumReasons)>
        vmxExitReasonMetric_;
};

} // namespace svtsim

#endif // SVTSIM_HV_VIRT_STACK_H
