#include "workloads.h"

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "host.h"
#include "io/virtio_net.h"
#include "sim/random.h"
#include "system/cluster_spec.h"
#include "system/fleet/fleet_scheduler.h"
#include "system/nested_system.h"
#include "system/sweep.h"
#include "workloads/remote_peer.h"

namespace perfbench {

using namespace svtsim;

namespace {

/** Thread CPU, process CPU and context switches over one phase. */
class PhaseClock
{
  public:
    PhaseClock() : thread0_(threadCpuSec()), usage0_(processUsage()) {}

    double threadCpu() const { return threadCpuSec() - thread0_; }
    Usage usage() const
    {
        Usage u = processUsage();
        u.cpuSec -= usage0_.cpuSec;
        u.voluntaryCsw -= usage0_.voluntaryCsw;
        u.involuntaryCsw -= usage0_.involuntaryCsw;
        return u;
    }

  private:
    double thread0_;
    Usage usage0_;
};

/** A timed section that is also a span in a traced run. */
class Section
{
  public:
    Section(SpanRecorder *trace, const char *name, Layer layer)
        : span_(trace, name, layer), t0_(wallSec())
    {}
    double elapsed() const { return wallSec() - t0_; }
    std::uint32_t id() const { return span_.id(); }

  private:
    ScopedSpan span_;
    double t0_;
};

/** Counter value from a PMU snapshot (0 when not registered). */
std::uint64_t
counterOf(const MetricsSnapshot &snap, const std::string &name)
{
    const MetricSample *s = snap.find(name);
    return s && s->kind == MetricKind::Counter
               ? static_cast<std::uint64_t>(s->value)
               : 0;
}

/** Sum of the counters whose name satisfies @p pred. */
template <class Pred>
std::uint64_t
sumCounters(const MetricsSnapshot &snap, Pred pred)
{
    std::uint64_t n = 0;
    for (const MetricSample &s : snap.samples)
        if (s.kind == MetricKind::Counter && pred(s.name))
            n += static_cast<std::uint64_t>(s.value);
    return n;
}

bool
endsWith(const std::string &s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

MetricsSnapshot
timedSnapshot(Machine &m, SpanRecorder *trace, BatchResult &out)
{
    Section s(trace, "stats.snapshot", Layer::Stats);
    MetricsSnapshot snap = m.snapshotMetrics();
    out.host["stats.snapshot_s"] += s.elapsed();
    return snap;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** The mode label used in metric names. */
std::string
modeLabel(VirtMode mode)
{
    switch (mode) {
    case VirtMode::Nested:
        return "nested";
    case VirtMode::SwSvt:
        return "sw_svt";
    case VirtMode::HwSvt:
        return "hw_svt";
    default:
        return virtModeName(mode);
    }
}

/**
 * The client machine's wire end, counting the requests mutilate
 * offers, so "every offered request was answered" can be checked from
 * outside the client.
 */
class CountingPort : public NetPort
{
  public:
    explicit CountingPort(NetPort &inner) : inner_(inner) {}

    void send(const NetPacket &pkt) override
    {
        ++sent;
        inner_.send(pkt);
    }

    void setReceiveHandler(std::function<void(NetPacket)> handler) override
    {
        inner_.setReceiveHandler(std::move(handler));
    }

    Ticks serialization(std::uint32_t bytes) const override
    {
        return inner_.serialization(bytes);
    }

    std::uint64_t sent = 0;

  private:
    NetPort &inner_;
};

/** Host time of one driver function on its own thread. */
struct DriverClock
{
    double wall = 0;
    double cpu = 0;
};

/** Wrap @p fn as a cluster driver timed on its own thread; its span
 *  is caused by the run span whose id @p runSpan holds at start. */
std::function<void(NestedSystem &)>
timedDriver(SpanRecorder *trace, const char *name,
            const std::uint32_t &runSpan, DriverClock &clock,
            std::function<void()> fn)
{
    return [trace, name, &runSpan, &clock,
            fn = std::move(fn)](NestedSystem &) {
        ScopedSpan span(trace, name, Layer::Workloads, runSpan);
        const double w0 = wallSec();
        const double c0 = threadCpuSec();
        fn();
        clock.cpu = threadCpuSec() - c0;
        clock.wall = wallSec() - w0;
    };
}

void
addClusterHost(BatchResult &out, const PhaseClock &clock, double runSec)
{
    const Usage u = clock.usage();
    out.host["cluster.run_s"] += runSec;
    out.host["cluster.coordinator_cpu_s"] += clock.threadCpu();
    out.host["cluster.voluntary_csw"] +=
        static_cast<double>(u.voluntaryCsw);
    out.host["cluster.involuntary_csw"] +=
        static_cast<double>(u.involuntaryCsw);
    out.wallSec += runSec;
    out.cpuSec += u.cpuSec;
}

} // namespace

bool
BatchResult::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok)
        failures.push_back(what);
    return ok;
}

Fingerprint
BatchResult::fingerprint() const
{
    Fingerprint f;
    for (const auto &[key, value] : exact)
        f.add(key, value);
    return f;
}

WorkloadSize
testSize()
{
    WorkloadSize s;
    s.stormSteps = 2000;
    s.cpuidCalls = 400;
    s.pairDurationUs = 5000;
    s.fleetDurationShare = 0.05;
    return s;
}

// ---------------------------------------------------------------------
// memcached_pair: Fig. 8's two-machine cluster, below / at / past the
// knee, nested vs SW SVt.

BatchResult
runMemcachedPair(std::uint64_t seed, const WorkloadSize &size,
                 SpanRecorder *trace)
{
    BatchResult out;
    ScopedSpan workload(trace, "memcached_pair", Layer::Bench);
    const Ticks duration = usec(size.pairDurationUs);

    std::uint64_t events = 0, epochs = 0, steps = 0, merged = 0;
    std::uint64_t requests = 0, kicks = 0, irqs = 0, exits = 0;
    double qpsSum = 0;
    int points = 0;
    for (VirtMode mode : {VirtMode::Nested, VirtMode::SwSvt}) {
        for (double qps : {6000.0, 14000.0, 22000.0}) {
            ScopedSpan scenario(trace, "scenario", Layer::Bench);
            const std::string tag = "mc." + modeLabel(mode) + "." +
                                    std::to_string(int(qps)) + ".";
            const std::uint64_t pointSeed =
                seed * 7919 + static_cast<std::uint64_t>(points++);

            // ---- set-up ---------------------------------------------
            std::optional<ClusterBuild> b;
            std::unique_ptr<VirtioNetStack> net;
            std::unique_ptr<MemcachedServer> server;
            std::unique_ptr<CountingPort> port;
            std::unique_ptr<MutilateClient> client;
            {
                Section s(trace, "setup.realize", Layer::System);
                b.emplace(ClusterSpec()
                              .machine("server", mode)
                              .machine("client", VirtMode::Native)
                              .link("server", "client")
                              .realize(pointSeed));
                const double t = s.elapsed();
                out.host["setup.realize_s"] += t;
                out.setupSec += t;
            }
            {
                Section s(trace, "setup.devices", Layer::Io);
                net = std::make_unique<VirtioNetStack>(
                    b->stack("server"), b->port("server", "client"));
                server = std::make_unique<MemcachedServer>(
                    b->stack("server"), *net, pointSeed + 1);
                port = std::make_unique<CountingPort>(
                    b->port("client", "server"));
                client = std::make_unique<MutilateClient>(
                    b->machine("client"), *port, pointSeed + 2);
                const double t = s.elapsed();
                out.host["setup.devices_s"] += t;
                out.setupSec += t;
            }

            // ---- simulation -----------------------------------------
            std::uint32_t runSpan = 0;
            DriverClock serverClock, clientClock;
            std::uint64_t served = 0;
            MemcachedPoint pt;
            b->driver("server",
                      timedDriver(trace, "driver.server", runSpan,
                                  serverClock, [&] {
                                      served =
                                          server->serveUntil(duration);
                                  }));
            b->driver("client",
                      timedDriver(trace, "driver.client", runSpan,
                                  clientClock, [&] {
                                      pt = client->runLoad(qps, duration);
                                  }));
            ClusterStats st;
            {
                PhaseClock clock;
                Section run(trace, "cluster.run", Layer::System);
                runSpan = run.id();
                st = b->run(1);
                addClusterHost(out, clock, run.elapsed());
            }
            for (const DriverClock *d : {&serverClock, &clientClock}) {
                out.host["cluster.driver_cpu_s"] += d->cpu;
                out.host["cluster.driver_park_s"] += d->wall - d->cpu;
            }

            // ---- read back ------------------------------------------
            Machine &sm = b->machine("server");
            Machine &cm = b->machine("client");
            const std::uint64_t ev = sm.events().executedCount() +
                                     cm.events().executedCount();
            const MetricsSnapshot snap = timedSnapshot(sm, trace, out);
            const std::uint64_t k = sumCounters(
                snap, [](const std::string &n) {
                    return endsWith(n, ".kicks");
                });
            const std::uint64_t irq =
                counterOf(snap, "irq.delivered.l2");
            const std::uint64_t ex = counterOf(snap, "vmx.exit");
            out.simUs += toUsec(sm.now());

            out.exact.emplace_back(tag + "offered", double(port->sent));
            out.exact.emplace_back(tag + "answered",
                                   double(pt.completed));
            out.exact.emplace_back(tag + "served", double(served));
            out.exact.emplace_back(tag + "avg_us", pt.avgUsec);
            out.exact.emplace_back(tag + "p99_us", pt.p99Usec);
            out.exact.emplace_back(tag + "events", double(ev));
            out.exact.emplace_back(tag + "epochs", double(st.epochs));
            out.exact.emplace_back(tag + "steps", double(st.steps));
            out.exact.emplace_back(tag + "merged", double(st.merged));
            out.exact.emplace_back(tag + "kicks", double(k));
            out.exact.emplace_back(tag + "irqs", double(irq));
            out.exact.emplace_back(tag + "exits", double(ex));
            out.exact.emplace_back(tag + "final_ticks.server",
                                   double(sm.now()));
            out.exact.emplace_back(tag + "final_ticks.client",
                                   double(cm.now()));

            out.expect(port->sent > 0 && pt.completed == port->sent &&
                           served == port->sent,
                       tag + " offered " + std::to_string(port->sent) +
                           ", served " + std::to_string(served) +
                           ", answered " + std::to_string(pt.completed));

            events += ev;
            epochs += st.epochs;
            steps += st.steps;
            merged += st.merged;
            requests += pt.completed;
            kicks += k;
            irqs += irq;
            exits += ex;
            qpsSum += pt.achievedQps;
        }
    }

    out.exact.emplace_back("sim.events", double(events));
    out.exact.emplace_back("cluster.epochs", double(epochs));
    out.exact.emplace_back("cluster.steps", double(steps));
    out.exact.emplace_back("cluster.merged", double(merged));
    out.exact.emplace_back("cluster.epochs_per_event",
                           ratio(double(epochs), double(events)));
    out.exact.emplace_back("io.kicks_per_req",
                           ratio(double(kicks), double(requests)));
    out.exact.emplace_back("io.irqs_per_req",
                           ratio(double(irqs), double(requests)));
    out.exact.emplace_back("hv.exits_per_req",
                           ratio(double(exits), double(requests)));
    out.exact.emplace_back("workloads.requests", double(requests));
    out.exact.emplace_back("workloads.achieved_qps", qpsSum / points);
    return out;
}

// ---------------------------------------------------------------------
// exit_storm: one machine per mode, a seeded synchronous trap mix, then
// a cpuid-only phase scored against Fig. 6.

namespace {

/** Fig. 6: nested cpuid 10.40 us; SW SVt 1.23x; HW SVt 1.94x. */
constexpr double paperNestedCpuidUs = 10.40;
constexpr double paperSwSvtSpeedup = 1.23;
constexpr double paperHwSvtSpeedup = 1.94;

constexpr std::uint16_t stormPort = 0x3f8;
constexpr std::uint64_t stormHypercall = 7;

enum Op
{
    OpCompute,
    OpCpuid,
    OpWrmsr,
    OpIoOut,
    OpVmcall,
    numOps
};

const char *const opNames[numOps] = {"compute", "cpuid", "wrmsr",
                                     "io_out", "vmcall"};

/** Result of one mode's storm, read back after the run. */
struct ModeStorm
{
    Fingerprint results; ///< cpuid + vmcall outputs, in call order
    std::array<std::uint64_t, numOps> calls{};
    /** Trap calls that reach L1 (all but pass-through MSR writes). */
    std::uint64_t reflectedCalls = 0;
    Ticks stormTicks = 0;
    Ticks cpuidTicks = 0;
    std::uint64_t exits = 0;
    std::uint64_t reflected = 0;
    std::uint64_t ringPosts = 0;
    bool degraded = false;
};

/**
 * Time @p call as one GuestApi call in a traced run: a span under
 * @p parent plus a host-ns sample. Untraced, it is just the call.
 */
template <class F>
void
guestCall(SpanRecorder *trace, std::uint32_t parent, Op op,
          std::vector<double> *samples, F &&call)
{
    if (!trace) {
        call();
        return;
    }
    const std::uint64_t t0 = wallNs();
    call();
    const std::uint64_t t1 = wallNs();
    trace->add(opNames[op], op == OpCompute ? Layer::Arch : Layer::Hv,
               parent, t0, t1);
    samples[op].push_back(static_cast<double>(t1 - t0));
}

} // namespace

BatchResult
runExitStorm(std::uint64_t seed, const WorkloadSize &size,
             SpanRecorder *trace)
{
    BatchResult out;
    ScopedSpan workload(trace, "exit_storm", Layer::Bench);
    const VirtMode modes[] = {VirtMode::Nested, VirtMode::SwSvt,
                              VirtMode::HwSvt};
    std::array<ModeStorm, 3> storms;
    std::uint64_t events = 0;

    for (int mi = 0; mi < 3; ++mi) {
        const VirtMode mode = modes[mi];
        const std::string label = modeLabel(mode);
        ModeStorm &ms = storms[mi];
        ScopedSpan scenario(trace, "scenario", Layer::Bench);

        // ---- set-up -------------------------------------------------
        std::unique_ptr<NestedSystem> sys;
        {
            Section s(trace, "setup.nested_system", Layer::System);
            sys = std::make_unique<NestedSystem>(mode, StackConfig{},
                                                 seed);
            sys->stack().l1Hv().registerHypercall(
                stormHypercall, [](std::uint64_t a, std::uint64_t b) {
                    return a * 1000 + b;
                });
            sys->stack().l1Hv().registerIoPort(
                stormPort,
                [](std::uint16_t, std::uint64_t, bool) { return 0; });
            const double t = s.elapsed();
            out.host["setup.nested_system_s"] += t;
            out.setupSec += t;
        }
        Machine &m = sys->machine();
        GuestApi &api = sys->api();
        const MetricsSnapshot before = timedSnapshot(m, trace, out);
        const std::uint64_t reflected0 = sys->stack().reflectedExits();

        // ---- simulation ---------------------------------------------
        // The same seeded mix in every mode: transparency says the
        // outputs must match call for call.
        Rng rng(seed ^ 0x5707e5707eull);
        std::vector<double> samples[numOps];
        {
            PhaseClock clock;
            Section phase(trace, "guest.storm", Layer::Workloads);
            const Ticks t0 = m.now();
            for (int i = 0; i < size.stormSteps; ++i) {
                const Ticks gap = nsec(20 + double(rng.below(480)));
                guestCall(trace, phase.id(), OpCompute, samples,
                          [&] { api.compute(gap); });
                const std::uint64_t pick = rng.below(100);
                const std::uint64_t arg = rng.next();
                Op op = pick < 40   ? OpCpuid
                        : pick < 65 ? OpWrmsr
                        : pick < 85 ? OpIoOut
                                    : OpVmcall;
                ++ms.calls[op];
                switch (op) {
                case OpCpuid: {
                    ++ms.reflectedCalls;
                    CpuidResult r;
                    const std::uint64_t leaf = arg % 3 == 0 ? 0 : 1;
                    guestCall(trace, phase.id(), op, samples,
                              [&] { r = api.cpuid(leaf); });
                    ms.results.add("cpuid", r.eax ^ (r.ebx << 1) ^
                                                (r.ecx << 2) ^
                                                (r.edx << 3));
                    break;
                }
                case OpWrmsr:
                    // LSTAR is intercepted; KERNEL_GS_BASE passes
                    // through to hardware without an exit.
                    ms.reflectedCalls += arg & 1;
                    guestCall(trace, phase.id(), op, samples, [&] {
                        api.wrmsr(arg & 1 ? msr::ia32Lstar
                                          : msr::ia32KernelGsBase,
                                  arg);
                    });
                    break;
                case OpIoOut:
                    ++ms.reflectedCalls;
                    guestCall(trace, phase.id(), op, samples,
                              [&] { api.ioOut(stormPort, arg & 0xff); });
                    break;
                default: {
                    ++ms.reflectedCalls;
                    std::uint64_t r = 0;
                    guestCall(trace, phase.id(), op, samples, [&] {
                        r = api.vmcall(stormHypercall, arg % 1000,
                                       (arg >> 10) % 1000);
                    });
                    ms.results.add("vmcall", r);
                    break;
                }
                }
            }
            ms.calls[OpCompute] = size.stormSteps;
            ms.stormTicks = m.now() - t0;

            Section cpuidPhase(trace, "guest.cpuid_phase",
                               Layer::Workloads);
            const Ticks c0 = m.now();
            for (int i = 0; i < size.cpuidCalls; ++i) {
                CpuidResult r;
                guestCall(trace, cpuidPhase.id(), OpCpuid, samples,
                          [&] { r = api.cpuid(1); });
                ms.results.add("cpuid", r.ecx);
            }
            ms.cpuidTicks = m.now() - c0;
            ms.reflectedCalls += size.cpuidCalls;
            out.wallSec += phase.elapsed();
            out.cpuSec += clock.usage().cpuSec;
        }
        out.simUs += toUsec(ms.stormTicks + ms.cpuidTicks);

        // ---- read back ----------------------------------------------
        const MetricsSnapshot after = timedSnapshot(m, trace, out);
        auto delta = [&](const std::string &name) {
            return counterOf(after, name) - counterOf(before, name);
        };
        ms.exits = delta("vmx.exit");
        ms.reflected = sys->stack().reflectedExits() - reflected0;
        ms.ringPosts = delta("ring.to_svt.posted");
        ms.degraded = sys->stack().svtDegraded();
        events += m.events().executedCount();
        out.expect(m.events().executedCount() == 0,
                   label + ": events fired in a trap loop");

        const std::uint64_t traps = ms.calls[OpCpuid] +
                                    ms.calls[OpWrmsr] +
                                    ms.calls[OpIoOut] +
                                    ms.calls[OpVmcall];
        const double perCall = double(traps + size.cpuidCalls);
        const std::string tag = "storm." + label + ".";
        for (int op = 0; op < numOps; ++op)
            out.exact.emplace_back(tag + opNames[op],
                                   double(ms.calls[op]));
        out.exact.emplace_back(tag + "reflected", double(ms.reflected));
        // The top 53 bits, so the hash survives as an exact double.
        out.exact.emplace_back(tag + "outputs",
                               double(ms.results.value() >> 11));
        out.exact.emplace_back(tag + "storm_ticks",
                               double(ms.stormTicks));
        out.exact.emplace_back(tag + "cpuid_ticks",
                               double(ms.cpuidTicks));
        out.exact.emplace_back(tag + "final_ticks", double(m.now()));
        out.exact.emplace_back("hv.exits_per_call." + label,
                               double(ms.exits) / perCall);
        out.exact.emplace_back("hv.reflected_per_call." + label,
                               double(ms.reflected) / perCall);
        if (mode == VirtMode::SwSvt)
            out.exact.emplace_back("svt.ring_posts_per_call.sw_svt",
                                   double(ms.ringPosts) / perCall);
        out.exact.emplace_back("arch.sim_us_per_cpuid." + label,
                               toUsec(ms.cpuidTicks) / size.cpuidCalls);

        if (trace) {
            for (int op = 0; op < numOps; ++op) {
                const std::string key =
                    op == OpCompute
                        ? "arch.compute_host_ns." + label
                        : "hv." + std::string(opNames[op]) +
                              "_host_ns." + label;
                auto &dst = out.samples[key];
                dst.insert(dst.end(), samples[op].begin(),
                           samples[op].end());
                if (op != OpCompute) {
                    auto &all =
                        out.samples["hv.trap_host_ns_p99." + label];
                    all.insert(all.end(), samples[op].begin(),
                               samples[op].end());
                }
            }
        }
        out.expect(!ms.degraded, label + ": SVt degraded");
    }

    // ---- cross-mode invariants (Section 3.1 transparency) ----------
    const ModeStorm &nested = storms[0];
    for (int mi = 1; mi < 3; ++mi) {
        const std::string label = modeLabel(modes[mi]);
        out.expect(storms[mi].results.value() == nested.results.value(),
                   label + ": guest-visible outputs differ from nested");
        out.expect(storms[mi].stormTicks < nested.stormTicks,
                   label + ": not faster than nested in simulated time");
    }
    out.expect(nested.reflected >= nested.reflectedCalls,
               "nested: " + std::to_string(nested.reflected) +
                   " reflected exits for " +
                   std::to_string(nested.reflectedCalls) +
                   " reflected trap calls");

    const double nestedUs =
        toUsec(storms[0].cpuidTicks) / size.cpuidCalls;
    const double swUs = toUsec(storms[1].cpuidTicks) / size.cpuidCalls;
    const double hwUs = toUsec(storms[2].cpuidTicks) / size.cpuidCalls;
    const double err =
        (std::abs(nestedUs - paperNestedCpuidUs) / paperNestedCpuidUs +
         std::abs(nestedUs / swUs - paperSwSvtSpeedup) /
             paperSwSvtSpeedup +
         std::abs(nestedUs / hwUs - paperHwSvtSpeedup) /
             paperHwSvtSpeedup) /
        3 * 100;
    out.exact.emplace_back("paper_err_pct", err);
    out.exact.emplace_back("sim.events", double(events));
    return out;
}

// ---------------------------------------------------------------------
// fleet_mix: the fleet_scale tenant set on 2x8x2 under all three
// placement policies, through runSweep with two cluster workers.

namespace {

/** bench/fleet_scale's tenant set, run lengths scaled by @p share. */
FleetSpec
fleetSpec(double share)
{
    FleetSpec spec;
    spec.topology = TopologySpec{2, 8, 2};
    TenantSpec mc = memcachedTenant("mc", 6, 6000.0);
    mc.duration = Ticks(share * msec(200));
    TenantSpec db = tpccTenant("db", 5);
    db.duration = Ticks(share * msec(400));
    TenantSpec vid = videoTenant("video", 5, 60.0, 0.01);
    vid.duration = Ticks(share * sec(2));
    spec.tenants = {mc, db, vid};
    return spec;
}

} // namespace

BatchResult
runFleetMix(std::uint64_t seed, const WorkloadSize &size,
            SpanRecorder *trace)
{
    BatchResult out;
    ScopedSpan workload(trace, "fleet_mix", Layer::Bench);
    const PlacementPolicy policies[] = {PlacementPolicy::SvtPair,
                                        PlacementPolicy::SiblingShare,
                                        PlacementPolicy::Isolate};

    // ---- set-up -----------------------------------------------------
    std::vector<std::unique_ptr<FleetScheduler>> scheds;
    std::vector<Scenario> scenarios;
    for (PlacementPolicy policy : policies) {
        FleetSpec spec = fleetSpec(size.fleetDurationShare);
        spec.policy = policy;
        {
            Section s(trace, "setup.place", Layer::System);
            scheds.push_back(std::make_unique<FleetScheduler>(spec, seed));
            const double t = s.elapsed();
            out.host["setup.place_s"] += t;
            out.setupSec += t;
        }
        Scenario sc;
        sc.name = placementPolicyName(policy);
        sc.mode = policy == PlacementPolicy::SvtPair ? spec.pairedMode
                                                     : VirtMode::Nested;
        FleetScheduler *sched = scheds.back().get();
        sc.clusterRun = [sched](ClusterContext &ctx, ScenarioResult &r) {
            sched->run(ctx, r);
        };
        scenarios.push_back(std::move(sc));
    }

    // ---- simulation -------------------------------------------------
    SweepOptions opts;
    opts.jobs = 1;
    opts.baseSeed = seed;
    opts.clusterJobs = 2;
    SweepResults res;
    {
        PhaseClock clock;
        Section run(trace, "cluster.run", Layer::System);
        res = runSweep(scenarios, opts);
        addClusterHost(out, clock, run.elapsed());
    }

    // ---- read back --------------------------------------------------
    std::uint64_t epochs = 0, steps = 0, merged = 0;
    for (std::size_t p = 0; p < scenarios.size(); ++p) {
        const ScenarioResult &r = res.all()[p];
        const std::string policy = scenarios[p].name;
        if (!out.expect(r.ok(), policy + ": " + r.error()))
            continue;
        for (const TenantSpec &t : scheds[p]->spec().tenants)
            out.expect(r.has(t.name + "_slo_value"),
                       policy + ": tenant " + t.name + " did not report");
        for (const auto &[key, value] : r.metrics())
            out.exact.emplace_back("fleet." + policy + "." + key, value);
        out.simUs += r.has("final_ticks_m0")
                         ? toUsec(Ticks(r.metric("final_ticks_m0")))
                         : 0;
        epochs += std::uint64_t(r.metric("cluster_epochs"));
        steps += std::uint64_t(r.metric("cluster_steps"));
        merged += std::uint64_t(r.metric("cluster_merged"));
        out.exact.emplace_back("fleet.p99_us." + policy,
                               r.metric("fleet_p99_usec"));
        out.exact.emplace_back("fleet.tenants_met." + policy,
                               r.metric("fleet_tenants_met"));
    }
    out.exact.emplace_back("cluster.epochs", double(epochs));
    out.exact.emplace_back("cluster.steps", double(steps));
    out.exact.emplace_back("cluster.merged", double(merged));
    return out;
}

// ---------------------------------------------------------------------

const std::vector<WorkloadInfo> &
workloads()
{
    static const std::vector<WorkloadInfo> list = {
        {"memcached_pair", runMemcachedPair},
        {"exit_storm", runExitStorm},
        {"fleet_mix", runFleetMix},
    };
    return list;
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list =
        [] {
            std::vector<std::pair<std::string, std::string>> l = {
                {"cluster.run_s", "s"},
                {"cluster.coordinator_cpu_s", "s"},
                {"cluster.driver_cpu_s", "s"},
                {"cluster.driver_park_s", "s"},
                {"cluster.voluntary_csw", "count"},
                {"cluster.involuntary_csw", "count"},
                {"cluster.epochs", "count"},
                {"cluster.steps", "count"},
                {"cluster.merged", "count"},
                {"cluster.epochs_per_event", "1/event"},
                {"sim.events", "count"},
                {"sim.host_ns_per_event", "ns"},
            };
            for (const char *mode : {"nested", "sw_svt", "hw_svt"}) {
                const std::string m = mode;
                for (const char *op : {"cpuid", "wrmsr", "io_out",
                                       "vmcall"})
                    l.push_back({"hv." + std::string(op) + "_host_ns." + m,
                                 "ns"});
                l.push_back({"hv.trap_host_ns_p99." + m, "ns"});
                l.push_back({"arch.compute_host_ns." + m, "ns"});
                l.push_back({"hv.exits_per_call." + m, "1/call"});
                l.push_back({"hv.reflected_per_call." + m, "1/call"});
                l.push_back({"arch.sim_us_per_cpuid." + m, "us"});
            }
            const std::vector<std::pair<std::string, std::string>> rest =
                {
                    {"svt.ring_posts_per_call.sw_svt", "1/call"},
                    {"paper_err_pct", "%"},
                    {"io.kicks_per_req", "1/req"},
                    {"io.irqs_per_req", "1/req"},
                    {"hv.exits_per_req", "1/req"},
                    {"workloads.requests", "count"},
                    {"workloads.achieved_qps", "1/s"},
                    {"fleet.p99_us.svt-pair", "us"},
                    {"fleet.p99_us.sibling-share", "us"},
                    {"fleet.p99_us.isolate", "us"},
                    {"fleet.tenants_met.svt-pair", "count"},
                    {"fleet.tenants_met.sibling-share", "count"},
                    {"fleet.tenants_met.isolate", "count"},
                    {"setup.realize_s", "s"},
                    {"setup.nested_system_s", "s"},
                    {"setup.devices_s", "s"},
                    {"setup.place_s", "s"},
                    {"stats.snapshot_s", "s"},
                    {"trace.overhead_pct", "%"},
                    {"host.steal_ticks", "count"},
                };
            l.insert(l.end(), rest.begin(), rest.end());
            for (int i = 0; i < numLayers; ++i)
                l.push_back({std::string("trace.self_s.") +
                                 layerName(static_cast<Layer>(i)),
                             "s"});
            return l;
        }();
    return list;
}

} // namespace perfbench
