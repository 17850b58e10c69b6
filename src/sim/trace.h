/**
 * @file
 * Structured per-trap tracing with verifiable time attribution.
 *
 * Machine's attribution scopes answer "how much time went to each
 * Table 1 stage in total": interned ScopeId handles (fixed name and
 * category, see Machine::internScope) over a flat per-id tick array.
 * The TraceSink answers "where did every individual nanosecond of this
 * run go, in order". While a sink is enabled, every pushed scope also
 * opens a span here under its interned name and category. It records:
 *
 *  - spans (begin/end pairs, strictly nested, RAII via TraceSpan or
 *    Machine scopes) with a category and a name — the `stage.*` spans
 *    are the six Table 1 stages plus `stage.channel`,
 *    `stage.l1_housekeeping` and `stage.svt_watchdog`;
 *  - instant events (a VM entry, an SVt fetch retarget, a virtqueue
 *    kick);
 *  - counters (ring payload sizes, queue depths).
 *
 * Time attribution is *exclusive*: every tick consumed through
 * Machine::consume() is charged to the innermost open `stage.*` span
 * (or to the `unattributed` bucket when none is open), and ticks spent
 * idle through Machine::idleUntil() are charged to `idle`. That makes
 * the central invariant checkable:
 *
 *   conservation:  attributed + idle + unattributed == elapsed ticks
 *                  and, in a fully instrumented run, unattributed == 0.
 *
 * A double-charged or dropped consume() — e.g. a channel pop billed
 * outside any stage — shows up as a non-zero `unattributed` total (or
 * as elapsed time no bucket saw), so the invariant turns silent cost
 * accounting bugs into test failures.
 *
 * The event buffer is bounded: when full, new events are dropped and
 * counted (attribution totals are exact regardless of drops). When the
 * sink is disabled — the default — every entry point is a single
 * branch on a bool, and builds can hard-disable tracing by defining
 * SVTSIM_DISABLE_TRACING, which compiles the TraceSpan helper macro
 * away entirely.
 */

#ifndef SVTSIM_SIM_TRACE_H
#define SVTSIM_SIM_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/compiler.h"
#include "sim/event_queue.h"
#include "sim/ticks.h"

namespace svtsim {

/** Coarse event taxonomy; becomes the Chrome trace "cat" field. */
enum class TraceCategory : std::uint8_t
{
    Stage,   ///< Table 1 stage attribution scopes (`stage.*`).
    Exit,    ///< One nested trap round, named by exit reason.
    Vmx,     ///< VMX transitions: entry/exit/vmptrld.
    Vmcs,    ///< VMCS transforms and shadow accesses.
    Svt,     ///< SVt unit: trap/resume retargets, ctxtld/ctxtst.
    Channel, ///< SW SVt command rings and wake latencies.
    Irq,     ///< Interrupt raise/deliver paths.
    Io,      ///< Virtqueue kicks and completions.
    Sim,     ///< Everything else (workloads, harness).
};

const char *traceCategoryName(TraceCategory c);

/** One recorded event. */
struct TraceEvent
{
    enum class Phase : std::uint8_t
    {
        Complete, ///< A span: [start, start + duration).
        Instant,  ///< A point event.
        Counter,  ///< A named value sampled at `start`.
    };

    Phase phase = Phase::Instant;
    TraceCategory category = TraceCategory::Sim;
    std::string name;
    Ticks start = 0;
    Ticks duration = 0;
    std::int64_t value = 0;
};

/**
 * Bounded event buffer plus exclusive per-stage time attribution.
 *
 * Non-owning observers (Machine, the instrumented devices) reach the
 * sink through EventQueue::traceSink(); whoever created the sink
 * (tests, a bench's ScopedTrace) owns it and must detach before
 * destroying it.
 */
class TraceSink
{
  public:
    /** Default event-buffer capacity (events beyond it are dropped
     *  and counted; attribution stays exact). */
    static constexpr std::size_t defaultCapacity = 1 << 20;

    explicit TraceSink(EventQueue &eq,
                       std::size_t capacity = defaultCapacity);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Tracing is off until enabled; disabled calls are one branch. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on);

    /** Drop all events and attribution; re-anchor the conservation
     *  origin at the queue's current time. */
    void reset();

    // -- Event recording -------------------------------------------------
    /** Open a span; returns a handle for endSpan(). Spans must close
     *  in LIFO order (use TraceSpan / Machine scopes). */
    std::size_t beginSpan(TraceCategory category, std::string name);
    void endSpan(std::size_t handle);

    void instant(TraceCategory category, std::string name,
                 std::int64_t value = 0);
    void counter(std::string name, std::int64_t value);

    // -- Time attribution (driven by Machine) -----------------------------
    /** Charge @p t consumed ticks to the innermost open stage span. */
    void attribute(Ticks t);
    /** Charge @p t ticks of idle/wait time. */
    void attributeIdle(Ticks t);

    // -- Conservation -----------------------------------------------------
    struct Conservation
    {
        Ticks elapsed = 0;      ///< Queue time since enable/reset.
        Ticks attributed = 0;   ///< Sum of per-stage exclusive ticks.
        Ticks idle = 0;         ///< Ticks passed via idleUntil().
        Ticks unattributed = 0; ///< Consumed with no stage span open.
        /** attributed + idle + unattributed == elapsed. A violation
         *  means time advanced behind the accounting's back. */
        bool conserved() const
        {
            return attributed + idle + unattributed == elapsed;
        }
        /** Strict form: conserved and every consumed tick landed in a
         *  named stage (what checked nested-trap runs assert). */
        bool fullyAttributed() const
        {
            return conserved() && unattributed == 0;
        }
    };

    /** Snapshot the invariant relative to the last enable/reset. */
    Conservation checkConservation() const;

    // -- Introspection ----------------------------------------------------
    const std::vector<TraceEvent> &events() const { return events_; }
    std::uint64_t droppedEvents() const { return dropped_; }
    std::size_t openSpanDepth() const { return open_.size(); }

    /** Exclusive (self-time) ticks per stage span name. */
    const std::map<std::string, Ticks> &stageSelfTotals() const
    {
        return stageSelf_;
    }

    // -- Exporters --------------------------------------------------------
    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    void writeChromeTrace(std::ostream &os) const;

    /** CSV stage summary: one row per stage plus idle/unattributed;
     *  the tick column sums exactly to the elapsed ticks. */
    void writeCsvSummary(std::ostream &os) const;

  private:
    struct OpenSpan
    {
        TraceCategory category;
        std::string name;
        Ticks start;
        bool isStage;
    };

    void push(TraceEvent ev);

    EventQueue &eq_;
    std::size_t capacity_;
    bool enabled_ = false;
    Ticks origin_ = 0;

    std::vector<TraceEvent> events_;
    std::uint64_t dropped_ = 0;

    std::vector<OpenSpan> open_;
    /** Indices into open_ of the open stage spans (innermost last). */
    std::vector<std::size_t> openStages_;

    std::map<std::string, Ticks> stageSelf_;
    Ticks attributed_ = 0;
    Ticks idle_ = 0;
    Ticks unattributed_ = 0;
};

/**
 * RAII span. Does nothing (and records nothing) when @p sink is null
 * or disabled, so instrumentation points cost one test+branch.
 */
class TraceSpan
{
  public:
    TraceSpan(TraceSink *sink, TraceCategory category, const char *name)
        : sink_(SVTSIM_UNLIKELY(sink && sink->enabled()) ? sink
                                                         : nullptr)
    {
        if (SVTSIM_UNLIKELY(sink_ != nullptr))
            handle_ = sink_->beginSpan(category, name);
    }

    ~TraceSpan()
    {
        if (SVTSIM_UNLIKELY(sink_ != nullptr))
            sink_->endSpan(handle_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    TraceSink *sink_;
    std::size_t handle_ = 0;
};

/** Record an instant event if @p sink_expr yields an enabled sink. */
#ifdef SVTSIM_DISABLE_TRACING
#define SVTSIM_TRACE_INSTANT(sink_expr, category, name)                \
    do {                                                               \
    } while (0)
#define SVTSIM_TRACE_SPAN(var, sink_expr, category, name)              \
    do {                                                               \
    } while (0)
#else
#define SVTSIM_TRACE_INSTANT(sink_expr, category, name)                \
    do {                                                               \
        ::svtsim::TraceSink *sink_ = (sink_expr);                      \
        if (SVTSIM_UNLIKELY(sink_ && sink_->enabled()))                \
            sink_->instant((category), (name));                        \
    } while (0)
#define SVTSIM_TRACE_SPAN(var, sink_expr, category, name)              \
    ::svtsim::TraceSpan var((sink_expr), (category), (name))
#endif

} // namespace svtsim

#endif // SVTSIM_SIM_TRACE_H
