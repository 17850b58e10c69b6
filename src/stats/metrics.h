/**
 * @file
 * Simulated PMU: a typed per-context metrics registry.
 *
 * The trace layer (sim/trace.h) answers "where did every nanosecond
 * go, in order"; the metrics registry answers the PMU-style question
 * the paper's Table 1 and Section 6 ablations are built on: "how many
 * events of each kind happened, and what did each cost". It replaces
 * the ad-hoc string-keyed counter map that Machine used to carry.
 *
 * Components register their metrics once, at construction time, and
 * receive small interned handles (registry pointer + slot index), so
 * the hot path — a VMX exit, an SVt switch, a ring post — is a plain
 * vector-indexed add with no string hashing. Three kinds exist:
 *
 *  - Counter: monotonically increasing event count;
 *  - Gauge: instantaneous level (ring depth, queue occupancy) with a
 *    high-water mark;
 *  - LatencyHistogram: count/sum/min/max plus log2-spaced bins over
 *    tick values, cheap enough to sit on the exit dispatch path and
 *    deterministic enough to export byte-identically.
 *
 * Every metric carries a hardware-context scope (L0 / L1 / L2 /
 * SVt-thread / whole machine) and a component label; both are export
 * attributes, while the name alone is the identity. Registration is
 * idempotent: registering the same name again returns the same slot
 * (and panics on a kind mismatch), which lets several instances of a
 * component (two VMX engines, many lapics) share one aggregate metric
 * exactly like the old shared string keys did.
 *
 * A MetricsSnapshot is a value-type copy of the registry contents
 * (plus the Machine's stage-scope totals), sorted by name, with a
 * stable JSON serialization and a human-readable Table 1-style
 * breakdown report. Snapshots taken from isolated per-scenario
 * machines are pure functions of (config, seed), so the sweep
 * engine's `--metrics` export is byte-identical for any worker count.
 */

#ifndef SVTSIM_STATS_METRICS_H
#define SVTSIM_STATS_METRICS_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/ticks.h"

namespace svtsim {

/** Hardware context a metric is attributed to (Table 2's worldview:
 *  the hypervisor context, the SVt-thread, the guest contexts). */
enum class MetricScope : std::uint8_t
{
    Machine, ///< Whole-machine / not context-specific.
    L0,      ///< Host hypervisor context.
    L1,      ///< Guest hypervisor (SVt-thread in SW SVt).
    L2,      ///< Nested guest context.
    Svt,     ///< The SVt unit / command channel itself.
};

const char *metricScopeName(MetricScope scope);

enum class MetricKind : std::uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

const char *metricKindName(MetricKind kind);

/**
 * Log2-binned latency distribution over non-negative tick values.
 *
 * Exact count/sum/min/max; quantiles are deterministic upper-bound
 * estimates from the bins, clamped to [min, max] (bin b holds values
 * whose bit width is b, i.e. [2^(b-1), 2^b - 1], bin 0 holds zeros).
 */
struct HistogramData
{
    static constexpr int numBins = 64;

    std::uint64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::array<std::uint64_t, numBins> bins{};

    void record(std::int64_t value);

    double mean() const;

    /** Deterministic bin-estimate of quantile @p q in [0, 1]. */
    double quantile(double q) const;
};

class MetricsRegistry;

/** Interned counter handle: O(1) increment, no string hashing. A
 *  default-constructed handle is inert (increments are dropped). */
class Counter
{
  public:
    Counter() = default;

    inline void inc(std::uint64_t n = 1);
    inline std::uint64_t value() const;

    bool valid() const { return reg_ != nullptr; }

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *reg, std::uint32_t slot)
        : reg_(reg), slot_(slot)
    {
    }

    MetricsRegistry *reg_ = nullptr;
    std::uint32_t slot_ = 0;
};

/** Interned gauge handle: tracks a level and its high-water mark. */
class Gauge
{
  public:
    Gauge() = default;

    inline void set(std::int64_t v);
    inline std::int64_t value() const;
    inline std::int64_t maxValue() const;

    bool valid() const { return reg_ != nullptr; }

  private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry *reg, std::uint32_t slot)
        : reg_(reg), slot_(slot)
    {
    }

    MetricsRegistry *reg_ = nullptr;
    std::uint32_t slot_ = 0;
};

/** Interned histogram handle; record() is a few shifts and adds. */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;

    inline void record(std::int64_t value);
    inline const HistogramData &data() const;

    bool valid() const { return reg_ != nullptr; }

  private:
    friend class MetricsRegistry;
    LatencyHistogram(MetricsRegistry *reg, std::uint32_t slot)
        : reg_(reg), slot_(slot)
    {
    }

    MetricsRegistry *reg_ = nullptr;
    std::uint32_t slot_ = 0;
};

/** Value-type copy of one metric, for snapshots. */
struct MetricSample
{
    std::string name;
    std::string component;
    MetricScope scope = MetricScope::Machine;
    MetricKind kind = MetricKind::Counter;

    /** Counter value / gauge level. */
    std::int64_t value = 0;
    /** Gauge high-water mark. */
    std::int64_t maxValue = 0;
    /** Histogram contents (kind == Histogram only). */
    HistogramData hist;
};

/**
 * Point-in-time copy of a registry plus the owning Machine's
 * stage-scope totals. Samples are sorted by name and the exporters
 * emit them in that order, so serialization is stable across runs
 * and across sweep worker counts.
 */
struct MetricsSnapshot
{
    std::vector<MetricSample> samples;
    /** Machine attribution buckets (stage.* / exit.*), name-sorted. */
    std::vector<std::pair<std::string, Ticks>> scopes;

    /** Sample by name, or nullptr. */
    const MetricSample *find(const std::string &name) const;

    /** Ticks accrued to an attribution scope (0 when absent). */
    Ticks scopeTicks(const std::string &name) const;

    /**
     * Stable JSON object: {"metrics": [...], "stages": [...]}. Every
     * line is prefixed with @p indent so callers can nest the object
     * inside their own documents.
     */
    void writeJson(std::ostream &os, const std::string &indent) const;

    /** Human-readable Table 1-style report: the stage breakdown plus
     *  per-exit-reason count/latency tables for levels 2 and 1. */
    void writeBreakdown(std::ostream &os) const;
};

/**
 * The registry: owns metric storage, hands out interned handles.
 *
 * Not thread-safe by design — one registry belongs to one Machine,
 * and the sweep engine gives every scenario its own machine.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register (or re-open) a metric. Idempotent on @p name: a second
     * registration returns a handle to the same slot and keeps the
     * first registration's scope/component; a kind mismatch panics.
     */
    Counter counter(MetricScope scope, std::string component,
                    std::string name);
    Gauge gauge(MetricScope scope, std::string component,
                std::string name);
    LatencyHistogram histogram(MetricScope scope, std::string component,
                               std::string name);

    bool has(const std::string &name) const;
    std::size_t size() const { return slots_.size(); }

    // -- Name-based lookups (cold path) ----------------------------------
    /** Value of a registered counter; fatal on unknown names. */
    std::uint64_t counterValue(const std::string &name) const;

    /** All counters as a name -> value map (includes
     *  registered-but-untouched zeros). */
    std::map<std::string, std::uint64_t> counterValues() const;

    /** Zero every value (counters, gauges, histogram contents) while
     *  keeping all registrations and handles alive. */
    void reset();

    /** Copy out every metric, sorted by name. */
    MetricsSnapshot snapshot() const;

  private:
    friend class Counter;
    friend class Gauge;
    friend class LatencyHistogram;

    struct Slot
    {
        MetricScope scope;
        MetricKind kind;
        std::string component;
        std::string name;
        std::uint64_t value = 0;  ///< Counter.
        std::int64_t gauge = 0;   ///< Gauge level.
        std::int64_t gaugeMax = 0;
        HistogramData hist;
    };

    std::uint32_t intern(MetricScope scope, std::string component,
                         std::string name, MetricKind kind);

    std::vector<Slot> slots_;
    std::map<std::string, std::uint32_t> index_;
};

// ---------------------------------------------------- inline hot path

inline void
Counter::inc(std::uint64_t n)
{
    if (reg_)
        reg_->slots_[slot_].value += n;
}

inline std::uint64_t
Counter::value() const
{
    return reg_ ? reg_->slots_[slot_].value : 0;
}

inline void
Gauge::set(std::int64_t v)
{
    if (!reg_)
        return;
    auto &s = reg_->slots_[slot_];
    s.gauge = v;
    if (v > s.gaugeMax)
        s.gaugeMax = v;
}

inline std::int64_t
Gauge::value() const
{
    return reg_ ? reg_->slots_[slot_].gauge : 0;
}

inline std::int64_t
Gauge::maxValue() const
{
    return reg_ ? reg_->slots_[slot_].gaugeMax : 0;
}

inline void
LatencyHistogram::record(std::int64_t value)
{
    if (reg_)
        reg_->slots_[slot_].hist.record(value);
}

inline const HistogramData &
LatencyHistogram::data() const
{
    static const HistogramData empty{};
    return reg_ ? reg_->slots_[slot_].hist : empty;
}

} // namespace svtsim

#endif // SVTSIM_STATS_METRICS_H
