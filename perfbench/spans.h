/**
 * @file
 * In-memory host-time spans recorded by the benchmark's own code in a
 * traced run: workload -> scenario -> setup / Cluster::run -> driver
 * function (on its own thread, caused by the run span) -> one span
 * per GuestApi call. Each span is tagged with the simulator layer the
 * timed call enters, so per-layer self time falls out of the tree.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t
{
    Bench,     ///< the benchmark's own loops and bookkeeping
    Workloads, ///< peers and drivers (workloads/)
    System,    ///< cluster, sweep, fleet (system/)
    Hv,        ///< trapping GuestApi calls (hv/, virt/, svt/)
    Arch,      ///< cost charging: GuestApi::compute (arch/)
    Io,        ///< devices and links (io/)
    Stats,     ///< PMU snapshots (stats/)
};

constexpr int numLayers = 7;

const char *layerName(Layer layer);

struct Span
{
    std::uint32_t id = 0;
    /** 0 for a root span. */
    std::uint32_t parent = 0;
    /** Small dense id of the recording thread. */
    std::uint32_t thread = 0;
    Layer layer = Layer::Bench;
    /** Static string: span names are literals. */
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/** Thread-safe append-only span store. */
class SpanRecorder
{
  public:
    /** Open a span (ended by end()); returns its id. */
    std::uint32_t begin(const char *name, Layer layer,
                        std::uint32_t parent);
    void end(std::uint32_t id);

    /** Record a finished span in one step (per-call spans). */
    void add(const char *name, Layer layer, std::uint32_t parent,
             std::uint64_t startNs, std::uint64_t endNs);

    std::vector<Span> spans() const;
    void clear();

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** The innermost open span of the calling thread (0 when none). */
std::uint32_t currentSpan();

/**
 * RAII span; a null recorder makes it a no-op. The parent defaults to
 * the calling thread's innermost open span; a span opened on another
 * thread passes its causing span explicitly.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, Layer layer);
    ScopedSpan(SpanRecorder *rec, const char *name, Layer layer,
               std::uint32_t parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    std::uint32_t id_ = 0;
    std::uint32_t saved_ = 0;
};

/**
 * Self time per layer, seconds. A span's self time is its duration
 * minus the durations of its children *on the same thread*; a child
 * on another thread ran concurrently (a driver caused by a run span)
 * and is not subtracted.
 */
std::array<double, numLayers> layerSelfTimes(const std::vector<Span> &spans);

/** Write @p spans as Chrome trace-event JSON, keeping the first 1000
 *  per-call (hv/arch) spans under each parent; false on I/O error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
