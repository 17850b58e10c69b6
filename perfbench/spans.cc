#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "host.h"

namespace perfbench {

namespace {

thread_local std::uint32_t tlsCurrent = 0;

/** Dense id of the calling thread. */
std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t index = next++;
    return index;
}

} // namespace

const char *
layerName(Layer layer)
{
    static const char *const names[numLayers] = {
        "bench", "workloads", "system", "hv", "arch", "io", "stats"};
    return names[static_cast<int>(layer)];
}

std::uint32_t
currentSpan()
{
    return tlsCurrent;
}

std::uint32_t
SpanRecorder::begin(const char *name, Layer layer, std::uint32_t parent)
{
    Span s;
    s.parent = parent;
    s.thread = threadIndex();
    s.layer = layer;
    s.name = name;
    s.startNs = wallNs();
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(s);
    return s.id;
}

void
SpanRecorder::end(std::uint32_t id)
{
    const std::uint64_t now = wallNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].endNs = now;
}

void
SpanRecorder::add(const char *name, Layer layer, std::uint32_t parent,
                  std::uint64_t startNs, std::uint64_t endNs)
{
    Span s;
    s.parent = parent;
    s.thread = threadIndex();
    s.layer = layer;
    s.name = name;
    s.startNs = startNs;
    s.endNs = endNs;
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(s);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
SpanRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name, Layer layer)
    : ScopedSpan(rec, name, layer, tlsCurrent)
{
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name, Layer layer,
                       std::uint32_t parent)
    : rec_(rec)
{
    if (!rec_)
        return;
    id_ = rec_->begin(name, layer, parent);
    saved_ = tlsCurrent;
    tlsCurrent = id_;
}

ScopedSpan::~ScopedSpan()
{
    if (!rec_)
        return;
    rec_->end(id_);
    tlsCurrent = saved_;
}

std::array<double, numLayers>
layerSelfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> byId;
    byId.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        byId[spans[i].id] = i;

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs);
    for (const Span &s : spans) {
        auto it = byId.find(s.parent);
        if (it == byId.end() || spans[it->second].thread != s.thread)
            continue;
        self[it->second] -= static_cast<double>(s.endNs - s.startNs);
    }

    std::array<double, numLayers> out{};
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[static_cast<int>(spans[i].layer)] += self[i] * 1e-9;
    return out;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::uint64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        t0 = std::min(t0, s.startNs);
    // Per-call leaves dominate a trap storm; keep the first few under
    // each parent so the file stays small and still shows the shape.
    constexpr int leavesPerParent = 1000;
    std::unordered_map<std::uint32_t, int> leaves;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (const Span &s : spans) {
        if ((s.layer == Layer::Hv || s.layer == Layer::Arch) &&
            ++leaves[s.parent] > leavesPerParent)
            continue;
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                     "\"dur\": %.3f, \"args\": {\"id\": %u, "
                     "\"parent\": %u}}\n",
                     first ? "" : ",", s.name, layerName(s.layer),
                     s.thread, static_cast<double>(s.startNs - t0) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     s.id, s.parent);
        first = false;
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
