/**
 * @file
 * What a benchmark run prints: named metrics with units, the
 * fingerprint of the simulated outputs, and the one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * FNV-1a over (key, value) pairs of exact simulated quantities. Two
 * runs of the same seed on any commit that leaves the simulation
 * alone must produce the same value.
 */
class Fingerprint
{
  public:
    void add(std::string_view key, std::uint64_t value);
    /** Doubles are hashed by bit pattern (exact, not rounded). */
    void add(std::string_view key, double value);

    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    void mix(const void *data, std::size_t len);

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Metric names and units may use only [A-Za-z0-9_.-] (units also
 *  '/' and '%'). */
bool validMetricName(std::string_view name);
bool validUnit(std::string_view unit);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile @p q in [0, 1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * The result line:
 * {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
 * Values are printed with 17 significant digits.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
