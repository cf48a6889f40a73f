#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <optional>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must have strictly beyond it before the
/// harness reports that percentile.
inline constexpr size_t kMinTailSamples = 10;

/// The q-quantile (0 < q < 1) of `samples` by nearest rank, or nullopt
/// when fewer than kMinTailSamples samples lie beyond it: p99 needs at
/// least 1000 samples, the median at least 20.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
double Median(std::vector<double> samples);

/// Arithmetic mean of `samples`; 0 when empty.
double Mean(const std::vector<double>& samples);

/// Smallest of `samples`; 0 when empty. For costs that interference from
/// outside the process only ever adds to, such as CPU time on a shared
/// host.
double Least(const std::vector<double>& samples);

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method). Needs at
/// least two samples; fewer yield the single value (or 0) three times.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median, the spread the benchmark bounds; 0 when the
  /// median is 0.
  double RelativeIqr() const;
};
Quartiles ComputeQuartiles(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
