#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double Least(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

Quartiles ComputeQuartiles(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n < 2) {
    const double v = n == 1 ? samples[0] : 0.0;
    return {v, v, v};
  }
  std::sort(samples.begin(), samples.end());
  // statistics.quantiles, method="exclusive": m = n + 1, cut i at
  // j = floor(i*m/4) clamped to [1, n-1], interpolating by delta/4.
  const size_t m = n + 1;
  double cuts[3];
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

double Quartiles::RelativeIqr() const {
  return q2 == 0.0 ? 0.0 : (q3 - q1) / q2;
}

}  // namespace perfbench
