#ifndef ALEX_CORE_METRICS_H_
#define ALEX_CORE_METRICS_H_

#include <concepts>
#include <ranges>
#include <vector>

#include "feedback/ground_truth.h"
#include "obs/metrics.h"

namespace alex::core {

/// Link-set quality as reported in the paper's figures:
/// P = |C∩G| / |C|,  R = |C∩G| / |G|,  F = 2PR/(P+R)  (Section 7.1).
struct LinkSetMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f_measure = 0.0;
  size_t correct = 0;
  size_t candidates = 0;
  size_t ground_truth = 0;
};

/// Computes metrics of a candidate link set against the ground truth. Any
/// sized range of distinct PairKeys works: an engine's sorted slice, a
/// CandidateVector(), a hash set.
template <std::ranges::sized_range Range = std::vector<feedback::PairKey>>
  requires std::convertible_to<std::ranges::range_value_t<Range>,
                               feedback::PairKey>
LinkSetMetrics ComputeMetrics(const Range& candidates,
                              const feedback::GroundTruth& truth) {
  LinkSetMetrics m;
  m.candidates = std::ranges::size(candidates);
  m.ground_truth = truth.size();
  for (feedback::PairKey key : candidates) {
    if (truth.Contains(key)) ++m.correct;
  }
  // Zero denominators (empty candidate set, empty ground truth) leave the
  // affected metric at 0 rather than NaN — but a 0 that means "undefined"
  // is indistinguishable from a 0 that means "all wrong" in a metric
  // series, so each occurrence is counted as an explicit event.
  if (m.candidates > 0) {
    m.precision = static_cast<double>(m.correct) /
                  static_cast<double>(m.candidates);
  } else {
    obs::MetricsRegistry::Global().counter("metrics.undefined").Add(1);
  }
  if (m.ground_truth > 0) {
    m.recall = static_cast<double>(m.correct) /
               static_cast<double>(m.ground_truth);
  } else {
    obs::MetricsRegistry::Global().counter("metrics.undefined").Add(1);
  }
  if (m.precision + m.recall > 0.0) {
    m.f_measure = 2.0 * m.precision * m.recall / (m.precision + m.recall);
  }
  return m;
}

}  // namespace alex::core

#endif  // ALEX_CORE_METRICS_H_
