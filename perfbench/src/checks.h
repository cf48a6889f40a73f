#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "feedback/ground_truth.h"
#include "obs/metrics.h"

namespace perfbench {

/// What one pass of a learning workload (batch or interactive) leaves
/// behind for the output checks.
struct LearningOutcome {
  uint64_t seed = 0;        // The seed the pass ran with.
  uint64_t digest = 0;      // FNV-1a of the final CandidateVector().
  double initial_f = 0.0;   // Episode 0: the seed linker's F.
  double final_f = 0.0;
  /// Registry counters the pass must reproduce exactly (see
  /// DeterministicCounters).
  std::map<std::string, uint64_t> counters;
};

/// The counters of a snapshot delta that do not depend on scheduling:
/// engine, link-space, arena and metrics work. Pool counters (steals,
/// tasks) are left out.
std::map<std::string, uint64_t> DeterministicCounters(
    const alex::obs::MetricsSnapshot& delta);

/// FNV-1a over a candidate set in CandidateVector()'s canonical order.
uint64_t CandidateDigest(const std::vector<alex::feedback::PairKey>& keys);

/// Failures of a learning workload's passes: every pass must end with F at
/// least its episode-0 F, and every pass must repeat the digest, final F
/// and deterministic counters of the first pass with the same seed
/// exactly. Returns one message per failure; empty means the run is
/// correct.
std::vector<std::string> CheckLearningPasses(
    const std::vector<LearningOutcome>& passes);

/// Accounting of one LinkService::Run, with the link-set comparison made
/// after its final commit.
struct ServeOutcome {
  uint64_t ops = 0;
  uint64_t queries = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;            // ServiceReport::committed_episodes.
  uint64_t epochs_published = 0;   // ServiceReport::epochs_published.
  uint64_t commit_counter = 0;     // svc.commits delta.
  uint64_t link_commit_counter = 0;  // fed.link_commits delta.
  /// The published link index equals the engine's CandidateVector().
  bool links_match = false;
};

/// Failures of one service run: queries == ops - shed, no failed query, at
/// least one commit, one published epoch per commit (in the report and in
/// the registry), and a published link set equal to the engine's.
std::vector<std::string> CheckServeOutcome(const ServeOutcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
