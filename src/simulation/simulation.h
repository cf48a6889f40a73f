#ifndef ALEX_SIMULATION_SIMULATION_H_
#define ALEX_SIMULATION_SIMULATION_H_

#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "obs/telemetry.h"
#include "obs/telemetry_hub.h"
#include "paris/paris.h"
#include "paris/sigma.h"

namespace alex::simulation {

/// Full configuration of one experiment run: the synthetic scenario, the
/// PARIS settings producing the initial candidate links, the ALEX engine
/// settings, and the simulated user.
struct SimulationConfig {
  datagen::ScenarioConfig scenario;
  core::AlexConfig alex;
  paris::ParisConfig paris;
  /// Seed-linker selection: the type tag of the linker that produces the
  /// initial candidate links ("paris" or "sigma"; see paris/seed_linkers.h).
  /// An unknown tag falls back to "paris" with an error log. The tag of the
  /// linker actually used is recorded in simulation checkpoints, and a
  /// resume under a different linker fails loudly.
  std::string linker = "paris";
  /// Settings of the SiGMa-style linker (used when `linker == "sigma"`).
  paris::SigmaConfig sigma;
  /// Fraction of feedback items whose verdict is flipped (Appendix C).
  double feedback_error_rate = 0.0;
  uint64_t oracle_seed = 99;

  /// Durable checkpoint/resume (see core/checkpoint.h and DESIGN.md
  /// "Checkpoint & resume"). When `checkpoint_every_k_episodes` > 0 the run
  /// writes a crash-consistent snapshot of the full engine + oracle state
  /// into `checkpoint_dir` after every k-th episode, retaining the newest
  /// `checkpoint_keep` snapshots behind a manifest.
  size_t checkpoint_every_k_episodes = 0;
  std::string checkpoint_dir;
  size_t checkpoint_keep = 3;

  /// When non-empty, the run restores from this checkpoint (a file, a
  /// checkpoint directory, or a MANIFEST path — the newest retained
  /// snapshot is used) instead of starting at episode 1, and then continues
  /// bit-identically to the uninterrupted run at every episode boundary.
  /// The scenario/config must match the checkpointing run (enforced via
  /// the config fingerprint in the checkpoint header).
  std::string resume_from;

  /// Optional live telemetry: when set (not owned), the run gives the hub a
  /// sampling opportunity at every episode boundary, so a long run emits a
  /// timestamped metric/SLO series instead of only end-of-run telemetry.
  obs::TelemetryHub* telemetry_hub = nullptr;
};

/// Quality and activity after one episode. Record 0 is the initial (PARIS)
/// state, matching the figures' episode-0 points.
struct EpisodeRecord {
  size_t episode = 0;
  core::LinkSetMetrics metrics;
  size_t links_changed = 0;  // |candidates Δ previous candidates|.
  size_t positive_feedback = 0;
  size_t negative_feedback = 0;
  size_t links_added = 0;
  size_t links_removed = 0;
  size_t rollbacks = 0;
  double seconds = 0.0;  // Wall time of this episode.

  double NegativeFeedbackPercent() const {
    const size_t total = positive_feedback + negative_feedback;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(negative_feedback) /
                            static_cast<double>(total);
  }
};

/// Outcome of a full policy-evaluation / policy-improvement run.
struct RunResult {
  std::string scenario_name;
  std::vector<EpisodeRecord> episodes;  // episodes[0] = initial state.
  /// First episode after which the candidate set did not change at all;
  /// 0 when the run hit max_episodes instead.
  size_t converged_episode = 0;
  /// First episode after which fewer than 5% of links changed (the paper's
  /// relaxed convergence, green vertical line in the figures).
  size_t relaxed_episode = 0;
  /// Correct links in the final candidate set that were not in the initial
  /// set ("new links discovered" in Section 7.2).
  size_t new_links_discovered = 0;
  size_t initial_links = 0;
  double build_seconds_max = 0.0;  // Slowest partition's space build.
  double build_seconds_avg = 0.0;
  /// One-time shared blocking-index/cache construction, amortized across
  /// all partitions.
  double shared_index_seconds = 0.0;
  double total_seconds = 0.0;      // Whole run, including build and PARIS.
  core::LinkSpace::BuildStats space_stats;  // Aggregated across partitions.
  /// Where the run's time went: ordered, disjoint phase timings (generate,
  /// paris, blocking, build_space, explore, end_episode, evaluate) plus the
  /// metrics-registry delta observed during the run. Serialized by the
  /// benches as a *.telemetry.json sidecar.
  obs::RunTelemetry telemetry;
  /// Episode boundary this run resumed from (0 = fresh run). The episode
  /// series before this point was restored from the checkpoint.
  size_t resumed_from_episode = 0;
  /// Non-OK when `resume_from` was set but the checkpoint could not be
  /// restored (missing, corrupt, truncated, or config-mismatched). The run
  /// aborts after episode 0 rather than silently diverging from the
  /// checkpointing run.
  Status resume_error;

  /// Precondition: the run produced at least one episode record (Run()
  /// always records episode 0). Guard hand-built results before calling.
  const EpisodeRecord& final_episode() const { return episodes.back(); }
};

/// Experiment driver: generates the scenario, runs PARIS for the initial
/// candidate links, builds partitioned ALEX, then alternates feedback
/// episodes (policy evaluation) with policy improvement until convergence
/// (Section 3.2), recording the per-episode metric series every figure in
/// the paper plots.
class Simulation {
 public:
  /// Called after every episode with the live engine; used by benches that
  /// need per-partition traces (Figure 7b/7c).
  using EpisodeObserver =
      std::function<void(size_t episode, const core::PartitionedAlex& alex)>;

  explicit Simulation(SimulationConfig config);

  /// Runs to convergence and returns the full record.
  RunResult Run();

  void set_observer(EpisodeObserver observer) {
    observer_ = std::move(observer);
  }

  /// The generated data pair (valid after Run()).
  const datagen::GeneratedPair& data() const { return data_; }

  /// Ground truth restricted to one partition's left entities, for
  /// per-partition quality traces.
  static feedback::GroundTruth PartitionTruth(
      const feedback::GroundTruth& truth, const core::PartitionedAlex& alex,
      size_t partition);

 private:
  SimulationConfig config_;
  datagen::GeneratedPair data_;
  EpisodeObserver observer_;
};

}  // namespace alex::simulation

#endif  // ALEX_SIMULATION_SIMULATION_H_
