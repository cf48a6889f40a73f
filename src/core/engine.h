#ifndef ALEX_CORE_ENGINE_H_
#define ALEX_CORE_ENGINE_H_

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/link_space.h"
#include "core/policy.h"
#include "feedback/oracle.h"

namespace alex::core {

/// Counters describing one engine's activity inside the current episode.
struct EngineEpisodeStats {
  size_t feedback_items = 0;
  size_t positive_items = 0;
  size_t negative_items = 0;
  size_t links_added = 0;
  size_t links_removed = 0;
  size_t rollbacks = 0;
};

/// One ALEX learning engine over one link space (a single partition in the
/// paper's terms). Implements Algorithm 1: Monte Carlo policy evaluation
/// while feedback arrives, policy improvement at episode end, plus the
/// blacklist and rollback optimizations of Section 6.3.
///
/// Not thread-safe; partitions each own an engine and are driven
/// independently (Section 6.2).
class AlexEngine {
 public:
  /// `space` is borrowed and must outlive the engine.
  AlexEngine(const LinkSpace* space, const AlexConfig& config, uint64_t seed);

  /// Seeds the candidate set (e.g. from PARIS). Links outside the link
  /// space are accepted — they are feedback-able and removable, but
  /// actions cannot be taken from them (they have no feature set).
  void InitializeCandidates(const std::vector<PairKey>& initial_links);

  /// Algorithm 1 lines 12-21: processes one feedback item.
  ///
  /// Positive: first-visit MC credit to every generating state-action pair,
  /// then take an action from the policy and explore the band around the
  /// chosen feature, adding discovered links to the candidate set.
  /// Negative: credit the negative reward, remove the link, blacklist it,
  /// and bump the rollback counters of its generators.
  void ProcessFeedback(const feedback::FeedbackItem& item);

  /// Algorithm 1 lines 24-33 plus episode bookkeeping reset. Returns the
  /// stats of the episode just ended.
  EngineEpisodeStats EndEpisode();

  /// The candidate set, ascending and duplicate-free. The order is a
  /// function of the set alone, so callers may sample from it, merge it, or
  /// serialize it as-is.
  const std::vector<PairKey>& candidates() const { return candidates_; }
  bool IsCandidate(PairKey pair) const {
    return std::binary_search(candidates_.begin(), candidates_.end(), pair);
  }
  const LinkSpace& space() const { return *space_; }

  /// Starts recording the candidate-set changes made by feedback and
  /// episode ends, for TakeCandidateDelta(). Cost: one journal entry per
  /// effective insert or erase.
  void BeginCandidateDelta();
  /// Stops recording and appends the net change since
  /// BeginCandidateDelta(), ascending, to `added` (candidates now that were
  /// not then) and `removed` (the reverse).
  void TakeCandidateDelta(std::vector<PairKey>* added,
                          std::vector<PairKey>* removed);

  /// The live policy, behind the abstract interface. The concrete type is
  /// chosen by `config.policy` via the PolicyRegistry at construction.
  const Policy& policy() const { return *policy_; }

  size_t blacklist_size() const { return blacklist_.size(); }
  bool IsBlacklisted(PairKey pair) const { return blacklist_.count(pair) > 0; }

  /// Links ever added by exploration (distinct), for "new links discovered"
  /// reporting.
  size_t total_explored_links() const { return ever_explored_.size(); }

  size_t episodes_completed() const { return episodes_completed_; }

  /// Serializes the engine's full learning state: the policy (framed as
  /// its registry type tag plus a length-prefixed per-type payload),
  /// episode counters, candidate/blacklist/provenance sets, rollback
  /// accounting, and the in-episode first-visit bookkeeping. The link
  /// space is NOT serialized — it is a deterministic function of the
  /// datasets and is rebuilt on restore.
  void SaveState(BinaryWriter* w) const;

  /// Restores an engine saved with SaveState() into this engine (which must
  /// be built over an equivalent link space — enforced by the checkpoint
  /// header's config fingerprint, not here). `format_version` is the
  /// checkpoint container version the payload came from: version-1
  /// payloads carry a bare EpsilonGreedyPolicy snapshot (accepted iff this
  /// engine runs the default policy), version-2 payloads a tagged one. A
  /// policy section whose tag is unknown to this build or differs from the
  /// configured policy fails with an InvalidArgument naming the section
  /// and the tag. All-or-nothing: on any error the engine is left exactly
  /// as it was.
  Status LoadState(BinaryReader* r,
                   uint32_t format_version = ckpt::kFormatVersion);

 private:
  void Explore(PairKey state, FeatureKey action);
  void Rollback(const StateAction& generator);
  /// Sorted-vector insert and erase; each returns whether the set changed
  /// and journals the change while a delta is being recorded. Every
  /// candidate-set mutation outside InitializeCandidates and LoadState goes
  /// through these two.
  bool AddCandidate(PairKey pair);
  bool RemoveCandidate(PairKey pair);

  const LinkSpace* space_;
  AlexConfig config_;
  std::unique_ptr<Policy> policy_;
  ActionPrior selectivity_prior_;
  Rng rng_;

  /// Sorted and duplicate-free. A partition holds 10^2-10^3 candidates, so
  /// a contiguous vector beats a hash set: membership is a binary search,
  /// an insert or erase shifts a few KB, and the sampling snapshot is a
  /// plain copy.
  std::vector<PairKey> candidates_;
  /// Effective inserts (true) and erases (false) in order, while
  /// recording_delta_.
  std::vector<std::pair<PairKey, bool>> delta_journal_;
  bool recording_delta_ = false;
  std::unordered_set<PairKey> blacklist_;
  std::unordered_set<PairKey> ever_explored_;

  /// Provenance: which state-action pairs discovered a link (Section 6.3,
  /// "ALEX traces feedback on links to know by which state-action pair these
  /// links were generated").
  std::unordered_map<PairKey, std::vector<StateAction>> generators_;
  /// Inverse: links each state-action pair generated (for rollback).
  std::unordered_map<StateAction, std::vector<PairKey>, StateActionHash>
      generated_links_;
  /// Negative feedback attributed to each generator this run.
  std::unordered_map<StateAction, size_t, StateActionHash> negative_counts_;
  /// Negative feedback per link, for the blacklist threshold.
  std::unordered_map<PairKey, size_t> link_negative_counts_;
  /// Links that have received explicit positive feedback (never rolled back).
  std::unordered_set<PairKey> positively_marked_;

  /// Episode-scoped: first-visit marker and visited-state list.
  std::unordered_set<PairKey> visited_this_episode_;
  std::vector<PairKey> episode_states_;
  EngineEpisodeStats episode_stats_;
  size_t episodes_completed_ = 0;
};

}  // namespace alex::core

#endif  // ALEX_CORE_ENGINE_H_
