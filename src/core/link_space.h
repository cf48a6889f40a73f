#ifndef ALEX_CORE_LINK_SPACE_H_
#define ALEX_CORE_LINK_SPACE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/blocking.h"
#include "core/feature.h"
#include "feedback/ground_truth.h"
#include "rdf/dataset.h"

namespace alex::core {

using feedback::PairKey;

/// The space of feature sets ALEX explores in (Sections 4 and 6.1): one
/// feature set per entity pair that survives the θ filter, plus a per-feature
/// sorted index that answers the band queries exploration actions issue
/// ("all pairs whose score on feature f lies in [v−step, v+step]").
///
/// Construction applies two reductions:
///  1. The θ filter of Section 6.1 — pairs with no feature ≥ θ are dropped.
///  2. Value blocking — only pairs that share a normalized value, a word
///     token, or a token prefix are evaluated at all. This is an engineering
///     substitute for evaluating the full |L|×|R| cross product (which the
///     paper affords with 27 partitions on a 64-core machine); pairs outside
///     the blocks would score ≈0 on every feature and be θ-filtered anyway.
///     Oversized blocks (stop values such as rdf:type classes) are skipped
///     via `max_block_pairs`.
///
/// Blocking is served by a BlockingIndex (core/blocking.h) built once per
/// right dataset and shared read-only across partitions, so the right
/// dataset is inverted once rather than once per partition. The spaces this
/// build produces are pinned by golden digests (blocking_equivalence_test).
///
/// Thread-compatible after Build(): all queries are const.
class LinkSpace {
 public:
  struct BuildStats {
    /// |left subset| × |right| — the unfiltered space (Figure 5a's bar).
    uint64_t total_possible = 0;
    /// Pairs proposed by blocking and evaluated.
    uint64_t candidate_pairs = 0;
    /// Pairs kept (≥1 feature above θ) — Figure 5a's "filtered" bar.
    uint64_t kept_pairs = 0;
    /// Total feature entries indexed.
    uint64_t features_indexed = 0;
  };

  LinkSpace() = default;

  /// Builds the space between `left_entities` (a partition of the left
  /// dataset) and all entities of `right`, using shared read-only build
  /// resources (right-dataset blocking index, term-key and value caches).
  /// All of `res`'s members must be non-null, built from these datasets,
  /// and outlive the call. Datasets are borrowed and must outlive the
  /// LinkSpace.
  ///
  /// With a non-null `arena`, the build-phase temporaries (per-key block
  /// count map, evaluated-pair set, similarity-memo table) bump-allocate
  /// from it instead of the global allocator; the arena is scratch only —
  /// nothing in the finished LinkSpace points into it, so the caller frees
  /// or resets it as soon as Build returns. PartitionedAlex passes a
  /// per-partition arena; the single-shot wrapper below passes none. Both
  /// produce bit-identical spaces.
  void Build(const rdf::Dataset& left, const rdf::Dataset& right,
             const std::vector<rdf::EntityId>& left_entities, double theta,
             size_t max_block_pairs, const BuildResources& res,
             exec::ArenaAllocator* arena = nullptr);

  /// Single-shot convenience wrapper: builds the blocking index and caches
  /// locally, then delegates to the shared-resource overload. Call sites
  /// that build one space (tests, examples) keep working unchanged; use
  /// the overload above to amortize the resources across partitions.
  void Build(const rdf::Dataset& left, const rdf::Dataset& right,
             const std::vector<rdf::EntityId>& left_entities, double theta,
             size_t max_block_pairs);

  bool Contains(PairKey pair) const { return index_.count(pair) > 0; }

  /// Feature set of a pair, or nullptr if the pair is not in the space.
  const FeatureSet* FeaturesOf(PairKey pair) const;

  /// Appends to `out` every pair whose score on feature `f` lies in
  /// [lo, hi] (inclusive). Bounds are compared in double precision against
  /// the stored float scores, so a pair just outside [lo, hi] is never
  /// admitted by float rounding.
  void BandQuery(FeatureKey f, double lo, double hi,
                 std::vector<PairKey>* out) const;

  /// Number of pairs in the space.
  size_t size() const { return pairs_.size(); }

  const std::vector<PairKey>& pairs() const { return pairs_; }
  const BuildStats& stats() const { return stats_; }

  /// Distinct features indexed (for introspection and tests).
  size_t num_features() const { return feature_index_.size(); }

  /// Number of pairs in the space carrying feature `f` (0 if unknown).
  /// Low counts mean the feature is selective/identifying; high counts mean
  /// it barely distinguishes entities (rdf:type, small categorical pools).
  size_t FeatureCount(FeatureKey f) const {
    auto it = feature_index_.find(f);
    return it == feature_index_.end() ? 0 : it->second.size();
  }

  /// Largest FeatureCount over all features (0 for an empty space).
  size_t MaxFeatureCount() const { return max_feature_count_; }

 private:
  /// Clears all state and seeds stats with the unfiltered space size.
  void Reset(uint64_t total_possible);
  /// Admits one evaluated pair: θ-filters and stores its feature set.
  void KeepIfNonEmpty(PairKey pair, FeatureSet fs);
  /// Builds the per-feature sorted score index over the kept pairs.
  void FinalizeFeatureIndex();

  std::unordered_map<PairKey, uint32_t> index_;
  std::vector<PairKey> pairs_;
  std::vector<FeatureSet> feature_sets_;
  /// Per feature: (score, pair ordinal), sorted by score.
  std::unordered_map<FeatureKey, std::vector<std::pair<float, uint32_t>>>
      feature_index_;
  size_t max_feature_count_ = 0;
  BuildStats stats_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_LINK_SPACE_H_
