#include "core/link_space.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace alex::core {
namespace {

using rdf::Dataset;
using rdf::EntityId;

/// Link-space metrics. Counters for the dominant build-phase costs are
/// accumulated in plain locals and flushed once per build, so the per-pair
/// hot loops stay free of even relaxed atomics.
struct SpaceMetrics {
  obs::Counter& band_queries =
      obs::MetricsRegistry::Global().counter("space.band_queries");
  obs::Counter& band_results =
      obs::MetricsRegistry::Global().counter("space.band_results");
  obs::Counter& pairs_evaluated =
      obs::MetricsRegistry::Global().counter("space.pairs_evaluated");
  obs::Counter& pairs_kept =
      obs::MetricsRegistry::Global().counter("space.pairs_kept");
  obs::Counter& memo_hits =
      obs::MetricsRegistry::Global().counter("space.sim_memo_hits");
  obs::Counter& memo_misses =
      obs::MetricsRegistry::Global().counter("space.sim_memo_misses");
  obs::Histogram& build_seconds =
      obs::MetricsRegistry::Global().histogram("space.build_seconds");

  static SpaceMetrics& Get() {
    static SpaceMetrics* metrics = new SpaceMetrics();
    return *metrics;
  }
};

/// Stop-value cap: a key proposing a sizable fraction of the whole cross
/// product is a stop value regardless of the absolute cap (e.g. a shared
/// rdf:type class at small scale); such blocks carry no identifying signal.
uint64_t EffectiveBlockCap(uint64_t total_possible, size_t max_block_pairs) {
  const uint64_t relative_cap = std::max<uint64_t>(100, total_possible / 20);
  return std::min<uint64_t>(max_block_pairs, relative_cap);
}

}  // namespace

void LinkSpace::Reset(uint64_t total_possible) {
  index_.clear();
  pairs_.clear();
  feature_sets_.clear();
  feature_index_.clear();
  stats_ = BuildStats{};
  stats_.total_possible = total_possible;
}

void LinkSpace::KeepIfNonEmpty(PairKey pair, FeatureSet fs) {
  if (fs.empty()) return;
  const uint32_t ordinal = static_cast<uint32_t>(pairs_.size());
  index_.emplace(pair, ordinal);
  pairs_.push_back(pair);
  feature_sets_.push_back(std::move(fs));
}

void LinkSpace::FinalizeFeatureIndex() {
  stats_.kept_pairs = pairs_.size();
  for (uint32_t ordinal = 0; ordinal < pairs_.size(); ++ordinal) {
    for (const FeatureValue& f : feature_sets_[ordinal]) {
      feature_index_[f.key].emplace_back(static_cast<float>(f.score), ordinal);
      ++stats_.features_indexed;
    }
  }
  max_feature_count_ = 0;
  for (auto& [key, entries] : feature_index_) {
    std::sort(entries.begin(), entries.end());
    max_feature_count_ = std::max(max_feature_count_, entries.size());
  }
}

void LinkSpace::Build(const Dataset& left, const Dataset& right,
                      const std::vector<EntityId>& left_entities, double theta,
                      size_t max_block_pairs, const BuildResources& res,
                      exec::ArenaAllocator* arena) {
  ALEX_TRACE_SPAN("build", "LinkSpace::Build");
  SpaceMetrics& metrics = SpaceMetrics::Get();
  obs::ScopedTimer build_timer(metrics.build_seconds);
  Reset(static_cast<uint64_t>(left_entities.size()) *
        static_cast<uint64_t>(right.num_entities()));

  // Count left-subset entities per key so oversized blocks can be skipped.
  // The counts are per-partition by design (a block's size is |partition
  // lefts with the key| × |right block|), so this pass stays local; only
  // the right-side inversion is shared.
  //
  // The count map, evaluated-pair set, and similarity memo are the build's
  // allocation churn (millions of node/table allocations that all die when
  // this function returns); with an arena they become pointer bumps. Same
  // container types either way — a null arena in ArenaStl is the global
  // allocator — so the arena and null-arena builds run the same code.
  std::unordered_map<BlockKey, size_t, std::hash<BlockKey>,
                     std::equal_to<BlockKey>,
                     exec::ArenaStl<std::pair<const BlockKey, size_t>>>
      left_key_counts(/*bucket_count=*/0, std::hash<BlockKey>(),
                      std::equal_to<BlockKey>(),
                      exec::ArenaStl<std::pair<const BlockKey, size_t>>(arena));
  std::vector<BlockKey> entity_keys;
  for (EntityId l : left_entities) {
    res.left_keys->EntityKeys(l, &entity_keys);
    for (BlockKey key : entity_keys) ++left_key_counts[key];
  }

  const uint64_t effective_cap =
      EffectiveBlockCap(stats_.total_possible, max_block_pairs);

  // Term-pair similarity memo and feature scratch, owned by this
  // (single-threaded) partition build: the same attribute-value pair recurs
  // across many candidate entity pairs, and the string metrics behind
  // ValueSimilarity are the dominant build cost.
  SimilarityMemo sim_memo(arena);
  FeatureScratch scratch;

  std::unordered_set<PairKey, std::hash<PairKey>, std::equal_to<PairKey>,
                     exec::ArenaStl<PairKey>>
      evaluated(/*bucket_count=*/0, std::hash<PairKey>(),
                std::equal_to<PairKey>(), exec::ArenaStl<PairKey>(arena));
  for (EntityId l : left_entities) {
    res.left_keys->EntityKeys(l, &entity_keys);
    for (BlockKey key : entity_keys) {
      const std::vector<EntityId>* block = res.right_index->block(key);
      if (block == nullptr) continue;
      const uint64_t block_size =
          static_cast<uint64_t>(left_key_counts[key]) * block->size();
      if (block_size > effective_cap) continue;  // Stop value.
      for (EntityId r : *block) {
        const PairKey pair = feedback::PackPair(l, r);
        if (!evaluated.insert(pair).second) continue;
        KeepIfNonEmpty(pair,
                       ComputeFeatureSet(left, l, right, r, theta,
                                         res.left_values, res.right_values,
                                         &sim_memo, &scratch));
      }
    }
  }
  stats_.candidate_pairs = evaluated.size();
  FinalizeFeatureIndex();
  metrics.pairs_evaluated.Add(stats_.candidate_pairs);
  metrics.pairs_kept.Add(stats_.kept_pairs);
  metrics.memo_hits.Add(sim_memo.hits());
  metrics.memo_misses.Add(sim_memo.misses());
}

void LinkSpace::Build(const Dataset& left, const Dataset& right,
                      const std::vector<EntityId>& left_entities, double theta,
                      size_t max_block_pairs) {
  const BlockingIndex right_index(right);
  const TermKeyCache left_keys(left);
  const ValueCache left_values(left);
  const ValueCache right_values(right);
  Build(left, right, left_entities, theta, max_block_pairs,
        BuildResources{&right_index, &left_keys, &left_values, &right_values});
}

const FeatureSet* LinkSpace::FeaturesOf(PairKey pair) const {
  auto it = index_.find(pair);
  if (it == index_.end()) return nullptr;
  return &feature_sets_[it->second];
}

void LinkSpace::BandQuery(FeatureKey f, double lo, double hi,
                          std::vector<PairKey>* out) const {
  SpaceMetrics& metrics = SpaceMetrics::Get();
  metrics.band_queries.Add(1);
  auto it = feature_index_.find(f);
  if (it == feature_index_.end()) return;
  const size_t out_before = out->size();
  const auto& entries = it->second;
  // Search from a float bound guaranteed not to exceed `lo`:
  // static_cast<float>(lo) can round *above* lo, which would skip stored
  // scores inside the band. Entries the relaxed bound over-admits are
  // filtered below by comparing in double.
  float flo = static_cast<float>(lo);
  if (static_cast<double>(flo) > lo) {
    flo = std::nextafter(flo, -std::numeric_limits<float>::infinity());
  }
  auto begin = std::lower_bound(entries.begin(), entries.end(),
                                std::make_pair(flo, uint32_t{0}));
  for (auto cur = begin; cur != entries.end(); ++cur) {
    const double score = static_cast<double>(cur->first);
    if (score > hi) break;
    if (score < lo) continue;
    out->push_back(pairs_[cur->second]);
  }
  metrics.band_results.Add(out->size() - out_before);
}

}  // namespace alex::core
