// Golden pins for the shared-BlockingIndex LinkSpace build (core/blocking.h).
// Every space built here — per scenario and per partition split — must match
// a recorded golden: the four BuildStats fields plus one FNV-64 over the
// sorted pair keys and, per pair, its feature count, feature keys and exact
// score bits. Scenarios come from the synthetic generator, not toy fixtures.
//
// Capture recipe: the goldens were recorded at commit abaa800 by running
// these exact scenarios through the pre-BlockingIndex reference build
// (LinkSpace's legacy build: string blocking keys, right dataset
// re-inverted per partition; PartitionedAlex with that build selected),
// with the shared-resource build checked equal at capture time. The
// reference build is gone, so the goldens cannot be regenerated from
// current sources, only re-verified.
//
// RelativeStopValueCapBinds was added later, with its goldens recorded from
// the shared-resource build at commit 55ff97f: the same RunScenario, with
// each space's BuildStats fields and DigestSpace printed instead of
// compared. It is the one case where the relative stop-value cap
// (total_possible / 20 in EffectiveBlockCap) is the binding cap and a block
// sits just above it, so changing that divisor (to 19 or 10) moves it.
//
// Live checks ride along: every kept pair's feature set must equal the
// uncached ComputeFeatureSet, so a ValueCache bug cannot hide behind a
// matching golden, and the per-feature index must agree with the sets.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/blocking.h"
#include "core/link_space.h"
#include "core/partitioned.h"
#include "datagen/generator.h"

namespace alex::core {
namespace {

struct SpaceGolden {
  uint64_t total_possible;
  uint64_t candidate_pairs;
  uint64_t kept_pairs;
  uint64_t features_indexed;
  uint64_t digest;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<PairKey> SortedPairs(const LinkSpace& space) {
  std::vector<PairKey> pairs = space.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

uint64_t DigestSpace(const LinkSpace& space) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (PairKey pair : SortedPairs(space)) {
    h = Mix(h, pair);
    const FeatureSet* fs = space.FeaturesOf(pair);
    h = Mix(h, fs->size());
    for (const FeatureValue& f : *fs) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(f.score));
      std::memcpy(&bits, &f.score, sizeof(bits));
      h = Mix(Mix(h, f.key), bits);
    }
  }
  return h;
}

void ExpectFeatureSetsEqual(const FeatureSet& a, const FeatureSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    // Exact double equality: the cached and uncached paths must run the
    // same arithmetic on the same parsed values.
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

/// Checks `space` against its golden, against the uncached feature
/// computation, and for internal consistency of the per-feature index.
void ExpectSpaceMatches(const datagen::GeneratedPair& pair,
                        const LinkSpace& space, double theta,
                        const SpaceGolden& golden, const std::string& where) {
  SCOPED_TRACE(where);
  const LinkSpace::BuildStats& stats = space.stats();
  EXPECT_EQ(stats.total_possible, golden.total_possible);
  EXPECT_EQ(stats.candidate_pairs, golden.candidate_pairs);
  EXPECT_EQ(stats.kept_pairs, golden.kept_pairs);
  EXPECT_EQ(stats.features_indexed, golden.features_indexed);
  EXPECT_EQ(DigestSpace(space), golden.digest);

  std::unordered_map<FeatureKey, size_t> feature_counts;
  for (PairKey key : space.pairs()) {
    const FeatureSet* fs = space.FeaturesOf(key);
    ASSERT_NE(fs, nullptr);
    const FeatureSet direct =
        ComputeFeatureSet(pair.left, feedback::PairLeft(key), pair.right,
                          feedback::PairRight(key), theta);
    ExpectFeatureSetsEqual(*fs, direct);
    for (const FeatureValue& f : *fs) ++feature_counts[f.key];
  }
  EXPECT_EQ(space.num_features(), feature_counts.size());
  size_t max_count = 0;
  for (const auto& [key, count] : feature_counts) {
    EXPECT_EQ(space.FeatureCount(key), count);
    max_count = std::max(max_count, count);
  }
  EXPECT_EQ(space.MaxFeatureCount(), max_count);
}

/// Builds every partition of a 1-way and a 3-way round-robin split against
/// shared build resources; `goldens` lists the 1 + 3 spaces in that order.
void RunScenario(const datagen::ScenarioConfig& config, size_t max_block_pairs,
                 const SpaceGolden (&goldens)[4]) {
  const datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  const BlockingIndex right_index(pair.right);
  const TermKeyCache left_keys(pair.left);
  const ValueCache left_values(pair.left);
  const ValueCache right_values(pair.right);
  const BuildResources res{&right_index, &left_keys, &left_values,
                           &right_values};

  size_t next = 0;
  for (size_t partitions : {size_t{1}, size_t{3}}) {
    std::vector<std::vector<rdf::EntityId>> splits(partitions);
    for (rdf::EntityId e = 0; e < pair.left.num_entities(); ++e) {
      splits[e % partitions].push_back(e);
    }
    for (size_t p = 0; p < partitions; ++p) {
      LinkSpace space;
      space.Build(pair.left, pair.right, splits[p], 0.3, max_block_pairs, res);
      ExpectSpaceMatches(pair, space, 0.3, goldens[next++],
                         config.name + " split " + std::to_string(partitions) +
                             " partition " + std::to_string(p));
    }
  }
}

TEST(BlockingEquivalenceTest, NoisyPersonScenario) {
  // Heavy value noise: the token/prefix blocks do the recall work, so the
  // hashed-key path is exercised well beyond exact-value matches.
  datagen::ScenarioConfig config;
  config.name = "equiv_noisy";
  config.seed = 1313;
  config.num_shared = 70;
  config.num_left_only = 60;
  config.num_right_only = 30;
  config.domains = {"person"};
  config.value_noise = 0.6;
  config.predicate_rename_prob = 0.4;
  constexpr SpaceGolden kGoldens[4] = {
      {13000u, 3238u, 1492u, 2008u, 0x22c4ac83c5824487ull},
      {4400u, 1062u, 487u, 661u, 0xee7b9e1293341dcbull},
      {4300u, 1046u, 487u, 639u, 0xc9d538c528c247dbull},
      {4300u, 1130u, 518u, 708u, 0x7bf9825e0269ade7ull},
  };
  RunScenario(config, 20000, kGoldens);
}

TEST(BlockingEquivalenceTest, AmbiguousMultiDomainScenarioWithTightCap) {
  // Decoys create big shared-name blocks and the tight cap forces the
  // stop-value skip logic to fire, which is where a wrong per-partition
  // left-key count would show up.
  datagen::ScenarioConfig config;
  config.name = "equiv_ambiguous";
  config.seed = 2718;
  config.num_shared = 50;
  config.num_left_only = 40;
  config.num_right_only = 25;
  config.domains = {"person", "organization", "drug"};
  config.value_noise = 0.3;
  config.ambiguity = 0.8;
  constexpr SpaceGolden kGoldens[4] = {
      {10440u, 1312u, 480u, 733u, 0xaf7ac96cb5c7c1d3ull},
      {3480u, 784u, 226u, 329u, 0x51f2eb2392b21040ull},
      {3480u, 617u, 150u, 222u, 0xd27454c77c264e39ull},
      {3480u, 760u, 173u, 253u, 0x6d92a5a7bf01a114ull},
  };
  RunScenario(config, 150, kGoldens);
}

TEST(BlockingEquivalenceTest, RelativeStopValueCapBinds) {
  // Small cross product, decoy-heavy names, and a loose absolute cap: the
  // relative cap total_possible / 20 sits above the 100-pair floor and
  // below max_block_pairs, and one shared-name block lands in
  // (total / 20, total / 19], so it is skipped as a stop value only because
  // of that divisor.
  datagen::ScenarioConfig config;
  config.name = "equiv_relative_cap";
  config.seed = 5;
  config.num_shared = 40;
  config.num_left_only = 10;
  config.num_right_only = 15;
  config.domains = {"person", "organization"};
  config.value_noise = 0.3;
  config.ambiguity = 0.8;

  const datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  const uint64_t total = static_cast<uint64_t>(pair.left.num_entities()) *
                         pair.right.num_entities();
  ASSERT_GT(total / 20, 100u);
  ASSERT_LT(total / 19, 20000u);
  const BlockingIndex right_index(pair.right);
  const TermKeyCache left_keys(pair.left);
  std::unordered_map<BlockKey, uint64_t> left_counts;
  std::vector<BlockKey> keys;
  for (rdf::EntityId e = 0; e < pair.left.num_entities(); ++e) {
    left_keys.EntityKeys(e, &keys);
    for (BlockKey key : keys) ++left_counts[key];
  }
  bool block_at_cap = false;
  for (const auto& [key, count] : left_counts) {
    const std::vector<rdf::EntityId>* block = right_index.block(key);
    if (block == nullptr) continue;
    const uint64_t size = count * block->size();
    block_at_cap |= size > total / 20 && size <= total / 19;
  }
  ASSERT_TRUE(block_at_cap);

  constexpr SpaceGolden kGoldens[4] = {
      {4250u, 824u, 358u, 571u, 0xa7f2421f0a3f0d9eull},
      {1445u, 342u, 135u, 211u, 0x4131255dbbb35bf9ull},
      {1445u, 339u, 121u, 189u, 0xec8fc0a9d855ff9bull},
      {1360u, 328u, 131u, 201u, 0x692ff3d2b86f0aedull},
  };
  RunScenario(config, 20000, kGoldens);
}

TEST(BlockingEquivalenceTest, SingleShotWrapperMatchesGolden) {
  datagen::ScenarioConfig config;
  config.seed = 99;
  config.num_shared = 40;
  config.num_left_only = 30;
  config.num_right_only = 20;
  config.domains = {"place"};
  config.value_noise = 0.4;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  std::vector<rdf::EntityId> lefts;
  for (rdf::EntityId e = 0; e < pair.left.num_entities(); ++e) {
    lefts.push_back(e);
  }
  LinkSpace wrapped;
  wrapped.Build(pair.left, pair.right, lefts, 0.3, 20000);
  ExpectSpaceMatches(pair, wrapped, 0.3,
                     {4200u, 228u, 190u, 300u, 0x847216b88b00bc58ull},
                     "single-shot wrapper");
}

TEST(BlockingEquivalenceTest, PartitionedBuildMatchesGoldens) {
  datagen::ScenarioConfig scenario;
  scenario.seed = 4242;
  scenario.num_shared = 60;
  scenario.num_left_only = 50;
  scenario.num_right_only = 25;
  scenario.domains = {"person", "publication"};
  scenario.value_noise = 0.5;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);

  AlexConfig config;
  config.num_partitions = 4;
  config.num_threads = 2;
  PartitionedAlex alex(&pair.left, &pair.right, config);
  alex.Build();
  EXPECT_GT(alex.shared_index_seconds(), 0.0);

  constexpr SpaceGolden kGoldens[4] = {
      {2380u, 591u, 222u, 297u, 0x4882eeae6900b8f6ull},
      {2380u, 497u, 172u, 220u, 0xadaaea4a18690c77ull},
      {2295u, 526u, 203u, 277u, 0x6e0676a4ff4e92e7ull},
      {2295u, 501u, 180u, 219u, 0x27fbea4dcf3411caull},
  };
  ASSERT_EQ(alex.num_partitions(), 4u);
  for (size_t p = 0; p < alex.num_partitions(); ++p) {
    ExpectSpaceMatches(pair, alex.space(p), config.theta, kGoldens[p],
                       "partition " + std::to_string(p));
  }
}

}  // namespace
}  // namespace alex::core
