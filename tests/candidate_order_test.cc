// Invariants of the sorted candidate store. Each engine keeps its candidate
// set as one ascending, duplicate-free vector; PartitionedAlex's
// CandidateVector() is those slices concatenated in partition order, with
// no pool work. Random scenarios with noisy feedback, the blacklist and
// rollback all on check the store after every ProcessFeedback, EndEpisode
// and LoadState. The service's episode delta, which the engines journal
// themselves, is checked against a full before/after diff.

#include <algorithm>
#include <functional>
#include <iterator>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "feedback/oracle.h"
#include "obs/metrics.h"

namespace alex::core {
namespace {

using feedback::PairKey;

/// Every engine slice is strictly ascending and holds only keys of its own
/// partition; CandidateVector() is the slices in partition order;
/// NumCandidates() and Candidates() agree with it.
::testing::AssertionResult IsCanonical(const PartitionedAlex& alex) {
  const std::vector<PairKey> flat = alex.CandidateVector();
  if (alex.NumCandidates() != flat.size()) {
    return ::testing::AssertionFailure()
           << "NumCandidates() " << alex.NumCandidates()
           << " != CandidateVector().size() " << flat.size();
  }
  size_t offset = 0;
  for (size_t p = 0; p < alex.num_partitions(); ++p) {
    const std::vector<PairKey>& slice = alex.engine(p).candidates();
    if (std::adjacent_find(slice.begin(), slice.end(),
                           std::greater_equal<>()) != slice.end()) {
      return ::testing::AssertionFailure()
             << "partition " << p << " is not strictly ascending";
    }
    if (offset + slice.size() > flat.size() ||
        !std::equal(slice.begin(), slice.end(),
                    flat.begin() + static_cast<ptrdiff_t>(offset))) {
      return ::testing::AssertionFailure()
             << "CandidateVector() slice " << p << " differs from engine "
             << p << "'s candidates()";
    }
    for (PairKey key : slice) {
      if (alex.PartitionOf(feedback::PairLeft(key)) != p) {
        return ::testing::AssertionFailure()
               << "key " << key << " in slice " << p << " belongs to "
               << alex.PartitionOf(feedback::PairLeft(key));
      }
    }
    offset += slice.size();
  }
  const std::unordered_set<PairKey> set = alex.Candidates();
  if (set != std::unordered_set<PairKey>(flat.begin(), flat.end())) {
    return ::testing::AssertionFailure()
           << "Candidates() holds other keys than CandidateVector()";
  }
  return ::testing::AssertionSuccess();
}

class CandidateOrderTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    datagen::ScenarioConfig scenario;
    scenario.seed = GetParam();
    scenario.num_shared = 60;
    scenario.num_left_only = 30;
    scenario.num_right_only = 20;
    scenario.domains = {"person"};
    scenario.value_noise = 0.4;
    scenario.ambiguity = 0.5;
    pair_ = datagen::GenerateScenario(scenario);

    config_.num_partitions = 4;
    config_.num_threads = 2;
    config_.episode_size = 25;
    config_.use_blacklist = true;
    config_.blacklist_threshold = 1;
    config_.use_rollback = true;
    config_.rollback_threshold = 2;
    config_.seed = GetParam();
  }

  std::unique_ptr<PartitionedAlex> MakeBuilt() {
    auto alex =
        std::make_unique<PartitionedAlex>(&pair_.left, &pair_.right, config_);
    alex->Build();
    return alex;
  }

  /// Half the truth plus wrong pairs, so feedback both explores and rejects.
  std::vector<PairKey> InitialLinks() const {
    std::vector<PairKey> links(pair_.truth.pairs().begin(),
                               pair_.truth.pairs().end());
    std::sort(links.begin(), links.end());
    links.resize(links.size() / 2);
    const uint32_t right = static_cast<uint32_t>(pair_.right.num_entities());
    for (uint32_t i = 0; i < 20; ++i) {
      links.push_back(feedback::PackPair(i, (i * 7 + 3) % right));
    }
    return links;
  }

  datagen::GeneratedPair pair_;
  AlexConfig config_;
};

TEST_P(CandidateOrderTest, StoreStaysCanonicalThroughFeedbackAndRestore) {
  std::unique_ptr<PartitionedAlex> alex = MakeBuilt();
  alex->InitializeCandidates(InitialLinks());
  ASSERT_TRUE(IsCanonical(*alex));

  feedback::Oracle oracle(&pair_.truth, 0.2, GetParam() ^ 0x5eed);
  size_t rollbacks = 0;
  size_t negatives = 0;
  for (int episode = 0; episode < 6; ++episode) {
    for (size_t i = 0; i < config_.episode_size; ++i) {
      auto item = oracle.SampleAndJudge(alex->CandidateVector());
      if (!item) break;
      alex->ProcessFeedback(*item);
      ASSERT_TRUE(IsCanonical(*alex))
          << "episode " << episode << ", item " << i;
    }
    const EngineEpisodeStats stats = alex->EndEpisode();
    rollbacks += stats.rollbacks;
    negatives += stats.negative_items;
    ASSERT_TRUE(IsCanonical(*alex)) << "after EndEpisode " << episode;

    // Round-trip through a checkpoint into a freshly built instance.
    BinaryWriter w;
    alex->SaveState(&w);
    std::unique_ptr<PartitionedAlex> restored = MakeBuilt();
    BinaryReader r(w.buffer());
    ASSERT_TRUE(restored->LoadState(&r).ok());
    ASSERT_TRUE(IsCanonical(*restored)) << "after LoadState " << episode;
    ASSERT_EQ(restored->CandidateVector(), alex->CandidateVector());
    alex = std::move(restored);
  }
  // The scenario must actually exercise the removal paths.
  EXPECT_GT(negatives, 0u);
  EXPECT_GT(rollbacks, 0u);
}

TEST_P(CandidateOrderTest, LearningLoopIssuesNoPoolTasks) {
  obs::Counter& tasks =
      obs::MetricsRegistry::Global().counter("threadpool.tasks");
  // Positive control: the partitioned build does fan out, so the counter is
  // live for this pool.
  const uint64_t build_before = tasks.Value();
  std::unique_ptr<PartitionedAlex> alex = MakeBuilt();
  EXPECT_GT(tasks.Value() - build_before, 0u);
  alex->InitializeCandidates(InitialLinks());
  feedback::Oracle oracle(&pair_.truth, 0.2, GetParam());

  for (int episode = 0; episode < 3; ++episode) {
    const uint64_t before = tasks.Value();
    std::vector<feedback::FeedbackItem> judged;
    for (size_t i = 0; i < config_.episode_size; ++i) {
      auto item = oracle.SampleAndJudge(alex->CandidateVector());
      if (!item) break;
      alex->ProcessFeedback(*item);
      judged.push_back(*item);
    }
    alex->EndEpisode();
    EXPECT_EQ(tasks.Value() - before, 0u) << "episode " << episode;
    ASSERT_FALSE(judged.empty());

    // The service's batch path runs inline too.
    const uint64_t batch_before = tasks.Value();
    alex->ProcessFeedbackBatch(judged);
    EXPECT_EQ(tasks.Value() - batch_before, 0u) << "episode " << episode;
  }
}

// CommitFeedbackBatch takes its delta from the engines' own insert/erase
// journals; it must equal the full before/after diff of the candidate set,
// globally ascending, at 1, 3 and 27 partitions. Batches mix oracle-judged
// candidates, random pairs with random verdicts (mostly outside the link
// space) and repeats of an earlier item with the opposite verdict, so keys
// that change and change back within one batch occur.
TEST_P(CandidateOrderTest, CommitDeltaEqualsFullDiff) {
  for (size_t partitions : {1, 3, 27}) {
    SCOPED_TRACE(partitions);
    config_.num_partitions = partitions;
    std::unique_ptr<PartitionedAlex> alex = MakeBuilt();
    alex->InitializeCandidates(InitialLinks());
    feedback::Oracle oracle(&pair_.truth, 0.2, GetParam() ^ partitions);
    Rng rng(GetParam() * 31 + partitions);
    const uint64_t left = pair_.left.num_entities();
    const uint64_t right = pair_.right.num_entities();
    size_t changes = 0;
    size_t delta_size = 0;
    for (int episode = 0; episode < 8; ++episode) {
      SCOPED_TRACE(episode);
      std::vector<feedback::FeedbackItem> batch;
      const size_t n = 1 + rng.UniformInt(40);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t kind = rng.UniformInt(4);
        if (kind == 0 && !batch.empty()) {
          feedback::FeedbackItem flip = batch[rng.UniformInt(batch.size())];
          flip.positive = !flip.positive;
          batch.push_back(flip);
        } else if (kind == 1) {
          batch.push_back(feedback::FeedbackItem{
              static_cast<rdf::EntityId>(rng.UniformInt(left)),
              static_cast<rdf::EntityId>(rng.UniformInt(right)),
              rng.Bernoulli(0.5)});
        } else if (auto item = oracle.SampleAndJudge(alex->CandidateVector())) {
          batch.push_back(*item);
        }
      }

      std::vector<PairKey> before = alex->CandidateVector();
      const PartitionedAlex::EpisodeCommit commit =
          alex->CommitFeedbackBatch(batch);
      std::vector<PairKey> after = alex->CandidateVector();
      std::sort(before.begin(), before.end());
      std::sort(after.begin(), after.end());
      std::vector<PairKey> added, removed;
      std::set_difference(after.begin(), after.end(), before.begin(),
                          before.end(), std::back_inserter(added));
      std::set_difference(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(removed));
      ASSERT_EQ(commit.added, added);
      ASSERT_EQ(commit.removed, removed);
      changes += commit.stats.links_added + commit.stats.links_removed;
      delta_size += added.size() + removed.size();
    }
    // The batches changed the set, and some changes cancelled out.
    EXPECT_GT(delta_size, 0u);
    EXPECT_GT(changes, delta_size);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateOrderTest,
                         ::testing::Values(5, 71, 2024));

}  // namespace
}  // namespace alex::core
