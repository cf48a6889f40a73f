// Property-style invariant checks on the ALEX engine: random feedback
// sequences over generated scenarios must never violate the structural
// invariants of Algorithm 1 and the Section 6.3 optimizations.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "feedback/oracle.h"

namespace alex::core {
namespace {

class EngineInvariantsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    datagen::ScenarioConfig scenario;
    scenario.seed = GetParam();
    scenario.num_shared = 40;
    scenario.num_left_only = 30;
    scenario.num_right_only = 15;
    scenario.domains = {"person"};
    scenario.value_noise = 0.4;
    scenario.ambiguity = 0.5;
    pair_ = datagen::GenerateScenario(scenario);
    lefts_.clear();
    for (rdf::EntityId e = 0; e < pair_.left.num_entities(); ++e) {
      lefts_.push_back(e);
    }
    space_.Build(pair_.left, pair_.right, lefts_, 0.3, 20000);
  }

  datagen::GeneratedPair pair_;
  std::vector<rdf::EntityId> lefts_;
  LinkSpace space_;
};

TEST_P(EngineInvariantsTest, CandidatesNeverIntersectBlacklist) {
  AlexConfig config;
  config.episode_size = 20;
  AlexEngine engine(&space_, config, GetParam());
  // Seed with a few ground-truth links.
  std::vector<feedback::PairKey> initial(pair_.truth.pairs().begin(),
                                         pair_.truth.pairs().end());
  initial.resize(std::min<size_t>(initial.size(), 10));
  engine.InitializeCandidates(initial);

  feedback::Oracle oracle(&pair_.truth, 0.1, GetParam() ^ 0xabcd);
  for (int episode = 0; episode < 8; ++episode) {
    for (int i = 0; i < 20; ++i) {
      std::vector<feedback::PairKey> candidates(engine.candidates().begin(),
                                                engine.candidates().end());
      auto item = oracle.SampleAndJudge(candidates);
      if (!item) break;
      engine.ProcessFeedback(*item);
      // Invariant: no candidate is blacklisted.
      for (feedback::PairKey key : engine.candidates()) {
        ASSERT_FALSE(engine.IsBlacklisted(key));
      }
    }
    engine.EndEpisode();
  }
}

TEST_P(EngineInvariantsTest, DeterministicAcrossIdenticalRuns) {
  auto run = [this]() {
    AlexConfig config;
    config.episode_size = 15;
    AlexEngine engine(&space_, config, 777);
    std::vector<feedback::PairKey> initial(pair_.truth.pairs().begin(),
                                           pair_.truth.pairs().end());
    std::sort(initial.begin(), initial.end());
    initial.resize(std::min<size_t>(initial.size(), 8));
    engine.InitializeCandidates(initial);
    feedback::Oracle oracle(&pair_.truth, 0.0, 4242);
    for (int episode = 0; episode < 5; ++episode) {
      for (int i = 0; i < 15; ++i) {
        std::vector<feedback::PairKey> candidates(
            engine.candidates().begin(), engine.candidates().end());
        std::sort(candidates.begin(), candidates.end());
        auto item = oracle.SampleAndJudge(candidates);
        if (!item) break;
        engine.ProcessFeedback(*item);
      }
      engine.EndEpisode();
    }
    std::vector<feedback::PairKey> result(engine.candidates().begin(),
                                          engine.candidates().end());
    std::sort(result.begin(), result.end());
    return result;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(EngineInvariantsTest, ExploredLinksAreAlwaysInsideTheSpace) {
  AlexConfig config;
  config.episode_size = 20;
  AlexEngine engine(&space_, config, GetParam());
  std::vector<feedback::PairKey> initial(pair_.truth.pairs().begin(),
                                         pair_.truth.pairs().end());
  engine.InitializeCandidates(initial);
  const std::unordered_set<feedback::PairKey> seeded(initial.begin(),
                                                     initial.end());
  feedback::Oracle oracle(&pair_.truth, 0.0, GetParam());
  for (int i = 0; i < 120; ++i) {
    std::vector<feedback::PairKey> candidates(engine.candidates().begin(),
                                              engine.candidates().end());
    auto item = oracle.SampleAndJudge(candidates);
    if (!item) break;
    engine.ProcessFeedback(*item);
  }
  for (feedback::PairKey key : engine.candidates()) {
    if (!seeded.count(key)) {
      EXPECT_TRUE(space_.Contains(key))
          << "explored link escaped the search space";
    }
  }
}

TEST_P(EngineInvariantsTest, PerfectFeedbackMonotonicallyCleansWrongLinks) {
  AlexConfig config;
  config.episode_size = 30;
  config.epsilon = 0.0;
  AlexEngine engine(&space_, config, GetParam());
  // Seed with truth plus deliberate junk.
  std::vector<feedback::PairKey> initial(pair_.truth.pairs().begin(),
                                         pair_.truth.pairs().end());
  for (uint32_t i = 0; i < 10; ++i) {
    initial.push_back(feedback::PackPair(i, (i + 7) % 15));
  }
  engine.InitializeCandidates(initial);
  feedback::Oracle oracle(&pair_.truth, 0.0, GetParam());
  // Under perfect feedback a link judged negative can only disappear.
  for (int episode = 0; episode < 10; ++episode) {
    for (int i = 0; i < 30; ++i) {
      std::vector<feedback::PairKey> candidates(engine.candidates().begin(),
                                                engine.candidates().end());
      auto item = oracle.SampleAndJudge(candidates);
      if (!item) break;
      engine.ProcessFeedback(*item);
      if (!item->positive) {
        ASSERT_FALSE(engine.IsCandidate(item->key()));
      }
    }
    engine.EndEpisode();
  }
  // All truth links seeded initially and never negatively judged remain.
  size_t kept_truth = 0;
  for (feedback::PairKey key : pair_.truth.pairs()) {
    if (engine.IsCandidate(key)) ++kept_truth;
  }
  EXPECT_EQ(kept_truth, pair_.truth.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariantsTest,
                         ::testing::Values(3, 17, 301, 9999));

}  // namespace
}  // namespace alex::core
