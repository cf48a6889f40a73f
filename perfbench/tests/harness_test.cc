// Tests of the benchmark harness itself: its statistics and the output
// checks that fail a run.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checks.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, RefusesTailsWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(Iota(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Iota(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(Iota(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile(Iota(19), 0.50).has_value());
  ASSERT_TRUE(Percentile(Iota(20), 0.50).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(Iota(20), 0.50), 10.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> v = Iota(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(*Percentile(v, 0.99), 1980.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(MeanTest, AverageLeastAndEmpty) {
  EXPECT_DOUBLE_EQ(Mean({3.0, 1.0, 5.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Least({3.0, 1.0, 5.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(Least({}), 0.0);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = ComputeQuartiles(Iota(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.RelativeIqr(), 5.5 / 5.5);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = ComputeQuartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  const Quartiles five = ComputeQuartiles({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
}

LearningOutcome GoodPass() {
  LearningOutcome p;
  p.seed = 1;
  p.digest = 0x1234;
  p.initial_f = 0.5;
  p.final_f = 0.8;
  p.counters = {{"engine.feedback_items", 1000}, {"space.band_queries", 42}};
  return p;
}

TEST(LearningCheckTest, IdenticalPassesPass) {
  EXPECT_TRUE(CheckLearningPasses({GoodPass(), GoodPass()}).empty());
}

TEST(LearningCheckTest, TamperedDigestFails) {
  LearningOutcome tampered = GoodPass();
  tampered.digest ^= 1;
  EXPECT_EQ(CheckLearningPasses({GoodPass(), tampered}).size(), 1u);
}

TEST(LearningCheckTest, DriftingCounterOrFFails) {
  LearningOutcome counter = GoodPass();
  counter.counters["space.band_queries"] = 43;
  EXPECT_FALSE(CheckLearningPasses({GoodPass(), counter}).empty());
  LearningOutcome f = GoodPass();
  f.final_f = 0.81;
  EXPECT_FALSE(CheckLearningPasses({GoodPass(), f}).empty());
}

TEST(LearningCheckTest, FinalFBelowEpisodeZeroFails) {
  LearningOutcome worse = GoodPass();
  worse.final_f = 0.4;
  EXPECT_FALSE(CheckLearningPasses({worse}).empty());
  EXPECT_FALSE(CheckLearningPasses({}).empty());
}

TEST(LearningCheckTest, ComparesOnlyPassesOfTheSameSeed) {
  LearningOutcome other_seed = GoodPass();
  other_seed.seed = 2;
  other_seed.digest = 0x5678;
  other_seed.final_f = 0.7;
  EXPECT_TRUE(
      CheckLearningPasses({GoodPass(), GoodPass(), other_seed, other_seed})
          .empty());
  LearningOutcome drifted = other_seed;
  drifted.digest ^= 1;
  EXPECT_EQ(
      CheckLearningPasses({GoodPass(), other_seed, GoodPass(), drifted}).size(),
      1u);
}

TEST(LearningCheckTest, CandidateDigestFollowsEveryKey) {
  const std::vector<alex::feedback::PairKey> keys = {3, 5, 8};
  EXPECT_EQ(CandidateDigest(keys), CandidateDigest({3, 5, 8}));
  EXPECT_NE(CandidateDigest(keys), CandidateDigest({3, 5, 9}));
  EXPECT_NE(CandidateDigest(keys), CandidateDigest({3, 5}));
}

TEST(LearningCheckTest, DeterministicCountersSkipPoolCounters) {
  alex::obs::MetricsSnapshot delta;
  delta.counters = {{"engine.rollbacks", 3},
                    {"space.pairs_kept", 9},
                    {"threadpool.steals", 17},
                    {"alloc.arena_bytes", 4096}};
  const auto kept = DeterministicCounters(delta);
  EXPECT_EQ(kept.size(), 3u);
  EXPECT_FALSE(kept.count("threadpool.steals"));
}

ServeOutcome GoodRound() {
  ServeOutcome o;
  o.ops = 20000;
  o.queries = 20000;
  o.commits = 250;
  o.epochs_published = 250;
  o.commit_counter = 250;
  o.link_commit_counter = 250;
  o.links_match = true;
  return o;
}

TEST(ServeCheckTest, ConsistentRoundPasses) {
  EXPECT_TRUE(CheckServeOutcome(GoodRound()).empty());
}

TEST(ServeCheckTest, BrokenOpAccountingFails) {
  ServeOutcome lost = GoodRound();
  lost.queries = 19999;  // One op neither answered nor shed.
  EXPECT_EQ(CheckServeOutcome(lost).size(), 1u);
  ServeOutcome shed = GoodRound();
  shed.shed = 5;  // Shed ops must not be counted as queries too.
  EXPECT_EQ(CheckServeOutcome(shed).size(), 1u);
  ServeOutcome failed = GoodRound();
  failed.failed = 1;
  EXPECT_EQ(CheckServeOutcome(failed).size(), 1u);
}

TEST(ServeCheckTest, CommitAndLinkMismatchesFail) {
  ServeOutcome none = GoodRound();
  none.commits = none.epochs_published = none.commit_counter =
      none.link_commit_counter = 0;
  EXPECT_EQ(CheckServeOutcome(none).size(), 1u);
  ServeOutcome epochs = GoodRound();
  epochs.epochs_published = 249;
  EXPECT_EQ(CheckServeOutcome(epochs).size(), 1u);
  ServeOutcome registry = GoodRound();
  registry.link_commit_counter = 251;
  EXPECT_EQ(CheckServeOutcome(registry).size(), 1u);
  ServeOutcome links = GoodRound();
  links.links_match = false;
  EXPECT_EQ(CheckServeOutcome(links).size(), 1u);
}

}  // namespace
}  // namespace perfbench
