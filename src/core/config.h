#ifndef ALEX_CORE_CONFIG_H_
#define ALEX_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace alex::core {

/// Type tag of the paper's ε-greedy policy — the default `AlexConfig::policy`
/// and the only tag the core library registers itself.
inline constexpr std::string_view kDefaultPolicyTag = "epsilon-greedy";

/// All tunables of the ALEX engine, with the paper's default settings
/// (Section 7.1 "Default Settings" and Section 6).
struct AlexConfig {
  /// Similarity threshold θ of Section 6.1: feature values below θ are
  /// zeroed, and pairs with no surviving feature are dropped from the
  /// search space.
  double theta = 0.3;

  /// Exploration band half-width (Section 4.2): an action around feature
  /// score v adds links whose score on that feature lies in [v-step, v+step].
  double step_size = 0.05;

  /// Feedback items per episode (policy improvement cadence). 1000 in batch
  /// mode, 10 in the interactive specific-domain setting (Section 7.2).
  size_t episode_size = 1000;

  /// ε of the ε-greedy policy (Section 4.4.1).
  double epsilon = 0.05;

  /// GLIE ε decay: when true, after k completed episodes the policy runs
  /// with ε/k — episode 1 explores with the full ε, episode 2 with ε/1,
  /// episode 3 with ε/2, and in general episode k+1 with ε/k. The decay is
  /// applied at the end of each episode (AlexEngine::EndEpisode), dividing
  /// by the number of episodes completed so far; an earlier off-by-one
  /// divided by `completed + 1`, so the very first decay already halved ε
  /// and every subsequent episode ran one schedule step ahead.
  /// Monte Carlo ε-greedy control converges to the greedy policy only if
  /// exploration decays (Sutton & Barto, the paper's [22]); a constant ε
  /// keeps re-adding rolled-back junk links forever and the candidate set
  /// never strictly stabilizes.
  bool epsilon_decay = true;

  /// Reward values (Section 4.3). Negative feedback may be penalized more
  /// by making `negative_reward` larger in magnitude.
  double positive_reward = 1.0;
  double negative_reward = -1.0;

  /// Upper bound on links one exploration action may add, keeping the ones
  /// whose feature score is closest to the approved link's. Unbounded
  /// actions on a non-distinctive feature (paper Section 4.2's
  /// (rdf:type, rdf:type) example) can otherwise flood the candidate set
  /// with thousands of links from a single ε-random draw — far more than an
  /// episode's worth of negative feedback can digest. 0 (the default) means
  /// adaptive: a twentieth of the episode's feedback budget (at least 10) —
  /// inflow from one bad action stays comparable to what the episode's
  /// negative feedback plus rollback can remove.
  size_t max_links_per_action = 0;

  size_t EffectiveMaxLinksPerAction() const {
    if (max_links_per_action != 0) return max_links_per_action;
    return episode_size / 20 > 10 ? episode_size / 20 : 10;
  }

  /// Optimizations of Section 6.3.
  bool use_blacklist = true;
  /// Negative feedback items on the *same link* before it is blacklisted.
  /// 1 is the paper's behaviour (a rejection immediately marks the link as
  /// known-incorrect). When user feedback can be erroneous (Appendix C),
  /// 2 lets a correct link survive one mistaken rejection: it is removed
  /// but can be re-discovered by exploration and approved later.
  size_t blacklist_threshold = 1;
  bool use_rollback = true;
  /// Negative feedback items attributed to one generating state-action pair
  /// before its exploration is rolled back. 0 (default) means adaptive:
  /// 5 in batch mode, dropping to 2 for small interactive episodes where
  /// five negatives can take several episodes to accumulate.
  size_t rollback_threshold = 0;

  size_t EffectiveRollbackThreshold() const {
    if (rollback_threshold != 0) return rollback_threshold;
    return episode_size >= 200 ? 5 : 2;
  }

  /// Convergence (Section 3.2): stop when the candidate set is unchanged
  /// after an episode, or after `max_episodes`. `relaxed_fraction` is the
  /// 5% change threshold reported as the relaxed convergence point.
  size_t max_episodes = 100;
  double relaxed_fraction = 0.05;

  /// Equal-size partitioning (Section 6.2). The paper's experiments use 27.
  size_t num_partitions = 27;
  /// Worker threads for partition-parallel work (0 = the CPUs this process
  /// is actually allowed, via exec::CpuTopology::RecommendedWorkers()).
  size_t num_threads = 0;

  /// Pin partition workers 1:1 to CPUs (exec layer). Best effort — on
  /// restricted environments the pool degrades to unpinned workers. Off by
  /// default so concurrent processes (ctest -j, shared CI) don't stack
  /// their pools onto the same low-numbered CPUs; the build bench measures
  /// both settings.
  bool pin_threads = false;

  /// Blocking guard when constructing the link space: a blocking key whose
  /// candidate cross-product exceeds this is treated as a stop value.
  size_t max_block_pairs = 20000;

  /// Triple storage backend for the scenario's datasets.
  ///  - kUncompressed: TripleStore's three sorted Triple vectors (fastest
  ///    lookups, ~36 bytes/triple; the equivalence reference).
  ///  - kCompressed: block-compressed columnar storage held in RAM
  ///    (delta+varint blocks, typically well under half the bytes/triple).
  ///  - kCompressedDisk: same blocks serialized to one file per dataset and
  ///    read back through a bounded LRU block cache.
  enum class StorageBackend : uint8_t {
    kUncompressed = 0,
    kCompressed = 1,
    kCompressedDisk = 2,
  };
  StorageBackend storage_backend = StorageBackend::kUncompressed;

  /// Triples per compressed block (compressed backends only).
  size_t storage_block_size = 1024;

  /// Decoded-block LRU budget for the disk tier, in bytes.
  size_t storage_cache_budget_bytes = 64ull << 20;

  /// Directory for the disk tier's block files ("." components of dataset
  /// names are sanitized away by the simulation driver).
  /// Empty = current working directory.
  std::string storage_disk_dir;

  /// Action-selection policy, by registry type tag (core/policy.h).
  /// "epsilon-greedy" (built-in, the paper's policy) or any tag registered
  /// by a linked library — e.g. "adaptive-feature" after calling
  /// rl::RegisterAdaptiveFeaturePolicy(). An unknown tag falls back to the
  /// default at engine construction with an error log; drivers validate
  /// tags up front. Hashed into the checkpoint config fingerprint only when
  /// non-default, so pre-existing checkpoints keep their fingerprints.
  std::string policy = std::string(kDefaultPolicyTag);

  /// Weight of the per-feature payoff statistic in the adaptive-feature
  /// policy's action scores (rl/adaptive_policy.h); ignored by
  /// epsilon-greedy.
  double adaptive_payoff_weight = 0.25;

  /// Seed for the policy's random draws.
  uint64_t seed = 7;
};

}  // namespace alex::core

#endif  // ALEX_CORE_CONFIG_H_
