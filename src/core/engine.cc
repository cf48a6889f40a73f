#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alex::core {
namespace {

/// Engine metrics. Feedback items arrive at human/oracle rate (thousands
/// per episode at most), so per-item counter updates are negligible; only
/// per-explored-link work batches its adds.
struct EngineMetrics {
  obs::Counter& feedback_items =
      obs::MetricsRegistry::Global().counter("engine.feedback_items");
  obs::Counter& explore_actions =
      obs::MetricsRegistry::Global().counter("engine.explore_actions");
  obs::Counter& links_added =
      obs::MetricsRegistry::Global().counter("engine.links_added");
  obs::Counter& links_removed =
      obs::MetricsRegistry::Global().counter("engine.links_removed");
  obs::Counter& blacklist_hits =
      obs::MetricsRegistry::Global().counter("engine.blacklist_hits");
  obs::Counter& rollbacks =
      obs::MetricsRegistry::Global().counter("engine.rollbacks");
  obs::Histogram& end_episode_seconds =
      obs::MetricsRegistry::Global().histogram("engine.end_episode_seconds");

  static EngineMetrics& Get() {
    static EngineMetrics* metrics = new EngineMetrics();
    return *metrics;
  }
};

/// Resolves `config.policy` through the registry; an unknown tag degrades
/// to the default ε-greedy policy with an error log rather than aborting —
/// drivers (CLI, benches) validate tags up front, so this path only fires
/// for programmatic misconfiguration.
std::unique_ptr<Policy> MakePolicy(const AlexConfig& config, uint64_t seed) {
  auto policy = PolicyRegistry::Global().Create(config.policy, config, seed);
  if (policy.ok()) return std::move(*policy);
  ALEX_LOG(kError) << "policy '" << config.policy
                   << "' unavailable, falling back to '" << kDefaultPolicyTag
                   << "': " << policy.status();
  return std::make_unique<EpsilonGreedyPolicy>(config.epsilon, seed);
}

}  // namespace

AlexEngine::AlexEngine(const LinkSpace* space, const AlexConfig& config,
                       uint64_t seed)
    : space_(space),
      config_(config),
      policy_(MakePolicy(config, seed)),
      rng_(seed ^ 0x5deece66dULL) {
  // Cold-start ordering: before any return is recorded anywhere for a
  // feature, prefer selective features (few pairs carry them) over
  // non-distinctive ones (rdf:type, small categorical pools). Scaled to
  // [0, 0.5] so learned evidence always dominates.
  selectivity_prior_ = [this](FeatureKey f) {
    const size_t count = space_->FeatureCount(f);
    const size_t max_count = space_->MaxFeatureCount();
    if (count == 0 || max_count <= 1) return 0.25;
    const double rel =
        std::log(1.0 + static_cast<double>(count)) /
        std::log(1.0 + static_cast<double>(max_count));
    return 0.5 * (1.0 - rel);
  };
}

void AlexEngine::InitializeCandidates(
    const std::vector<PairKey>& initial_links) {
  candidates_.insert(candidates_.end(), initial_links.begin(),
                     initial_links.end());
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
}

bool AlexEngine::AddCandidate(PairKey pair) {
  auto it = std::lower_bound(candidates_.begin(), candidates_.end(), pair);
  if (it != candidates_.end() && *it == pair) return false;
  candidates_.insert(it, pair);
  if (recording_delta_) delta_journal_.emplace_back(pair, true);
  return true;
}

bool AlexEngine::RemoveCandidate(PairKey pair) {
  auto it = std::lower_bound(candidates_.begin(), candidates_.end(), pair);
  if (it == candidates_.end() || *it != pair) return false;
  candidates_.erase(it);
  if (recording_delta_) delta_journal_.emplace_back(pair, false);
  return true;
}

void AlexEngine::BeginCandidateDelta() {
  delta_journal_.clear();
  recording_delta_ = true;
}

void AlexEngine::TakeCandidateDelta(std::vector<PairKey>* added,
                                    std::vector<PairKey>* removed) {
  recording_delta_ = false;
  // Group each key's changes, keeping their order. Only effective changes
  // are journaled, so a key's inserts and erases alternate: the key changed
  // net iff its first and last change agree, and in that direction.
  std::stable_sort(
      delta_journal_.begin(), delta_journal_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < delta_journal_.size();) {
    size_t last = i;
    while (last + 1 < delta_journal_.size() &&
           delta_journal_[last + 1].first == delta_journal_[i].first) {
      ++last;
    }
    const auto& [key, inserted] = delta_journal_[i];
    if (inserted == delta_journal_[last].second) {
      (inserted ? added : removed)->push_back(key);
    }
    i = last + 1;
  }
  delta_journal_.clear();
}

void AlexEngine::ProcessFeedback(const feedback::FeedbackItem& item) {
  ALEX_TRACE_SPAN("engine", "ProcessFeedback");
  const PairKey state = item.key();
  ++episode_stats_.feedback_items;
  EngineMetrics::Get().feedback_items.Add(1);

  const double reward =
      item.positive ? config_.positive_reward : config_.negative_reward;

  // First-visit Monte Carlo (Section 4.4.1): on the first visit of this
  // state within the episode, append the feedback value to the returns of
  // every state-action pair that led to it.
  const bool first_visit = visited_this_episode_.insert(state).second;
  if (first_visit) {
    auto git = generators_.find(state);
    if (git != generators_.end()) {
      for (const StateAction& generator : git->second) {
        policy_->RecordReturn(generator, reward);
      }
    }
  }

  if (item.positive) {
    ++episode_stats_.positive_items;
    positively_marked_.insert(state);
    link_negative_counts_.erase(state);  // Fresh evidence of correctness.
    // An approval is direct evidence the link is correct: (re-)admit it
    // even if an earlier (possibly erroneous) rejection removed or
    // blacklisted it.
    AddCandidate(state);
    blacklist_.erase(state);
    episode_states_.push_back(state);
    const FeatureSet* actions = space_->FeaturesOf(state);
    if (actions != nullptr) {
      std::optional<FeatureKey> action =
          policy_->ChooseAction(state, *actions, selectivity_prior_);
      if (action.has_value()) Explore(state, *action);
    }
    return;
  }

  // Negative feedback: remove the wrong link (Algorithm 1 line 20) and
  // blacklist it so no future exploration re-proposes it (Section 6.3).
  ++episode_stats_.negative_items;
  if (RemoveCandidate(state)) {
    ++episode_stats_.links_removed;
    EngineMetrics::Get().links_removed.Add(1);
  }
  if (config_.use_blacklist &&
      ++link_negative_counts_[state] >= config_.blacklist_threshold) {
    blacklist_.insert(state);
  }
  positively_marked_.erase(state);

  // Rollback accounting: enough negative feedback on links generated by one
  // state-action pair triggers removal of everything it generated.
  auto git = generators_.find(state);
  if (git != generators_.end() && config_.use_rollback) {
    // Copy: Rollback mutates generators_.
    const std::vector<StateAction> gens = git->second;
    for (const StateAction& generator : gens) {
      if (++negative_counts_[generator] >=
          config_.EffectiveRollbackThreshold()) {
        Rollback(generator);
        negative_counts_[generator] = 0;
      }
    }
  }
}

void AlexEngine::Explore(PairKey state, FeatureKey action) {
  ALEX_TRACE_SPAN("engine", "Explore");
  EngineMetrics& metrics = EngineMetrics::Get();
  metrics.explore_actions.Add(1);
  const FeatureSet* features = space_->FeaturesOf(state);
  if (features == nullptr) return;
  double score = -1.0;
  for (const FeatureValue& f : *features) {
    if (f.key == action) {
      score = f.score;
      break;
    }
  }
  if (score < 0.0) return;

  std::vector<PairKey> found;
  space_->BandQuery(action, score - config_.step_size,
                    score + config_.step_size, &found);

  // Keep only genuinely new links: not the approved link itself, not
  // blacklisted (Section 6.3), not already candidates. A blacklist hit —
  // the blacklist suppressing a re-proposal — is the optimization's win,
  // so it is counted.
  size_t blacklist_hits = 0;
  std::erase_if(found, [&](PairKey link) {
    if (link == state) return true;
    if (blacklist_.count(link) > 0) {
      ++blacklist_hits;
      return true;
    }
    return IsCandidate(link);
  });
  if (blacklist_hits > 0) metrics.blacklist_hits.Add(blacklist_hits);

  // Bound the action's yield, preferring scores nearest the approved
  // link's: a non-distinctive feature can match thousands of pairs.
  const size_t action_cap = config_.EffectiveMaxLinksPerAction();
  if (found.size() > action_cap) {
    std::vector<std::pair<double, PairKey>> ranked;
    ranked.reserve(found.size());
    for (PairKey link : found) {
      const FeatureSet* fs = space_->FeaturesOf(link);
      double link_score = 0.0;
      if (fs != nullptr) {
        for (const FeatureValue& f : *fs) {
          if (f.key == action) {
            link_score = f.score;
            break;
          }
        }
      }
      ranked.emplace_back(std::abs(link_score - score), link);
    }
    std::nth_element(ranked.begin(), ranked.begin() + action_cap,
                     ranked.end());
    ranked.resize(action_cap);
    found.clear();
    for (const auto& [dist, link] : ranked) found.push_back(link);
  }

  const StateAction generator{state, action};
  size_t added = 0;
  for (PairKey link : found) {
    if (!AddCandidate(link)) continue;
    ++episode_stats_.links_added;
    ++added;
    ever_explored_.insert(link);
    generators_[link].push_back(generator);
    generated_links_[generator].push_back(link);
  }
  if (added > 0) metrics.links_added.Add(added);
}

void AlexEngine::Rollback(const StateAction& generator) {
  auto it = generated_links_.find(generator);
  if (it == generated_links_.end()) return;
  ++episode_stats_.rollbacks;
  EngineMetrics::Get().rollbacks.Add(1);
  for (PairKey link : it->second) {
    // Links that received positive feedback stay; links already removed by
    // explicit negative feedback are gone anyway. Rolled-back links are NOT
    // blacklisted — another state-action pair with a better average return
    // may legitimately rediscover them (Section 6.3).
    if (positively_marked_.count(link) > 0) continue;
    if (RemoveCandidate(link)) {
      ++episode_stats_.links_removed;
      EngineMetrics::Get().links_removed.Add(1);
    }
    auto git = generators_.find(link);
    if (git != generators_.end()) {
      auto& gens = git->second;
      gens.erase(std::remove(gens.begin(), gens.end(), generator),
                 gens.end());
      if (gens.empty()) generators_.erase(git);
    }
  }
  generated_links_.erase(generator);
}

EngineEpisodeStats AlexEngine::EndEpisode() {
  ALEX_TRACE_SPAN("engine", "EndEpisode");
  obs::ScopedTimer timer(EngineMetrics::Get().end_episode_seconds);
  policy_->Improve(episode_states_);
  ++episodes_completed_;
  if (config_.epsilon_decay) {
    // GLIE schedule (config.h): after k completed episodes the policy runs
    // with ε/k. The previous divisor `episodes_completed_ + 1` shifted the
    // whole schedule by one — the very first decay already halved ε.
    policy_->set_epsilon(config_.epsilon /
                        static_cast<double>(episodes_completed_));
  }
  EngineEpisodeStats stats = episode_stats_;
  episode_stats_ = EngineEpisodeStats{};
  visited_this_episode_.clear();
  episode_states_.clear();
  return stats;
}

namespace {

/// Encoded sizes of a PairKey and a StateAction, the smallest entries of
/// the sections below; counts are checked against them before allocating.
constexpr size_t kKeyBytes = 8;
constexpr size_t kStateActionBytes = 16;

/// Canonical serialization of a PairKey set: a count, then the keys in
/// ascending order, so equal sets produce equal bytes.
void WriteSortedKeys(BinaryWriter* w, const std::vector<PairKey>& keys) {
  w->WriteU64(keys.size());
  for (PairKey key : keys) w->WriteU64(key);
}

void WriteKeySet(BinaryWriter* w, const std::unordered_set<PairKey>& set) {
  std::vector<PairKey> keys(set.begin(), set.end());
  std::sort(keys.begin(), keys.end());
  WriteSortedKeys(w, keys);
}

/// Reads a key set written by WriteSortedKeys. Keys must be strictly
/// ascending: anything else is not a canonical snapshot.
Status ReadSortedKeys(BinaryReader* r, std::string_view section,
                      std::vector<PairKey>* out) {
  uint64_t n = 0;
  ALEX_RETURN_NOT_OK(r->ReadCount(kKeyBytes, &n));
  out->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    ALEX_RETURN_NOT_OK(r->ReadU64(&(*out)[i]));
    if (i > 0 && (*out)[i] <= (*out)[i - 1]) {
      return Status::ParseError("checkpoint: " + std::string(section) +
                                " keys are not strictly ascending");
    }
  }
  return Status::OK();
}

Status ReadKeySet(BinaryReader* r, std::string_view section,
                  std::unordered_set<PairKey>* out) {
  std::vector<PairKey> keys;
  ALEX_RETURN_NOT_OK(ReadSortedKeys(r, section, &keys));
  *out = std::unordered_set<PairKey>(keys.begin(), keys.end());
  return Status::OK();
}

void WriteStateAction(BinaryWriter* w, const StateAction& sa) {
  w->WriteU64(sa.state);
  w->WriteU64(sa.action);
}

Status ReadStateAction(BinaryReader* r, StateAction* sa) {
  ALEX_RETURN_NOT_OK(r->ReadU64(&sa->state));
  ALEX_RETURN_NOT_OK(r->ReadU64(&sa->action));
  return Status::OK();
}

bool StateActionLess(const StateAction& a, const StateAction& b) {
  return std::tie(a.state, a.action) < std::tie(b.state, b.action);
}

}  // namespace

void AlexEngine::SaveState(BinaryWriter* w) const {
  // Policy section, format v2: the registry type tag, then the policy's
  // own snapshot, both length-prefixed — a reader can route the payload to
  // the right concrete type (or reject it by name) without understanding
  // its internals.
  w->WriteBytes(policy_->type_tag());
  BinaryWriter pw;
  policy_->SaveState(&pw);
  w->WriteBytes(pw.buffer());
  for (uint64_t word : rng_.SaveState()) w->WriteU64(word);
  w->WriteU64(episodes_completed_);

  WriteSortedKeys(w, candidates_);
  WriteKeySet(w, blacklist_);
  WriteKeySet(w, ever_explored_);
  WriteKeySet(w, positively_marked_);
  WriteKeySet(w, visited_this_episode_);

  // Provenance maps: outer keys sorted; the inner vectors' element order is
  // semantic (rollback walks generated links in discovery order) and is
  // preserved verbatim.
  std::vector<PairKey> link_keys;
  link_keys.reserve(generators_.size());
  for (const auto& [key, gens] : generators_) link_keys.push_back(key);
  std::sort(link_keys.begin(), link_keys.end());
  w->WriteU64(link_keys.size());
  for (PairKey key : link_keys) {
    const std::vector<StateAction>& gens = generators_.at(key);
    w->WriteU64(key);
    w->WriteU64(gens.size());
    for (const StateAction& sa : gens) WriteStateAction(w, sa);
  }

  std::vector<StateAction> gen_keys;
  gen_keys.reserve(generated_links_.size());
  for (const auto& [sa, links] : generated_links_) gen_keys.push_back(sa);
  std::sort(gen_keys.begin(), gen_keys.end(), StateActionLess);
  w->WriteU64(gen_keys.size());
  for (const StateAction& sa : gen_keys) {
    const std::vector<PairKey>& links = generated_links_.at(sa);
    WriteStateAction(w, sa);
    w->WriteU64(links.size());
    for (PairKey link : links) w->WriteU64(link);
  }

  std::vector<std::pair<StateAction, size_t>> negatives(negative_counts_.begin(),
                                                        negative_counts_.end());
  std::sort(negatives.begin(), negatives.end(),
            [](const auto& a, const auto& b) {
              return StateActionLess(a.first, b.first);
            });
  w->WriteU64(negatives.size());
  for (const auto& [sa, count] : negatives) {
    WriteStateAction(w, sa);
    w->WriteU64(count);
  }

  std::vector<std::pair<PairKey, size_t>> link_negatives(
      link_negative_counts_.begin(), link_negative_counts_.end());
  std::sort(link_negatives.begin(), link_negatives.end());
  w->WriteU64(link_negatives.size());
  for (const auto& [key, count] : link_negatives) {
    w->WriteU64(key);
    w->WriteU64(count);
  }

  w->WriteU64(episode_states_.size());
  for (PairKey key : episode_states_) w->WriteU64(key);

  w->WriteU64(episode_stats_.feedback_items);
  w->WriteU64(episode_stats_.positive_items);
  w->WriteU64(episode_stats_.negative_items);
  w->WriteU64(episode_stats_.links_added);
  w->WriteU64(episode_stats_.links_removed);
  w->WriteU64(episode_stats_.rollbacks);
}

Status AlexEngine::LoadState(BinaryReader* r, uint32_t format_version) {
  // Parse the complete snapshot into locals before touching any member, so
  // a corrupt or truncated payload leaves the live engine unmodified. The
  // policy restores itself under the same contract, so it is staged into a
  // scratch instance and moved in only after everything else parsed.
  std::unique_ptr<Policy> policy;
  if (format_version >= 2) {
    // Tagged policy section. The tag must match the configured policy —
    // restoring, say, an adaptive-feature Q-state into an ε-greedy engine
    // would silently continue a different learning process.
    std::string_view tag;
    ALEX_RETURN_NOT_OK(r->ReadBytesView(&tag));
    if (tag != config_.policy) {
      if (!PolicyRegistry::Global().Contains(tag)) {
        return Status::InvalidArgument(
            "checkpoint: policy section has unknown type tag '" +
            std::string(tag) + "' (not registered in this build)");
      }
      return Status::InvalidArgument(
          "checkpoint: policy section has type tag '" + std::string(tag) +
          "', but this engine is configured with policy '" + config_.policy +
          "'");
    }
    std::string_view payload;
    ALEX_RETURN_NOT_OK(r->ReadBytesView(&payload));
    auto staged = PolicyRegistry::Global().Create(tag, config_, 0);
    if (!staged.ok()) {
      return Status::InvalidArgument(
          "checkpoint: policy section has unknown type tag '" +
          std::string(tag) + "' (not registered in this build)");
    }
    policy = std::move(*staged);
    BinaryReader pr(payload);
    ALEX_RETURN_NOT_OK(policy->LoadState(&pr));
    if (!pr.AtEnd()) {
      return Status::ParseError("checkpoint: policy section of type '" +
                                std::string(tag) + "' has trailing bytes");
    }
  } else {
    // Version-1 payloads carry a bare EpsilonGreedyPolicy snapshot (no tag,
    // no length prefix) — every pre-versioning run was ε-greedy. They only
    // load into an engine still configured that way.
    if (config_.policy != kDefaultPolicyTag) {
      return Status::InvalidArgument(
          "checkpoint: version-1 policy section is implicitly '" +
          std::string(kDefaultPolicyTag) +
          "', but this engine is configured with policy '" + config_.policy +
          "'");
    }
    policy = std::make_unique<EpsilonGreedyPolicy>(config_.epsilon, 0);
    ALEX_RETURN_NOT_OK(policy->LoadState(r));
  }
  Rng::State rng_state;
  for (uint64_t& word : rng_state) ALEX_RETURN_NOT_OK(r->ReadU64(&word));
  uint64_t episodes_completed = 0;
  ALEX_RETURN_NOT_OK(r->ReadU64(&episodes_completed));

  std::vector<PairKey> candidates;
  ALEX_RETURN_NOT_OK(ReadSortedKeys(r, "candidate", &candidates));
  std::unordered_set<PairKey> blacklist, ever_explored, positively_marked,
      visited;
  ALEX_RETURN_NOT_OK(ReadKeySet(r, "blacklist", &blacklist));
  ALEX_RETURN_NOT_OK(ReadKeySet(r, "explored-link", &ever_explored));
  ALEX_RETURN_NOT_OK(ReadKeySet(r, "positive-link", &positively_marked));
  ALEX_RETURN_NOT_OK(ReadKeySet(r, "visited-state", &visited));

  uint64_t n = 0;
  ALEX_RETURN_NOT_OK(r->ReadCount(kKeyBytes + 8, &n));  // Key, length.
  std::unordered_map<PairKey, std::vector<StateAction>> generators;
  generators.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PairKey key = 0;
    ALEX_RETURN_NOT_OK(r->ReadU64(&key));
    uint64_t len = 0;
    ALEX_RETURN_NOT_OK(r->ReadCount(kStateActionBytes, &len));
    std::vector<StateAction>& gens = generators[key];
    gens.resize(len);
    for (uint64_t j = 0; j < len; ++j) {
      ALEX_RETURN_NOT_OK(ReadStateAction(r, &gens[j]));
    }
  }

  ALEX_RETURN_NOT_OK(r->ReadCount(kStateActionBytes + 8, &n));
  std::unordered_map<StateAction, std::vector<PairKey>, StateActionHash>
      generated_links;
  generated_links.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    StateAction sa;
    ALEX_RETURN_NOT_OK(ReadStateAction(r, &sa));
    uint64_t len = 0;
    ALEX_RETURN_NOT_OK(r->ReadCount(kKeyBytes, &len));
    std::vector<PairKey>& links = generated_links[sa];
    links.resize(len);
    for (uint64_t j = 0; j < len; ++j) {
      ALEX_RETURN_NOT_OK(r->ReadU64(&links[j]));
    }
  }

  ALEX_RETURN_NOT_OK(r->ReadCount(kStateActionBytes + 8, &n));
  std::unordered_map<StateAction, size_t, StateActionHash> negative_counts;
  negative_counts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    StateAction sa;
    ALEX_RETURN_NOT_OK(ReadStateAction(r, &sa));
    uint64_t count = 0;
    ALEX_RETURN_NOT_OK(r->ReadU64(&count));
    negative_counts.emplace(sa, static_cast<size_t>(count));
  }

  ALEX_RETURN_NOT_OK(r->ReadCount(kKeyBytes + 8, &n));
  std::unordered_map<PairKey, size_t> link_negative_counts;
  link_negative_counts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PairKey key = 0;
    ALEX_RETURN_NOT_OK(r->ReadU64(&key));
    uint64_t count = 0;
    ALEX_RETURN_NOT_OK(r->ReadU64(&count));
    link_negative_counts.emplace(key, static_cast<size_t>(count));
  }

  ALEX_RETURN_NOT_OK(r->ReadCount(kKeyBytes, &n));
  std::vector<PairKey> episode_states(n);
  for (uint64_t i = 0; i < n; ++i) {
    ALEX_RETURN_NOT_OK(r->ReadU64(&episode_states[i]));
  }

  EngineEpisodeStats stats;
  uint64_t v = 0;
  ALEX_RETURN_NOT_OK(r->ReadU64(&v));
  stats.feedback_items = v;
  ALEX_RETURN_NOT_OK(r->ReadU64(&v));
  stats.positive_items = v;
  ALEX_RETURN_NOT_OK(r->ReadU64(&v));
  stats.negative_items = v;
  ALEX_RETURN_NOT_OK(r->ReadU64(&v));
  stats.links_added = v;
  ALEX_RETURN_NOT_OK(r->ReadU64(&v));
  stats.links_removed = v;
  ALEX_RETURN_NOT_OK(r->ReadU64(&v));
  stats.rollbacks = v;

  policy_ = std::move(policy);
  rng_.RestoreState(rng_state);
  episodes_completed_ = static_cast<size_t>(episodes_completed);
  candidates_ = std::move(candidates);
  blacklist_ = std::move(blacklist);
  ever_explored_ = std::move(ever_explored);
  positively_marked_ = std::move(positively_marked);
  visited_this_episode_ = std::move(visited);
  generators_ = std::move(generators);
  generated_links_ = std::move(generated_links);
  negative_counts_ = std::move(negative_counts);
  link_negative_counts_ = std::move(link_negative_counts);
  episode_states_ = std::move(episode_states);
  episode_stats_ = stats;
  return Status::OK();
}

}  // namespace alex::core
