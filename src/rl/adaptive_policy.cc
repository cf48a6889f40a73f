#include "rl/adaptive_policy.h"

#include <algorithm>

namespace alex::rl {

AdaptiveFeaturePolicy::AdaptiveFeaturePolicy(double epsilon,
                                             double payoff_weight,
                                             uint64_t seed)
    : epsilon_(epsilon),
      payoff_weight_(payoff_weight),
      rng_(seed),
      // The embedded policy's ε branch is never taken (its ChooseAction is
      // not called), so its ε is pinned to 0 and its RNG stream is split
      // off this policy's seed purely to keep the two streams distinct.
      base_(0.0, seed ^ 0x5851f42d4c957f2dULL) {}

double AdaptiveFeaturePolicy::SuccessRate(core::FeatureKey feature) const {
  auto it = payoffs_.find(feature);
  if (it == payoffs_.end()) return 0.5;
  return static_cast<double>(it->second.positive + 1) /
         static_cast<double>(it->second.trials + 2);
}

std::optional<core::FeatureKey> AdaptiveFeaturePolicy::ChooseAction(
    core::PairKey state, const core::FeatureSet& actions,
    const core::ActionPrior& prior) {
  if (actions.empty()) return std::nullopt;

  // ε branch: payoff-weighted exploration. The floor keeps π(s,a) ≥
  // ε·floor/Σw > 0 for every action, preserving the GLIE contract.
  if (rng_.Bernoulli(epsilon_)) {
    weights_.clear();
    weights_.reserve(actions.size());
    for (const core::FeatureValue& f : actions) {
      weights_.push_back(kWeightFloor + SuccessRate(f.key));
    }
    return actions[rng_.SampleWeighted(weights_)].key;
  }

  // Greedy branch. The state's recorded greedy action (from the last
  // policy improvement) wins if still available, as in the base policy.
  if (auto recorded = base_.GreedyAction(state)) {
    for (const core::FeatureValue& f : actions) {
      if (f.key == *recorded) return f.key;
    }
  }

  // Otherwise score every action. A state-local Q is trusted as-is; absent
  // one, the global average (or the cold-start prior) is shaded by the
  // payoff bonus. Exact ties break to the smallest key — canonical, so two
  // runs with equal tables always agree.
  std::optional<core::FeatureKey> best;
  double best_q = 0.0;
  for (const core::FeatureValue& f : actions) {
    double q;
    if (auto state_q = base_.Q(core::StateAction{state, f.key})) {
      q = *state_q;
    } else {
      auto global = base_.GlobalQ(f.key);
      q = global.has_value() ? *global : (prior ? prior(f.key) : 0.0);
      q += payoff_weight_ * (SuccessRate(f.key) - 0.5);
    }
    if (!best.has_value() || q > best_q ||
        (q == best_q && f.key < *best)) {
      best = f.key;
      best_q = q;
    }
  }
  return best;
}

void AdaptiveFeaturePolicy::RecordReturn(const core::StateAction& sa,
                                         double reward) {
  base_.RecordReturn(sa, reward);
  FeaturePayoff& p = payoffs_[sa.action];
  if (reward > 0.0) {
    ++p.positive;
  } else {
    ++p.negative;
  }
  ++p.trials;
}

void AdaptiveFeaturePolicy::Improve(
    const std::vector<core::PairKey>& episode_states) {
  base_.Improve(episode_states);
}

std::optional<double> AdaptiveFeaturePolicy::Q(
    const core::StateAction& sa) const {
  return base_.Q(sa);
}

std::optional<double> AdaptiveFeaturePolicy::GlobalQ(
    core::FeatureKey action) const {
  return base_.GlobalQ(action);
}

std::optional<core::FeatureKey> AdaptiveFeaturePolicy::GreedyAction(
    core::PairKey state) const {
  return base_.GreedyAction(state);
}

std::vector<std::pair<core::FeatureKey, double>>
AdaptiveFeaturePolicy::GlobalActionValues() const {
  return base_.GlobalActionValues();
}

size_t AdaptiveFeaturePolicy::num_states() const { return base_.num_states(); }

void AdaptiveFeaturePolicy::SaveState(BinaryWriter* w) const {
  base_.SaveState(w);
  w->WriteDouble(epsilon_);
  w->WriteDouble(payoff_weight_);
  for (uint64_t word : rng_.SaveState()) w->WriteU64(word);

  std::vector<std::pair<core::FeatureKey, FeaturePayoff>> payoffs(
      payoffs_.begin(), payoffs_.end());
  std::sort(payoffs.begin(), payoffs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->WriteU64(payoffs.size());
  for (const auto& [feature, p] : payoffs) {
    w->WriteU64(feature);
    w->WriteU64(p.positive);
    w->WriteU64(p.negative);
    w->WriteU64(p.trials);
  }
}

Status AdaptiveFeaturePolicy::LoadState(BinaryReader* r) {
  // Parse everything into locals first; commit only on full success.
  core::EpsilonGreedyPolicy base(0.0, 0);
  ALEX_RETURN_NOT_OK(base.LoadState(r));

  double epsilon = 0.0;
  double payoff_weight = 0.0;
  ALEX_RETURN_NOT_OK(r->ReadDouble(&epsilon));
  ALEX_RETURN_NOT_OK(r->ReadDouble(&payoff_weight));
  Rng::State rng_state;
  for (uint64_t& word : rng_state) ALEX_RETURN_NOT_OK(r->ReadU64(&word));

  uint64_t n = 0;
  ALEX_RETURN_NOT_OK(r->ReadCount(32, &n));  // Feature and three counts.
  std::unordered_map<core::FeatureKey, FeaturePayoff> payoffs;
  payoffs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    core::FeatureKey feature = 0;
    FeaturePayoff p;
    ALEX_RETURN_NOT_OK(r->ReadU64(&feature));
    ALEX_RETURN_NOT_OK(r->ReadU64(&p.positive));
    ALEX_RETURN_NOT_OK(r->ReadU64(&p.negative));
    ALEX_RETURN_NOT_OK(r->ReadU64(&p.trials));
    payoffs.emplace(feature, p);
  }

  base_ = std::move(base);
  epsilon_ = epsilon;
  payoff_weight_ = payoff_weight;
  rng_.RestoreState(rng_state);
  payoffs_ = std::move(payoffs);
  return Status::OK();
}

void RegisterAdaptiveFeaturePolicy() {
  core::PolicyRegistry::Global().Register(
      std::string(kAdaptiveFeaturePolicyTag),
      [](const core::AlexConfig& config, uint64_t seed) {
        return std::unique_ptr<core::Policy>(
            std::make_unique<AdaptiveFeaturePolicy>(
                config.epsilon, config.adaptive_payoff_weight, seed));
      });
}

}  // namespace alex::rl
