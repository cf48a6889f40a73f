#include "checks.h"

#include <string_view>

#include "rdf/block_format.h"

namespace perfbench {

std::map<std::string, uint64_t> DeterministicCounters(
    const alex::obs::MetricsSnapshot& delta) {
  static constexpr std::string_view kPrefixes[] = {"engine.", "space.",
                                                   "alloc.", "metrics."};
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : delta.counters) {
    for (std::string_view prefix : kPrefixes) {
      if (std::string_view(name).starts_with(prefix)) {
        out.emplace(name, value);
        break;
      }
    }
  }
  return out;
}

uint64_t CandidateDigest(const std::vector<alex::feedback::PairKey>& keys) {
  return alex::rdf::blockfmt::Fnv1a64(
      std::string_view(reinterpret_cast<const char*>(keys.data()),
                       keys.size() * sizeof(alex::feedback::PairKey)));
}

std::vector<std::string> CheckLearningPasses(
    const std::vector<LearningOutcome>& passes) {
  std::vector<std::string> errors;
  if (passes.empty()) {
    errors.push_back("no pass completed");
    return errors;
  }
  for (size_t i = 0; i < passes.size(); ++i) {
    const LearningOutcome& p = passes[i];
    const std::string tag = "pass " + std::to_string(i) + ": ";
    if (p.final_f < p.initial_f) {
      errors.push_back(tag + "final F " + std::to_string(p.final_f) +
                       " is below the episode-0 F " +
                       std::to_string(p.initial_f));
    }
    size_t f = 0;  // The first pass with this pass's seed.
    while (passes[f].seed != p.seed) ++f;
    if (f == i) continue;
    const LearningOutcome& first = passes[f];
    const std::string since = " differs from pass " + std::to_string(f);
    if (p.digest != first.digest) {
      errors.push_back(tag + "candidate-set digest" + since);
    }
    if (p.final_f != first.final_f || p.initial_f != first.initial_f) {
      errors.push_back(tag + "F" + since);
    }
    for (const auto& [name, value] : first.counters) {
      auto it = p.counters.find(name);
      const uint64_t other = it == p.counters.end() ? 0 : it->second;
      if (other != value) {
        errors.push_back(tag + "counter " + name + " = " +
                         std::to_string(other) + ", pass " +
                         std::to_string(f) + " had " + std::to_string(value));
      }
    }
    for (const auto& [name, value] : p.counters) {
      if (!first.counters.count(name) && value != 0) {
        errors.push_back(tag + "counter " + name + " missing from pass " +
                         std::to_string(f));
      }
    }
  }
  return errors;
}

std::vector<std::string> CheckServeOutcome(const ServeOutcome& o) {
  std::vector<std::string> errors;
  if (o.shed > o.ops || o.queries != o.ops - o.shed) {
    errors.push_back("queries " + std::to_string(o.queries) +
                     " != ops " + std::to_string(o.ops) + " - shed " +
                     std::to_string(o.shed));
  }
  if (o.failed != 0) {
    errors.push_back(std::to_string(o.failed) + " queries failed");
  }
  if (o.commits == 0) errors.push_back("no feedback commit happened");
  if (o.epochs_published != o.commits) {
    errors.push_back("epochs published " + std::to_string(o.epochs_published) +
                     " != commits " + std::to_string(o.commits));
  }
  if (o.commit_counter != o.commits || o.link_commit_counter != o.commits) {
    errors.push_back("registry commits (svc " +
                     std::to_string(o.commit_counter) + ", fed " +
                     std::to_string(o.link_commit_counter) +
                     ") != reported commits " + std::to_string(o.commits));
  }
  if (!o.links_match) {
    errors.push_back(
        "published link index differs from the engine's candidate set");
  }
  return errors;
}

}  // namespace perfbench
