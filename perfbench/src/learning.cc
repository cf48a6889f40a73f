// Learning workloads: the paper's batch and interactive modes, driven item
// by item through PartitionedAlex the way simulation::Simulation runs them.
//
// One pass = generate the pair (untimed), set up (seed linker, Build,
// InitializeCandidates), then a fixed budget of episodes with no
// convergence stop. Each feedback item is CandidateVector() (sample),
// Oracle::SampleAndJudge (judge) and ProcessFeedback (process); each
// episode ends with EndEpisode and an evaluation (Candidates() and
// ComputeMetrics). Passes repeat until the run's seconds are spent; every
// pass of one seed must end in the same state.

#include <algorithm>
#include <cstdio>
#include <map>

#include "checks.h"
#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/scenarios.h"
#include "feedback/oracle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using alex::feedback::PairKey;

struct LearningSpec {
  alex::datagen::ScenarioConfig (*scenario)();
  size_t episode_size;
  size_t episodes;
};

LearningSpec SpecFor(const std::string& workload) {
  if (workload == "batch_opencyc") {
    return {alex::datagen::DbpediaOpencyc, 1000, 12};
  }
  return {alex::datagen::DbpediaNytimes, 10, 2000};
}

/// Passes alternate between two seeds derived from --seed, two passes
/// each: every run repeats a seed (the output checks compare those passes),
/// and final_f averages the two seeds' final F.
uint64_t PassSeed(uint64_t seed, size_t pass) {
  return MixSeed(seed, pass / 2 % 2);
}

struct PassResult : PassBase {
  LearningOutcome outcome;
  size_t items = 0;
  size_t missing_items = 0;  // SampleAndJudge found no candidate.
  std::vector<double> item_us;
  std::vector<double> episode_ms;
  double loop_cpu_s = 0.0;  // CPU seconds of all threads during the loop.
  double candidates_sampled = 0.0;  // Sum of CandidateVector() sizes.
};

void RunPass(const LearningSpec& spec, uint64_t seed, bool traced,
             PassResult* out) {
  using Scope = LayerClock::Scope;
  alex::obs::TraceRecorder& recorder = alex::obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(traced);
  out->traced = traced;
  out->outcome.seed = seed;
  out->setup_layers = LayerClock(traced);
  out->measured_layers = LayerClock(traced);

  SteadyTime start = Now();
  const alex::datagen::GeneratedPair data =
      alex::datagen::GenerateScenario(spec.scenario());
  out->generate_s = SecondsSince(start);

  alex::core::AlexConfig config;
  config.episode_size = spec.episode_size;
  config.seed = MixSeed(config.seed, seed);
  const alex::obs::MetricsSnapshot before =
      alex::obs::MetricsRegistry::Global().Snapshot();

  // Set-up: everything between the generated pair and the first item.
  start = Now();
  std::unique_ptr<alex::core::PartitionedAlex> engine =
      SetUpEngine(data, config, &out->setup_layers, &out->build, &out->errors);
  if (engine == nullptr) return;
  alex::core::PartitionedAlex& alex = *engine;
  out->setup_s = SecondsSince(start);

  out->outcome.initial_f =
      alex::core::ComputeMetrics(alex.Candidates(), data.truth).f_measure;
  alex::feedback::Oracle oracle(&data.truth, 0.0, MixSeed(99, seed));
  double f = out->outcome.initial_f;

  const double loop_cpu_start = ProcessCpuSeconds();
  start = Now();
  // A traced pass keeps only the last ~1000 items in the Chrome trace, so
  // the file stays small; the layer clocks see the whole pass.
  const size_t trace_from =
      spec.episodes - std::min(spec.episodes, 1000 / spec.episode_size);
  for (size_t episode = 0; episode < spec.episodes; ++episode) {
    if (traced && episode == trace_from) recorder.Clear();
    const SteadyTime episode_start = Now();
    for (size_t i = 0; i < spec.episode_size; ++i) {
      const SteadyTime item_start = Now();
      std::vector<PairKey> candidates;
      {
        Scope scope(&out->measured_layers, "partitioned.sample");
        candidates = alex.CandidateVector();
      }
      out->candidates_sampled += static_cast<double>(candidates.size());
      std::optional<alex::feedback::FeedbackItem> item;
      {
        Scope scope(&out->measured_layers, "oracle.judge");
        item = oracle.SampleAndJudge(candidates);
      }
      ++out->items;
      if (!item.has_value()) {
        ++out->missing_items;
        continue;
      }
      {
        Scope scope(&out->measured_layers, "engine.process");
        alex.ProcessFeedback(*item);
      }
      out->item_us.push_back(SecondsSince(item_start) * 1e6);
    }
    {
      Scope scope(&out->measured_layers, "policy.end_episode");
      alex.EndEpisode();
    }
    {
      Scope scope(&out->measured_layers, "metrics.evaluate");
      f = alex::core::ComputeMetrics(alex.Candidates(), data.truth).f_measure;
    }
    out->episode_ms.push_back(SecondsSince(episode_start) * 1e3);
  }
  out->measured_s = SecondsSince(start);
  out->loop_cpu_s = ProcessCpuSeconds() - loop_cpu_start;
  recorder.SetEnabled(false);

  out->delta =
      alex::obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  out->outcome.final_f = f;
  out->outcome.digest = CandidateDigest(alex.CandidateVector());
  out->outcome.counters = DeterministicCounters(out->delta);
  if (out->missing_items > 0) {
    out->errors.push_back(std::to_string(out->missing_items) +
                          " feedback items found an empty candidate set");
  }
}

LayerValues TracedLayerValues(const PassResult& p,
                              std::vector<std::string>* notes) {
  const double items = static_cast<double>(std::max<size_t>(1, p.items));
  const LayerClock& loop = p.measured_layers;
  LayerValues v = SharedLayerValues(p, notes);
  v["partitioned.sample_s"] = loop.SelfSeconds("partitioned.sample");
  v["partitioned.sample_us_per_item"] = v["partitioned.sample_s"] / items * 1e6;
  v["partitioned.candidates"] = p.candidates_sampled / items;
  v["oracle.judge_s"] = loop.SelfSeconds("oracle.judge");
  v["engine.process_s"] = loop.SelfSeconds("engine.process");
  v["policy.end_episode_s"] = loop.SelfSeconds("policy.end_episode");
  v["metrics.evaluate_s"] = loop.SelfSeconds("metrics.evaluate");
  v["loop.sample_share"] = v["partitioned.sample_s"] / p.measured_s;
  v["loop.episode_end_share"] =
      (v["policy.end_episode_s"] + v["metrics.evaluate_s"]) / p.measured_s;
  return v;
}

}  // namespace

RunReport RunLearningWorkload(const RunOptions& options) {
  const LearningSpec spec = SpecFor(options.workload);
  RunReport report;
  const std::vector<PassResult> passes = RunPasses<PassResult>(
      options,
      [&](size_t index, bool traced, PassResult* pass) {
        RunPass(spec, PassSeed(options.seed, index), traced, pass);
        if (traced) WriteTrace(options, &report.errors);
      },
      &report);
  if (!report.errors.empty()) return report;

  std::vector<LearningOutcome> outcomes;
  std::map<uint64_t, double> final_f_by_seed;
  // Passes of one seed repeat the same work, so interference from outside
  // the process (which only ever adds CPU time) is filtered by taking the
  // least pass of each seed.
  std::map<uint64_t, std::vector<double>> cpu_us_per_item_by_seed;
  std::vector<double> setup_s, generate_s, feedback_rate, item_p50_us,
      item_p99_us, episode_ms;
  for (const PassResult& p : passes) {
    outcomes.push_back(p.outcome);
    generate_s.push_back(p.generate_s);
    report.attempted += p.items;
    report.failed += p.missing_items;
    if (p.traced) continue;
    final_f_by_seed.emplace(p.outcome.seed, p.outcome.final_f);
    setup_s.push_back(p.setup_s);
    cpu_us_per_item_by_seed[p.outcome.seed].push_back(
        p.loop_cpu_s * 1e6 / static_cast<double>(p.items));
    feedback_rate.push_back(static_cast<double>(p.items) / p.measured_s);
    const std::optional<double> p50 = Percentile(p.item_us, 0.50);
    const std::optional<double> p99 = Percentile(p.item_us, 0.99);
    if (!p50 || !p99) {
      report.errors.push_back("too few items in a pass for p99 (" +
                              std::to_string(p.item_us.size()) + ")");
      return report;
    }
    item_p50_us.push_back(*p50);
    item_p99_us.push_back(*p99);
    episode_ms.insert(episode_ms.end(), p.episode_ms.begin(),
                      p.episode_ms.end());
  }
  for (const std::string& e : CheckLearningPasses(outcomes)) {
    report.errors.push_back(e);
  }

  char line[320];
  std::snprintf(line, sizeof(line),
                "%s seed %llu: %zu passes of %zu x %zu items; generate %.3f s "
                "(median, not in setup)",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), passes.size(),
                spec.episodes, spec.episode_size, Median(generate_s));
  report.notes.push_back(line);
  for (size_t i = 0; i < passes.size() && i < 3; i += 2) {
    const LearningOutcome& o = passes[i].outcome;
    std::snprintf(line, sizeof(line),
                  "  pass seed %016llx: final F %.4f (episode 0: %.4f), "
                  "candidate digest %016llx",
                  static_cast<unsigned long long>(o.seed), o.final_f,
                  o.initial_f, static_cast<unsigned long long>(o.digest));
    report.notes.push_back(line);
  }
  std::string per_pass = "per pass, loop wall / loop CPU / setup seconds:";
  for (const PassResult& p : passes) {
    std::snprintf(line, sizeof(line), " %.3f/%.3f/%.3f%s", p.measured_s,
                  p.loop_cpu_s, p.setup_s, p.traced ? "(traced)" : "");
    per_pass += line;
  }
  report.notes.push_back(per_pass);

  if (!options.trace) {
    report.notes.push_back(WallClockNote("feedback_per_s", "items/s",
                                         feedback_rate));
    report.notes.push_back(WallClockNote("feedback_us_p50", "us",
                                         item_p50_us));
    report.notes.push_back(WallClockNote("feedback_us_p99", "us",
                                         item_p99_us));
    // Episodes are pooled over passes: a batch pass has too few for a tail.
    for (const auto& [name, q] : {std::pair{"episode_ms_p50", 0.50},
                                  std::pair{"episode_ms_p99", 0.99}}) {
      const std::optional<double> value = Percentile(episode_ms, q);
      if (value) {
        std::snprintf(line, sizeof(line),
                      "  wall clock, not gated: %-16s %12.2f ms       (%zu "
                      "episodes pooled)",
                      name, *value, episode_ms.size());
      } else {
        std::snprintf(line, sizeof(line),
                      "  wall clock, not gated: %-16s refused: %zu episodes "
                      "leave fewer than %zu beyond it",
                      name, episode_ms.size(), kMinTailSamples);
      }
      report.notes.push_back(line);
    }
    std::vector<double> final_f, cpu_us_per_item;
    for (const auto& [seed, f] : final_f_by_seed) final_f.push_back(f);
    for (const auto& [seed, cpu] : cpu_us_per_item_by_seed) {
      cpu_us_per_item.push_back(Least(cpu));
    }
    report.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"cpu_us_per_item", Mean(cpu_us_per_item), "us"},
        {"final_f", Mean(final_f), "F"},
    };
    return report;
  }

  // Traced run: per-layer metrics from the traced passes.
  SetPerLayerMetrics(passes, TracedLayerValues, "loop layers", &report);
  report.notes.push_back("chrome trace (last traced pass): " +
                         TracePath(options));
  return report;
}

}  // namespace perfbench
