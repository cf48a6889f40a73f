#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "paris/seed_linkers.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Every per-layer metric in BENCHMARK.json order, with its unit.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"paris.run_s", "s"},
    {"blocking.shared_index_s", "s"},
    {"link_space.build_s", "s"},
    {"link_space.partition_build_max_s", "s"},
    {"link_space.pairs_evaluated", "count"},
    {"link_space.pairs_kept", "count"},
    {"link_space.memo_hit_ratio", "ratio"},
    {"exec.arena_bytes", "bytes"},
    {"rdf.compress_s", "s"},
    {"rdf.block_decodes", "count"},
    {"rdf.block_decode_s", "s"},
    {"rdf.bytes_per_triple", "bytes"},
    {"partitioned.sample_s", "s"},
    {"partitioned.sample_us_per_item", "us"},
    {"partitioned.candidates", "count"},
    {"oracle.judge_s", "s"},
    {"engine.process_s", "s"},
    {"engine.explore_actions", "count"},
    {"engine.band_queries", "count"},
    {"engine.band_results_per_query", "count"},
    {"engine.links_added", "count"},
    {"engine.links_removed", "count"},
    {"engine.blacklist_hits", "count"},
    {"policy.end_episode_s", "s"},
    {"engine.rollbacks", "count"},
    {"metrics.evaluate_s", "s"},
    {"loop.sample_share", "ratio"},
    {"loop.episode_end_share", "ratio"},
    {"fed.plan_cache_hits", "count"},
    {"fed.probe_cache_hit_ratio", "ratio"},
    {"fed.rows", "count"},
    {"fed.links_crossed", "count"},
    {"svc.commits", "count"},
    {"svc.commit_s", "s"},
    {"fed.link_commit_adds", "count"},
    {"fed.link_commit_removes", "count"},
    {"svc.shed", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.unaccounted_s", "s"},
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"batch_opencyc", "interactive_nytimes", "serve_nytimes"};
}

RunReport RunWorkload(const RunOptions& options) {
  if (options.workload == "batch_opencyc" ||
      options.workload == "interactive_nytimes") {
    return RunLearningWorkload(options);
  }
  if (options.workload == "serve_nytimes") return RunServeWorkload(options);
  RunReport report;
  report.errors.push_back("unknown workload '" + options.workload + "'");
  return report;
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t CounterOf(const alex::obs::MetricsSnapshot& delta,
                   const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

double HistogramSumOf(const alex::obs::MetricsSnapshot& delta,
                      const std::string& name) {
  auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? 0.0 : it->second.sum;
}

uint64_t HistogramCountOf(const alex::obs::MetricsSnapshot& delta,
                          const std::string& name) {
  auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? 0 : it->second.count;
}

std::unique_ptr<alex::core::PartitionedAlex> SetUpEngine(
    const alex::datagen::GeneratedPair& data,
    const alex::core::AlexConfig& config, LayerClock* layers,
    BuildStats* build, std::vector<std::string>* errors) {
  using Scope = LayerClock::Scope;
  std::vector<alex::paris::ScoredLink> seed_links;
  {
    Scope scope(layers, "paris");
    auto linker = alex::paris::MakeSeedLinker(alex::paris::kParisLinkerTag,
                                              &data.left, &data.right);
    if (!linker.ok()) {
      errors->push_back("seed linker: " + linker.status().ToString());
      return nullptr;
    }
    seed_links = (*linker)->Run();
  }
  auto alex = std::make_unique<alex::core::PartitionedAlex>(
      &data.left, &data.right, config);
  {
    Scope scope(layers, "link_space");
    for (double s : alex->Build()) {
      build->partition_build_max_s = std::max(build->partition_build_max_s, s);
    }
  }
  build->shared_index_s = alex->shared_index_seconds();
  {
    Scope scope(layers, "partitioned.init");
    alex->InitializeCandidates(seed_links);
  }
  return alex;
}

LayerValues SharedLayerValues(const PassBase& pass,
                              std::vector<std::string>* notes) {
  const alex::obs::MetricsSnapshot& d = pass.delta;
  const LayerClock& setup_layers = pass.setup_layers;
  const BuildStats& build = pass.build;
  LayerValues v;
  v["paris.run_s"] = setup_layers.SelfSeconds("paris");
  v["blocking.shared_index_s"] = build.shared_index_s;
  v["link_space.build_s"] =
      setup_layers.SelfSeconds("link_space") - build.shared_index_s;
  v["link_space.partition_build_max_s"] = build.partition_build_max_s;
  v["link_space.pairs_evaluated"] = CounterOf(d, "space.pairs_evaluated");
  v["link_space.pairs_kept"] = CounterOf(d, "space.pairs_kept");
  const uint64_t memo_hits = CounterOf(d, "space.sim_memo_hits");
  v["link_space.memo_hit_ratio"] =
      Ratio("link_space.memo_hit_ratio", memo_hits,
            memo_hits + CounterOf(d, "space.sim_memo_misses"), notes);
  v["exec.arena_bytes"] = CounterOf(d, "alloc.arena_bytes");
  v["engine.explore_actions"] = CounterOf(d, "engine.explore_actions");
  const uint64_t band_queries = CounterOf(d, "space.band_queries");
  v["engine.band_queries"] = band_queries;
  v["engine.band_results_per_query"] =
      Ratio("engine.band_results_per_query",
            CounterOf(d, "space.band_results"), band_queries, notes);
  v["engine.links_added"] = CounterOf(d, "engine.links_added");
  v["engine.links_removed"] = CounterOf(d, "engine.links_removed");
  v["engine.blacklist_hits"] = CounterOf(d, "engine.blacklist_hits");
  v["engine.rollbacks"] = CounterOf(d, "engine.rollbacks");
  double accounted = 0.0;
  for (const auto& [layer, s] : setup_layers.self_seconds()) accounted += s;
  for (const auto& [layer, s] : pass.measured_layers.self_seconds()) {
    accounted += s;
  }
  v["obs.unaccounted_s"] = pass.setup_s + pass.measured_s - accounted;
  return v;
}

std::vector<Metric> PerLayerMetrics(const std::vector<LayerValues>& passes) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    std::vector<double> values;
    for (const LayerValues& pass : passes) {
      auto it = pass.find(name);
      values.push_back(it == pass.end() ? 0.0 : it->second);
    }
    out.push_back({name, Median(values), unit});
  }
  return out;
}

double Ratio(const char* name, uint64_t num, uint64_t den,
             std::vector<std::string>* notes) {
  const double ratio =
      den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  char line[256];
  std::snprintf(line, sizeof(line), "  %-32s %.4f  (%llu / %llu)", name, ratio,
                static_cast<unsigned long long>(num),
                static_cast<unsigned long long>(den));
  notes->push_back(line);
  return ratio;
}

void AppendLayerTable(const std::string& title,
                      const std::map<std::string, double>& self_seconds,
                      const std::map<std::string, double>& cpu,
                      double wall_seconds, std::vector<std::string>* notes) {
  notes->push_back(title);
  double accounted = 0.0;
  char line[256];
  for (const auto& [layer, seconds] : self_seconds) {
    accounted += seconds;
    auto it = cpu.find(layer);
    std::snprintf(line, sizeof(line), "  %-32s %10.4f s wall %6.2f%%", layer.c_str(),
                  seconds,
                  wall_seconds > 0 ? 100.0 * seconds / wall_seconds : 0.0);
    std::string row = line;
    if (it != cpu.end()) {
      std::snprintf(line, sizeof(line), "  %10.4f s CPU", it->second);
      row += line;
    }
    notes->push_back(row);
  }
  std::snprintf(line, sizeof(line), "  %-32s %10.4f s wall %6.2f%%",
                "(unaccounted)", wall_seconds - accounted,
                wall_seconds > 0
                    ? 100.0 * (wall_seconds - accounted) / wall_seconds
                    : 0.0);
  notes->push_back(line);
  std::snprintf(line, sizeof(line), "  %-32s %10.4f s wall", "(total)",
                wall_seconds);
  notes->push_back(line);
}

std::string WallClockNote(const char* name, const char* unit,
                          const std::vector<double>& per_pass) {
  const Quartiles q = ComputeQuartiles(per_pass);
  char line[256];
  std::snprintf(line, sizeof(line),
                "  wall clock, not gated: %-16s %12.2f %-8s (median of %zu, "
                "IQR %.1f%% of it)",
                name, q.q2, unit, per_pass.size(), 100.0 * q.RelativeIqr());
  return line;
}

std::string TracePath(const RunOptions& options) {
  return options.out_dir + "/" + options.workload + ".trace.json";
}

void WriteTrace(const RunOptions& options, std::vector<std::string>* errors) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  std::ofstream out(TracePath(options));
  alex::obs::TraceRecorder::Global().WriteChromeTrace(out);
  if (!out && errors != nullptr) {
    errors->push_back("could not write " + TracePath(options));
  }
}

}  // namespace perfbench
