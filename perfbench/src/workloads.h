#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/partitioned.h"
#include "datagen/generator.h"
#include "layers.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Passes repeat until this much wall time has gone by (and at least
  /// kMinPasses ran).
  double seconds = 10.0;
  /// false: untraced passes, end-to-end metrics. true: untraced and traced
  /// passes alternate, per-layer metrics from the traced ones.
  bool trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// Failed output checks; the run is correct when this is empty.
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Peak resident set at the end of the first pass: one session's peak.
  /// Later passes could only raise it when their allocations land in other
  /// threads' malloc arenas than the freed memory of earlier passes.
  double peak_rss_mb = 0.0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

/// Every workload runs at least this many passes: set-up is measured
/// several times, passes of one seed can be compared, and a traced run has
/// untraced passes to compare against.
inline constexpr size_t kMinPasses = 3;

/// Named workloads, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Runs one workload by name; unknown names fail the report.
RunReport RunWorkload(const RunOptions& options);

// ---- Shared by the workload implementations. ----

/// What PartitionedAlex::Build reports besides its wall time.
struct BuildStats {
  double shared_index_s = 0.0;
  double partition_build_max_s = 0.0;
};

/// What every pass records: untimed input generation, the timed set-up,
/// then the measured part (the learning loop, or the service runs).
struct PassBase {
  bool traced = false;
  double generate_s = 0.0;
  double setup_s = 0.0;
  double measured_s = 0.0;
  LayerClock setup_layers;
  LayerClock measured_layers;
  BuildStats build;
  /// Registry delta over set-up and the measured part.
  alex::obs::MetricsSnapshot delta;
  std::vector<std::string> errors;
};

/// The set-up every workload shares: PARIS seed links, then a
/// PartitionedAlex over `data` built and seeded with them. Each call is a
/// scope on `layers` ("paris", "link_space", "partitioned.init"). Returns
/// null and adds to `errors` when the seed linker cannot be made.
std::unique_ptr<alex::core::PartitionedAlex> SetUpEngine(
    const alex::datagen::GeneratedPair& data,
    const alex::core::AlexConfig& config, LayerClock* layers,
    BuildStats* build, std::vector<std::string>* errors);

/// splitmix64 of a ^ (b * golden ratio): derives every seed of a run from
/// the preset's seed and --seed.
uint64_t MixSeed(uint64_t a, uint64_t b);

/// Counter and histogram lookups in a registry delta (0 when absent).
uint64_t CounterOf(const alex::obs::MetricsSnapshot& delta,
                   const std::string& name);
double HistogramSumOf(const alex::obs::MetricsSnapshot& delta,
                      const std::string& name);
uint64_t HistogramCountOf(const alex::obs::MetricsSnapshot& delta,
                          const std::string& name);

/// Per-layer values of one traced pass, keyed by BENCHMARK.json name.
using LayerValues = std::map<std::string, double>;

/// The per-layer values every workload has: its set-up layers, the
/// engine's and link space's work counters in the pass's registry delta,
/// and the wall time no layer accounts for.
LayerValues SharedLayerValues(const PassBase& pass,
                              std::vector<std::string>* notes);

/// Folds traced passes into the per-layer metric list: each metric is the
/// median over passes, and names a workload does not exercise read 0.
std::vector<Metric> PerLayerMetrics(const std::vector<LayerValues>& passes);

/// Appends "name value (num / den)" for a ratio and returns num / den
/// (0 when den is 0).
double Ratio(const char* name, uint64_t num, uint64_t den,
             std::vector<std::string>* notes);

/// Appends a layer table: self wall seconds per layer (and self CPU
/// seconds when the clock measured them), the share of `wall_seconds`, and
/// the unaccounted remainder.
void AppendLayerTable(const std::string& title,
                      const std::map<std::string, double>& self_seconds,
                      const std::map<std::string, double>& self_cpu_seconds,
                      double wall_seconds, std::vector<std::string>* notes);

/// One line for a wall-clock figure that the benchmark prints but does not
/// gate on (see README.md, "Why wall-clock rates are not gated"): the
/// median over passes and the spread of the per-pass values.
std::string WallClockNote(const char* name, const char* unit,
                          const std::vector<double>& per_pass);

/// Runs passes until `options.seconds` of wall time have gone by and at
/// least kMinPasses ran; `run_pass(index, traced, &pass)` fills pass
/// `index`. Traced runs alternate untraced and traced passes, starting
/// untraced. The first pass with errors ends the run, its errors added to
/// `report`.
template <typename Pass, typename RunPassFn>
std::vector<Pass> RunPasses(const RunOptions& options, RunPassFn run_pass,
                            RunReport* report) {
  std::vector<Pass> passes;
  const SteadyTime start = Now();
  while (passes.size() < kMinPasses || SecondsSince(start) < options.seconds) {
    const size_t index = passes.size();
    Pass& pass = passes.emplace_back();
    run_pass(index, options.trace && index % 2 == 1, &pass);
    if (index == 0) report->peak_rss_mb = PeakRssMegabytes();
    for (const std::string& e : pass.errors) {
      report->errors.push_back("pass " + std::to_string(index) + ": " + e);
    }
    if (!pass.errors.empty()) break;
  }
  return passes;
}

/// Ends a traced run: the per-layer metrics are the medians over the
/// traced passes of `layer_values(pass, &notes)`, each with
/// obs.trace_overhead (median `measured_s` of the traced passes over that
/// of the untraced ones). Adds the ratio notes and the set-up and
/// `measured_title` layer tables of the last traced pass, and returns it.
template <typename Pass, typename LayerValuesFn>
const Pass& SetPerLayerMetrics(const std::vector<Pass>& passes,
                               LayerValuesFn layer_values,
                               const std::string& measured_title,
                               RunReport* report) {
  std::vector<double> untraced_s, traced_s;
  for (const Pass& p : passes) {
    (p.traced ? traced_s : untraced_s).push_back(p.measured_s);
  }
  const double overhead = Median(traced_s) / Median(untraced_s);
  std::vector<LayerValues> values;
  std::vector<std::string> ratios;
  const Pass* last = nullptr;
  for (const Pass& p : passes) {
    if (!p.traced) continue;
    ratios = {"ratios (last traced pass):"};
    values.push_back(layer_values(p, &ratios));
    values.back()["obs.trace_overhead"] = overhead;
    last = &p;
  }
  report->notes.insert(report->notes.end(), ratios.begin(), ratios.end());
  AppendLayerTable("setup layers (last traced pass):",
                   last->setup_layers.self_seconds(),
                   last->setup_layers.self_cpu_seconds(), last->setup_s,
                   &report->notes);
  AppendLayerTable(measured_title + " (last traced pass):",
                   last->measured_layers.self_seconds(),
                   last->measured_layers.self_cpu_seconds(), last->measured_s,
                   &report->notes);
  report->metrics = PerLayerMetrics(values);
  return *last;
}

/// <out_dir>/<workload>.trace.json, where WriteTrace puts the Chrome trace.
std::string TracePath(const RunOptions& options);

/// Writes the trace recorder's events as Chrome trace JSON to
/// TracePath(options); a failure is added to `errors` when given.
void WriteTrace(const RunOptions& options, std::vector<std::string>* errors);

RunReport RunLearningWorkload(const RunOptions& options);
RunReport RunServeWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
