// Federated query workload bench, two angles on DBpedia-NYTimes:
//
// Quality (full mode): a FedBench-style workload (right-side attributes of
// left-side entities, answerable only through owl:sameAs links) executed
// against three link sets — paris (the automatic linker's initial links),
// alex (after feedback-driven refinement), truth (upper bound). Reported:
// answered fraction (user-visible link recall), wrong answers (precision),
// mean latency.
//
// Performance (always): the same workload on the truth links under three
// execution configurations —
//   compiled      - compiled plans (memoized per query text) over plain
//                   endpoints;
//   fast          - compiled plus probe-caching endpoints;
//   fast_parallel - fast, fanned across a thread pool with deterministic
//                   merge.
// Before timing, every query's full result (rows, provenance, degradation
// detail) is digest-compared across the uncached engine, a cold probe cache
// and a warm one; the parallel run must return the same rows and link
// provenance as the sequential one. Any mismatch fails the bench (exit 1),
// as does an all-zero-rows workload, so CI smoke runs catch both
// correctness and wiring regressions.
//
// Output: one JSON object on stdout. Cache hit rates and plan-compile times
// are included both in the JSON and in the telemetry sidecar fields.
//
// Usage: bench_federated_queries [queries=300] [reps=3] [smoke=0] [trace=0]
//   smoke=1 skips the expensive quality arms (ALEX training + PARIS) and is
//   what CI runs reduced, e.g. `bench_federated_queries 30 2 1`.
//   trace=1 adds a traced arm AFTER the timed perf arms (so spans never
//   pollute the timing): alternating untraced and runtime-traced passes
//   over the workload, reporting the median per-pair runtime overhead of
//   enabled tracing with its quartiles, writing
//   the span tree to bench_federated_queries.trace.json (via the sidecar)
//   and the registry state to bench_federated_queries.prom (Prometheus
//   text exposition). CI validates both artifacts.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "datagen/scenarios.h"
#include "exec/topology.h"
#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "federation/probe_cache.h"
#include "obs/metrics.h"
#include "simulation/query_workload.h"
#include "simulation/simulation.h"

#include "bench_util.h"

namespace {

using namespace alex;

struct ArmStats {
  size_t answered = 0;
  size_t total = 0;
  size_t wrong_rows = 0;
  double seconds = 0.0;
};

ArmStats RunQualityArm(const datagen::GeneratedPair& pair,
                       const simulation::FederatedWorkload& workload,
                       const fed::LinkIndex& links) {
  fed::Endpoint left(&pair.left);
  fed::Endpoint right(&pair.right);
  fed::FederatedEngine engine(&left, &right, &links);
  ArmStats stats;
  stats.total = workload.queries.size();
  Stopwatch watch;
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    auto r = engine.ExecuteText(workload.queries[i]);
    if (!r.ok()) continue;
    if (r->NumRows() > 0) ++stats.answered;
    for (const fed::ProvenancedRow& row : r->rows) {
      for (const fed::SameAsLink& link : row.links_used) {
        auto l = pair.left.FindEntityByIri(link.left_iri);
        auto rr = pair.right.FindEntityByIri(link.right_iri);
        if (!l || !rr || !pair.truth.Contains(*l, *rr)) {
          ++stats.wrong_rows;
          break;
        }
      }
    }
  }
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

/// Full observable result of one query, for cross-path equivalence.
std::string Digest(const Result<fed::FederatedResult>& r) {
  if (!r.ok()) {
    return "error:" + std::to_string(static_cast<int>(r.status().code()));
  }
  std::string d = r->degraded ? "degraded|" : "ok|";
  for (const fed::ProvenancedRow& row : r->rows) {
    d += "row:";
    for (const rdf::Term& t : row.values) d += t.ToNTriples() + "\x1e";
    for (const fed::SameAsLink& l : row.links_used) {
      d += l.left_iri + "->" + l.right_iri + "\x1f";
    }
  }
  return d;
}

/// Linear-interpolated quantile `q` of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  InitLoggingFromEnv();
  bench::TelemetrySidecar telemetry("bench_federated_queries");
  const size_t num_queries =
      bench::ParseUintArg(argc, argv, 1, 300, "queries");
  const size_t reps = bench::ParseUintArg(argc, argv, 2, 3, "reps");
  const bool smoke =
      bench::ParseUintArg(argc, argv, 3, 0, "smoke", /*min_value=*/0) != 0;
  const bool trace =
      bench::ParseUintArg(argc, argv, 4, 0, "trace", /*min_value=*/0) != 0;

  Stopwatch generate_watch;
  simulation::SimulationConfig config;
  config.scenario = datagen::DbpediaNytimes();
  config.alex.episode_size = 1000;
  config.alex.max_episodes = 40;
  const datagen::GeneratedPair pair =
      datagen::GenerateScenario(config.scenario);
  const simulation::FederatedWorkload workload =
      simulation::MakeFederatedWorkload(pair, num_queries, 424242);
  const fed::LinkIndex truth_index =
      simulation::LinksFromPairs(pair, pair.truth.AsVector());
  telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());

  // --- Quality arms (full mode only: the training run dominates cost). ---
  struct ArmRow {
    std::string name;
    size_t links = 0;
    ArmStats stats;
  };
  std::vector<ArmRow> arms;
  if (!smoke) {
    Stopwatch arms_watch;
    simulation::Simulation sim(config);
    std::vector<feedback::PairKey> alex_links;
    sim.set_observer([&](size_t, const core::PartitionedAlex& alex) {
      alex_links = alex.CandidateVector();
    });
    const simulation::RunResult run = sim.Run();
    telemetry.AddRun("alex_training_run", run);

    paris::ParisLinker linker(&pair.left, &pair.right, config.paris);
    std::vector<feedback::PairKey> paris_links;
    for (const paris::ScoredLink& l : linker.Run()) {
      paris_links.push_back(feedback::PackPair(l.left, l.right));
    }
    const fed::LinkIndex paris_index =
        simulation::LinksFromPairs(pair, paris_links);
    const fed::LinkIndex alex_index =
        simulation::LinksFromPairs(pair, alex_links);
    const struct {
      const char* name;
      const fed::LinkIndex* index;
    } quality_arms[] = {{"paris", &paris_index},
                        {"alex", &alex_index},
                        {"truth", &truth_index}};
    for (const auto& arm : quality_arms) {
      arms.push_back(ArmRow{arm.name, arm.index->size(),
                            RunQualityArm(pair, workload, *arm.index)});
    }
    telemetry.AddPhase("quality_arms", arms_watch.ElapsedSeconds());
  }

  // --- Equivalence: uncached vs cold cache vs warm cache, per query. ---
  Stopwatch equivalence_watch;
  fed::Endpoint left(&pair.left);
  fed::Endpoint right(&pair.right);
  size_t mismatches = 0;
  {
    fed::FederatedEngine uncached(&left, &right, &truth_index);
    fed::CachingEndpoint cached_left(&left);
    fed::CachingEndpoint cached_right(&right);
    fed::FederatedEngine cached(&cached_left, &cached_right, &truth_index);
    for (const std::string& query : workload.queries) {
      const std::string expected = Digest(uncached.ExecuteText(query));
      if (Digest(cached.ExecuteText(query)) != expected) ++mismatches;
      // Warm pass over the now-populated caches must agree too.
      if (Digest(cached.ExecuteText(query)) != expected) ++mismatches;
    }
  }
  telemetry.AddPhase("equivalence", equivalence_watch.ElapsedSeconds());

  // --- Performance: compiled vs fast vs fast_parallel on the truth links.
  const obs::MetricsSnapshot perf_before =
      obs::MetricsRegistry::Global().Snapshot();
  Stopwatch perf_watch;

  double compiled_seconds = 1e300;
  simulation::WorkloadRunStats compiled_stats;
  {
    fed::FederatedEngine engine(&left, &right, &truth_index);
    for (size_t rep = 0; rep < reps; ++rep) {
      Stopwatch watch;
      compiled_stats = simulation::ExecuteFederatedWorkload(engine, workload);
      compiled_seconds = std::min(compiled_seconds, watch.ElapsedSeconds());
    }
  }

  // The fast stack persists across reps: the first rep pays the cold cache,
  // later reps measure the steady state a long-lived federation sees.
  fed::CachingEndpoint cached_left(&left);
  fed::CachingEndpoint cached_right(&right);
  double fast_seconds = 1e300;
  size_t fast_rows = 0;
  {
    fed::FederatedEngine engine(&cached_left, &cached_right, &truth_index);
    for (size_t rep = 0; rep < reps; ++rep) {
      Stopwatch watch;
      const simulation::WorkloadRunStats stats =
          simulation::ExecuteFederatedWorkload(engine, workload);
      fast_seconds = std::min(fast_seconds, watch.ElapsedSeconds());
      fast_rows = stats.rows;
    }
  }

  double parallel_seconds = 1e300;
  simulation::WorkloadRunStats parallel_stats;
  {
    // Pre-build the store indexes: parallel readers must not race the lazy
    // first-read build.
    pair.left.store().EnsureIndexes();
    pair.right.store().EnsureIndexes();
    const size_t threads = std::max<size_t>(
        2, std::min<size_t>(8, exec::CpuTopology::Detect().RecommendedWorkers()));
    ThreadPool pool(threads);
    fed::FederatedEngine engine(&cached_left, &cached_right, &truth_index);
    simulation::WorkloadExecOptions options;
    options.pool = &pool;
    for (size_t rep = 0; rep < reps; ++rep) {
      Stopwatch watch;
      parallel_stats =
          simulation::ExecuteFederatedWorkload(engine, workload, options);
      parallel_seconds = std::min(parallel_seconds, watch.ElapsedSeconds());
    }
  }
  telemetry.AddPhase("perf", perf_watch.ElapsedSeconds());

  // --- Traced arm (trace=1), after the timed arms so spans never pollute
  // the perf numbers. kTracePairs alternating pairs over one engine:
  // runtime-disabled then runtime-enabled, each pair giving the marginal
  // cost of live tracing on identical (warm-cache) work. One pass takes
  // well under a millisecond at CI size, so a single pair measures
  // scheduling noise; the reported overhead is the median over the pairs,
  // with its quartiles as the spread. The recorder is cleared before each
  // traced pass, so it ends holding the last one's spans, which the
  // sidecar writes to bench_federated_queries.trace.json at exit.
  constexpr size_t kTracePairs = 21;
  std::vector<double> untraced_passes, traced_passes, overhead_pcts;
  uint64_t trace_events = 0;
  if (trace) {
    Stopwatch trace_watch;
    fed::FederatedEngine engine(&cached_left, &cached_right, &truth_index);
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    for (size_t pair_index = 0; pair_index < kTracePairs; ++pair_index) {
      Stopwatch untraced_watch;
      simulation::ExecuteFederatedWorkload(engine, workload);
      untraced_passes.push_back(untraced_watch.ElapsedSeconds());
      recorder.Clear();
      recorder.SetEnabled(true);
      Stopwatch traced_watch;
      simulation::ExecuteFederatedWorkload(engine, workload);
      traced_passes.push_back(traced_watch.ElapsedSeconds());
      recorder.SetEnabled(false);
      if (untraced_passes.back() > 0.0) {
        overhead_pcts.push_back(100.0 *
                                (traced_passes.back() -
                                 untraced_passes.back()) /
                                untraced_passes.back());
      }
    }
    trace_events = recorder.Events().size();
    telemetry.AddPhase("traced", trace_watch.ElapsedSeconds());

    std::ofstream prom("bench_federated_queries.prom");
    obs::WritePrometheusText(obs::MetricsRegistry::Global().Snapshot(), prom);
  }
  const double untraced_seconds = Quantile(untraced_passes, 0.5);
  const double traced_seconds = Quantile(traced_passes, 0.5);
  const double trace_overhead_pct = Quantile(overhead_pcts, 0.5);
  const double trace_overhead_pct_q1 = Quantile(overhead_pcts, 0.25);
  const double trace_overhead_pct_q3 = Quantile(overhead_pcts, 0.75);
#ifdef ALEX_TRACING_ENABLED
  const bool tracing_compiled_in = true;
#else
  const bool tracing_compiled_in = false;
#endif

  const obs::MetricsSnapshot perf_delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(perf_before);
  auto counter = [&perf_delta](const char* name) -> uint64_t {
    auto it = perf_delta.counters.find(name);
    return it == perf_delta.counters.end() ? 0 : it->second;
  };
  const uint64_t cache_hits = counter("fed.probe_cache_hits");
  const uint64_t cache_misses = counter("fed.probe_cache_misses");
  const double hit_rate =
      cache_hits + cache_misses == 0
          ? 0.0
          : static_cast<double>(cache_hits) / (cache_hits + cache_misses);
  double compile_mean = 0.0;
  uint64_t compile_count = 0;
  auto hist = perf_delta.histograms.find("fed.plan_compile_seconds");
  if (hist != perf_delta.histograms.end() && hist->second.count > 0) {
    compile_count = hist->second.count;
    compile_mean = hist->second.Mean();
  }
  const double cache_speedup =
      fast_seconds > 0 ? compiled_seconds / fast_seconds : 0.0;
  const double parallel_speedup =
      parallel_seconds > 0 ? fast_seconds / parallel_seconds : 0.0;
  const bool runs_agree =
      compiled_stats.rows == fast_rows &&
      parallel_stats.rows == fast_rows &&
      parallel_stats.links_observed == compiled_stats.links_observed;
  const bool equivalent = mismatches == 0 && runs_agree;
  const bool nonempty = fast_rows > 0;

  telemetry.AddField("probe_cache_hit_rate", hit_rate);
  telemetry.AddField("plan_cache_hits", counter("fed.plan_cache_hits"));
  telemetry.AddField("plan_compile_seconds_mean", compile_mean);
  telemetry.AddField("cache_speedup", cache_speedup);
  telemetry.AddField("parallel_speedup", parallel_speedup);
  if (trace) {
    telemetry.AddField("trace_events", trace_events);
    telemetry.AddField("trace_runtime_overhead_pct", trace_overhead_pct);
    telemetry.AddField("trace_overhead_pct_q1", trace_overhead_pct_q1);
    telemetry.AddField("trace_overhead_pct_q3", trace_overhead_pct_q3);
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"federated_queries\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"queries\": %zu,\n", workload.queries.size());
  std::printf("  \"reps\": %zu,\n", reps);
  std::printf("  \"arms\": [");
  for (size_t i = 0; i < arms.size(); ++i) {
    const ArmRow& arm = arms[i];
    std::printf(
        "%s\n    {\"name\": \"%s\", \"links\": %zu, \"answered\": %zu, "
        "\"answered_pct\": %.1f, \"wrong_rows\": %zu, "
        "\"mean_latency_us\": %.2f}",
        i == 0 ? "" : ",", EscapeJson(arm.name).c_str(), arm.links,
        arm.stats.answered,
        arm.stats.total == 0 ? 0.0
                             : 100.0 * arm.stats.answered / arm.stats.total,
        arm.stats.wrong_rows,
        arm.stats.total == 0 ? 0.0
                             : 1e6 * arm.stats.seconds / arm.stats.total);
  }
  std::printf("%s],\n", arms.empty() ? "" : "\n  ");
  std::printf("  \"perf\": {\n");
  std::printf("    \"compiled_seconds\": %.6f,\n", compiled_seconds);
  std::printf("    \"fast_seconds\": %.6f,\n", fast_seconds);
  std::printf("    \"fast_parallel_seconds\": %.6f,\n", parallel_seconds);
  std::printf("    \"cache_speedup\": %.2f,\n", cache_speedup);
  std::printf("    \"parallel_speedup\": %.2f,\n", parallel_speedup);
  std::printf("    \"rows\": %zu,\n", fast_rows);
  std::printf("    \"probe_cache_hit_rate\": %.4f,\n", hit_rate);
  std::printf("    \"probe_cache_hits\": %llu,\n",
              static_cast<unsigned long long>(cache_hits));
  std::printf("    \"probe_cache_misses\": %llu,\n",
              static_cast<unsigned long long>(cache_misses));
  std::printf("    \"plan_cache_hits\": %llu,\n",
              static_cast<unsigned long long>(counter("fed.plan_cache_hits")));
  std::printf("    \"plan_compile_count\": %llu,\n",
              static_cast<unsigned long long>(compile_count));
  std::printf("    \"plan_compile_seconds_mean\": %.8f,\n", compile_mean);
  std::printf("    \"parallel_queries\": %llu\n",
              static_cast<unsigned long long>(
                  counter("fed.parallel_queries")));
  std::printf("  },\n");
  std::printf("  \"tracing\": {\n");
  std::printf("    \"compiled_in\": %s,\n",
              tracing_compiled_in ? "true" : "false");
  std::printf("    \"traced\": %s,\n", trace ? "true" : "false");
  std::printf("    \"untraced_seconds\": %.6f,\n", untraced_seconds);
  std::printf("    \"traced_seconds\": %.6f,\n", traced_seconds);
  std::printf("    \"trace_pairs\": %zu,\n", overhead_pcts.size());
  std::printf("    \"trace_runtime_overhead_pct\": %.2f,\n",
              trace_overhead_pct);
  std::printf("    \"trace_overhead_pct_q1\": %.2f,\n",
              trace_overhead_pct_q1);
  std::printf("    \"trace_overhead_pct_q3\": %.2f,\n",
              trace_overhead_pct_q3);
  std::printf("    \"trace_events\": %llu\n",
              static_cast<unsigned long long>(trace_events));
  std::printf("  },\n");
  std::printf("  \"mismatches\": %zu,\n", mismatches);
  std::printf("  \"equivalent\": %s\n", equivalent ? "true" : "false");
  std::printf("}\n");

  if (!equivalent || !nonempty) {
    std::fprintf(stderr,
                 "FAIL: equivalent=%d rows=%zu (mismatches=%zu, "
                 "compiled_rows=%zu, parallel_rows=%zu)\n",
                 equivalent ? 1 : 0, fast_rows, mismatches,
                 compiled_stats.rows, parallel_stats.rows);
    return 1;
  }
  return 0;
}
