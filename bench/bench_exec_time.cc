// Section 7.3 "Execution Time": per-episode and total wall time of ALEX in
// batch mode (DBpedia-NYTimes) and in the interactive specific-domain
// setting (DBpedia NBA - NYTimes), including the per-partition search-space
// build times whose slowest member bounds the preprocessing step. A third
// section times federated query execution (compiled plans over plain
// endpoints vs compiled plans + probe caching) on a small workload, with
// the cache hit rate and plan-compile time reported here and in the
// telemetry sidecar fields.

#include <algorithm>

#include "bench_util.h"
#include "datagen/scenarios.h"
#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "federation/probe_cache.h"
#include "simulation/query_workload.h"

int main() {
  using namespace alex;
  InitLoggingFromEnv();
  bench::TelemetrySidecar telemetry("bench_exec_time");

  // Batch mode.
  simulation::SimulationConfig batch =
      bench::MakeConfig(datagen::DbpediaNytimes(), 1000);
  batch.alex.max_episodes = 20;  // Enough episodes to average timing over.
  simulation::Simulation batch_sim(batch);
  const simulation::RunResult b = batch_sim.Run();
  telemetry.AddRun("batch_dbpedia_nytimes", b);
  double batch_episode_seconds = 0.0;
  for (size_t i = 1; i < b.episodes.size(); ++i) {
    batch_episode_seconds += b.episodes[i].seconds;
  }
  batch_episode_seconds /= std::max<size_t>(1, b.episodes.size() - 1);

  // Interactive mode.
  simulation::SimulationConfig interactive =
      bench::MakeConfig(datagen::DbpediaNbaNytimes(), 10);
  interactive.alex.num_partitions = 4;
  const simulation::RunResult i = simulation::Simulation(interactive).Run();
  telemetry.AddRun("interactive_nba_nytimes", i);
  double inter_episode_seconds = 0.0;
  for (size_t k = 1; k < i.episodes.size(); ++k) {
    inter_episode_seconds += i.episodes[k].seconds;
  }
  inter_episode_seconds /= std::max<size_t>(1, i.episodes.size() - 1);

  std::printf("Section 7.3: execution time\n\n");
  std::printf("%-34s %14s %14s\n", "", "batch(NYT)", "interactive(NBA)");
  std::printf("%-34s %14zu %14zu\n", "episodes run", b.episodes.size() - 1,
              i.episodes.size() - 1);
  std::printf("%-34s %14.3f %14.4f\n", "avg seconds per episode",
              batch_episode_seconds, inter_episode_seconds);
  std::printf("%-34s %14.2f %14.3f\n", "total run seconds", b.total_seconds,
              i.total_seconds);
  std::printf("%-34s %14.2f %14.3f\n", "slowest partition build (s)",
              b.build_seconds_max, i.build_seconds_max);
  std::printf("%-34s %14.2f %14.3f\n", "average partition build (s)",
              b.build_seconds_avg, i.build_seconds_avg);
  std::printf("%-34s %14.3f %14.4f\n", "shared blocking index build (s)",
              b.shared_index_seconds, i.shared_index_seconds);
  std::printf(
      "\npaper reference: ~7 min/episode batch (97 min total, 64-core "
      "server, full-size LOD data), ~1.3 s/episode interactive. This "
      "reproduction runs scaled-down data on this machine; the *ratio* "
      "batch >> interactive is the reproduced result.\n");

  // Federated query execution: compiled plans over plain endpoints vs with
  // probe-caching endpoints, on a small workload over the batch-mode data.
  {
    Stopwatch fed_watch;
    const datagen::GeneratedPair& pair = batch_sim.data();
    const simulation::FederatedWorkload workload =
        simulation::MakeFederatedWorkload(pair, 100, 424242);
    const fed::LinkIndex links =
        simulation::LinksFromPairs(pair, pair.truth.AsVector());
    fed::Endpoint left(&pair.left);
    fed::Endpoint right(&pair.right);

    fed::FederatedEngine uncached(&left, &right, &links);
    Stopwatch uncached_watch;
    const simulation::WorkloadRunStats uncached_stats =
        simulation::ExecuteFederatedWorkload(uncached, workload);
    const double uncached_seconds = uncached_watch.ElapsedSeconds();

    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    fed::CachingEndpoint cached_left(&left);
    fed::CachingEndpoint cached_right(&right);
    fed::FederatedEngine fast(&cached_left, &cached_right, &links);
    double fast_seconds = 1e300;
    simulation::WorkloadRunStats fast_stats;
    for (int rep = 0; rep < 2; ++rep) {  // Rep 0 cold, rep 1 warm.
      Stopwatch watch;
      fast_stats = simulation::ExecuteFederatedWorkload(fast, workload);
      fast_seconds = std::min(fast_seconds, watch.ElapsedSeconds());
    }
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
    auto counter = [&delta](const char* name) -> uint64_t {
      auto it = delta.counters.find(name);
      return it == delta.counters.end() ? 0 : it->second;
    };
    const uint64_t hits = counter("fed.probe_cache_hits");
    const uint64_t misses = counter("fed.probe_cache_misses");
    const double hit_rate =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) / (hits + misses);
    double compile_mean = 0.0;
    auto hist = delta.histograms.find("fed.plan_compile_seconds");
    if (hist != delta.histograms.end() && hist->second.count > 0) {
      compile_mean = hist->second.Mean();
    }

    std::printf("\nfederated query execution (%zu queries, truth links)\n",
                workload.queries.size());
    std::printf("%-34s %14.4f\n", "compiled seconds", uncached_seconds);
    std::printf("%-34s %14.4f\n", "compiled+cached seconds (best)",
                fast_seconds);
    std::printf("%-34s %14.2f\n", "probe cache speedup",
                fast_seconds > 0 ? uncached_seconds / fast_seconds : 0.0);
    std::printf("%-34s %14.4f\n", "probe cache hit rate", hit_rate);
    std::printf("%-34s %14.8f\n", "plan compile seconds (mean)",
                compile_mean);
    std::printf("%-34s %14zu / %zu\n", "rows (cached / uncached)",
                fast_stats.rows, uncached_stats.rows);
    telemetry.AddField("fed_probe_cache_hit_rate", hit_rate);
    telemetry.AddField("fed_plan_compile_seconds_mean", compile_mean);
    telemetry.AddField("fed_plan_cache_hits",
                       counter("fed.plan_cache_hits"));
    telemetry.AddField(
        "fed_cache_speedup",
        fast_seconds > 0 ? uncached_seconds / fast_seconds : 0.0);
    telemetry.AddPhase("federated_queries", fed_watch.ElapsedSeconds());
  }
  return 0;
}
