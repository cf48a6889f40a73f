// Serving workload: svc::LinkService over DBpedia-NYTimes, seeded from
// PARIS, both datasets read through the in-memory compressed store.
//
// One pass = generate the pair (untimed), set up (compress, seed linker,
// Build, InitializeCandidates), then kRoundsPerPass closed-loop service
// runs over the same engine. Each run has min(4, allowed CPUs) clients
// with no think time and the default admission bound of twice the client
// count, so no op should be shed. Query-driven feedback is committed in
// batches of kFeedbackBatch items. Passes repeat until the run's seconds
// are spent.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "checks.h"
#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/scenarios.h"
#include "exec/topology.h"
#include "federation/link_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/compressed_store.h"
#include "service/link_service.h"
#include "simulation/query_workload.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRoundsPerPass = 8;
constexpr size_t kOpsPerClient = 2500;
constexpr size_t kFeedbackBatch = 32;
constexpr size_t kWorkloadQueries = 256;

size_t NumClients() {
  return std::min<size_t>(
      4, alex::exec::CpuTopology::Detect().RecommendedWorkers());
}

std::vector<std::pair<std::string, std::string>> SortedLinks(
    const alex::fed::LinkIndex& index) {
  std::vector<std::pair<std::string, std::string>> out;
  for (alex::fed::SameAsLink& link : index.AllLinks()) {
    out.emplace_back(std::move(link.left_iri), std::move(link.right_iri));
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct RoundResult {
  alex::svc::ServiceReport report;
  double cpu_s = 0.0;  // CPU seconds of all threads, open and run.
  ServeOutcome outcome;
};

/// measured_s sums the service runs' wall times, open and run.
struct PassResult : PassBase {
  double bytes_per_triple = 0.0;
  std::vector<RoundResult> rounds;
  /// Self seconds of the spans compiled into the program, summed over the
  /// client threads (traced passes only).
  std::map<std::string, double> program_self;
  /// Client threads' busy windows, first span start to last span end.
  double client_thread_s = 0.0;
};

void RunPass(uint64_t seed, size_t pass_index, bool traced,
             const RunOptions& options, PassResult* out) {
  using Scope = LayerClock::Scope;
  alex::obs::TraceRecorder& recorder = alex::obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(traced);
  out->traced = traced;
  out->setup_layers = LayerClock(traced);

  SteadyTime start = Now();
  alex::datagen::GeneratedPair data =
      alex::datagen::GenerateScenario(alex::datagen::DbpediaNytimes());
  out->generate_s = SecondsSince(start);

  alex::core::AlexConfig config;
  config.episode_size = kFeedbackBatch;
  config.seed = MixSeed(config.seed, seed);
  const alex::obs::MetricsSnapshot before =
      alex::obs::MetricsRegistry::Global().Snapshot();

  start = Now();
  {
    Scope scope(&out->setup_layers, "rdf.compress");
    data.left.Compress();
    data.right.Compress();
  }
  out->bytes_per_triple = 0.5 * (data.left.compressed()->BytesPerTriple() +
                                 data.right.compressed()->BytesPerTriple());
  std::unique_ptr<alex::core::PartitionedAlex> engine =
      SetUpEngine(data, config, &out->setup_layers, &out->build, &out->errors);
  if (engine == nullptr) return;
  alex::core::PartitionedAlex& alex = *engine;
  out->setup_s = SecondsSince(start);

  for (size_t round = 0; round < kRoundsPerPass; ++round) {
    alex::svc::ServiceConfig service_config;
    service_config.num_clients = NumClients();
    service_config.ops_per_client = kOpsPerClient;
    service_config.feedback_batch = kFeedbackBatch;
    // Each run draws its own query set and client streams; F varies with
    // the query set far more than with anything else, so a run samples many.
    service_config.seed = MixSeed(seed, pass_index * kRoundsPerPass + round);
    service_config.workload_queries = kWorkloadQueries;
    const alex::obs::MetricsSnapshot round_before =
        alex::obs::MetricsRegistry::Global().Snapshot();

    RoundResult r;
    const SteadyTime round_start = Now();
    const double round_cpu_start = ProcessCpuSeconds();
    std::unique_ptr<alex::svc::LinkService> service;
    {
      Scope scope(&out->measured_layers, "svc.open");
      service = std::make_unique<alex::svc::LinkService>(&data, &alex, config,
                                                         service_config);
    }
    {
      Scope scope(&out->measured_layers, "svc.run");
      r.report = service->Run();
    }
    out->measured_s += SecondsSince(round_start);
    r.cpu_s = ProcessCpuSeconds() - round_cpu_start;
    const alex::obs::MetricsSnapshot round_delta =
        alex::obs::MetricsRegistry::Global().Snapshot().DeltaSince(
            round_before);

    if (traced) {
      // Harvest the program's spans after every run, before a thread's ring
      // (TraceRecorder::kRingCapacity events) can wrap, then start over.
      const std::vector<alex::obs::TraceEvent> events = recorder.Events();
      const ProgramSpans spans =
          ProgramSpanSelfSeconds(events, "FederatedEngine::Execute");
      if (spans.ring_full) {
        out->errors.push_back("a trace ring filled up in one service run");
      }
      for (const auto& [name, s] : spans.self_seconds) {
        out->program_self[name] += s;
      }
      out->client_thread_s += spans.thread_seconds;
      if (round == 0) WriteTrace(options, &out->errors);
      recorder.Clear();
    }

    ServeOutcome& o = r.outcome;
    o.ops = r.report.ops;
    o.queries = r.report.queries;
    o.shed = r.report.shed;
    o.failed = r.report.failed;
    o.commits = r.report.committed_episodes;
    o.epochs_published = r.report.epochs_published;
    o.commit_counter = CounterOf(round_delta, "svc.commits");
    o.link_commit_counter = CounterOf(round_delta, "fed.link_commits");
    o.links_match =
        SortedLinks(*service->links().Acquire()) ==
        SortedLinks(alex::simulation::LinksFromPairs(data, alex.CandidateVector()));
    for (const std::string& e : CheckServeOutcome(o)) {
      out->errors.push_back("round " + std::to_string(round) + ": " + e);
    }
    out->rounds.push_back(std::move(r));
  }
  recorder.SetEnabled(false);
  out->delta =
      alex::obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
}

LayerValues TracedLayerValues(const PassResult& p,
                              std::vector<std::string>* notes) {
  const alex::obs::MetricsSnapshot& d = p.delta;
  LayerValues v = SharedLayerValues(p, notes);
  v["rdf.compress_s"] = p.setup_layers.SelfSeconds("rdf.compress");
  v["rdf.block_decodes"] = HistogramCountOf(d, "rdf.block_decode_seconds");
  v["rdf.block_decode_s"] = HistogramSumOf(d, "rdf.block_decode_seconds");
  v["rdf.bytes_per_triple"] = p.bytes_per_triple;
  Ratio("rdf.block_cache_hit_ratio", CounterOf(d, "rdf.block_cache_hits"),
        CounterOf(d, "rdf.block_cache_hits") +
            CounterOf(d, "rdf.block_cache_misses"),
        notes);
  auto program = [&](const char* span) {
    auto it = p.program_self.find(span);
    return it == p.program_self.end() ? 0.0 : it->second;
  };
  v["policy.end_episode_s"] = program("PartitionedAlex::EndEpisode");
  v["fed.plan_cache_hits"] = CounterOf(d, "fed.plan_cache_hits");
  const uint64_t probe_hits = CounterOf(d, "fed.probe_cache_hits");
  v["fed.probe_cache_hit_ratio"] =
      Ratio("fed.probe_cache_hit_ratio", probe_hits,
            probe_hits + CounterOf(d, "fed.probe_cache_misses"), notes);
  v["fed.rows"] = CounterOf(d, "fed.rows");
  v["fed.links_crossed"] = CounterOf(d, "fed.links_crossed");
  v["svc.commits"] = CounterOf(d, "svc.commits");
  v["svc.commit_s"] = program("LinkService::Commit");
  v["fed.link_commit_adds"] = CounterOf(d, "fed.link_commit_adds");
  v["fed.link_commit_removes"] = CounterOf(d, "fed.link_commit_removes");
  v["svc.shed"] = CounterOf(d, "svc.shed");
  return v;
}

}  // namespace

RunReport RunServeWorkload(const RunOptions& options) {
  RunReport report;
  const std::vector<PassResult> passes = RunPasses<PassResult>(
      options,
      [&](size_t index, bool traced, PassResult* pass) {
        RunPass(options.seed, index, traced, options, pass);
      },
      &report);
  if (!report.errors.empty()) return report;

  std::vector<double> setup_s, generate_s, final_f, cpu_us_per_item,
      query_rate, query_p50_us, query_p99_us, feedback_rate;
  for (const PassResult& p : passes) {
    generate_s.push_back(p.generate_s);
    for (const RoundResult& r : p.rounds) {
      report.attempted += r.report.ops;
      report.failed += r.report.shed + r.report.failed;
    }
    if (p.traced) continue;
    setup_s.push_back(p.setup_s);
    final_f.push_back(p.rounds.back().report.quality.f_measure);
    for (const RoundResult& r : p.rounds) {
      // Each round's exact latency quantiles come from the service, which
      // records every query; p99 needs ten samples beyond it.
      if (r.report.latency.count * (1.0 - 0.99) < kMinTailSamples) {
        report.errors.push_back("too few queries in a round for p99");
        return report;
      }
      // Feedback volume per run follows the learning trajectory (answers
      // cross more links as links are found), and commits dominate the
      // CPU, so the cost is taken per feedback item, as in batch mode.
      // Every run draws its own queries, so no two runs repeat the same
      // work: the median over runs, not the least, is the estimate.
      cpu_us_per_item.push_back(
          r.cpu_s * 1e6 /
          static_cast<double>(std::max<size_t>(1, r.report.feedback_items)));
      query_rate.push_back(static_cast<double>(r.report.queries) /
                           r.report.duration_seconds);
      query_p50_us.push_back(r.report.latency.p50_seconds * 1e6);
      query_p99_us.push_back(r.report.latency.p99_seconds * 1e6);
      feedback_rate.push_back(static_cast<double>(r.report.feedback_items) /
                              r.report.duration_seconds);
    }
  }

  const PassResult& first = passes.front();
  const alex::svc::ServiceReport& last_round = first.rounds.back().report;
  char line[320];
  std::snprintf(line, sizeof(line),
                "serve_nytimes seed %llu: %zu passes of %zu runs x %zu "
                "clients x %zu ops, generate %.3f s (median, not in setup); "
                "pass 0 last run: %zu queries, %zu commits, %.0f queries/s, "
                "F %.4f",
                static_cast<unsigned long long>(options.seed), passes.size(),
                kRoundsPerPass, NumClients(), kOpsPerClient,
                Median(generate_s), last_round.queries,
                last_round.committed_episodes,
                static_cast<double>(last_round.queries) /
                    last_round.duration_seconds,
                last_round.quality.f_measure);
  report.notes.push_back(line);

  if (!options.trace) {
    report.notes.push_back(WallClockNote("queries_per_s", "1/s", query_rate));
    report.notes.push_back(WallClockNote("query_us_p50", "us", query_p50_us));
    report.notes.push_back(WallClockNote("query_us_p99", "us", query_p99_us));
    report.notes.push_back(WallClockNote("feedback_per_s", "items/s",
                                         feedback_rate));
    report.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"cpu_us_per_item", Median(cpu_us_per_item), "us"},
        {"final_f", Mean(final_f), "F"},
    };
    return report;
  }

  const PassResult& last_traced = SetPerLayerMetrics(
      passes, TracedLayerValues, "service layers", &report);
  AppendLayerTable("inside LinkService::Run (span self time summed over " +
                       std::to_string(NumClients()) +
                       " client threads, first to last span of each):",
                   last_traced.program_self, {}, last_traced.client_thread_s,
                   &report.notes);
  report.notes.push_back("chrome trace (first run of the last traced pass): " +
                         TracePath(options));
  return report;
}

}  // namespace perfbench
