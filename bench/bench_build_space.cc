// Build-phase scalability bench: measures link-space construction wall time
// and candidate counts at 1/2/4/8 partitions. Every partition borrows one
// shared right-dataset BlockingIndex plus term-key/value caches and keeps
// its build temporaries in a per-partition arena, so total time should stay
// flat as the partition count grows while the slowest partition shrinks.
//
// Each partition count is measured unpinned and with workers pinned 1:1 to
// CPUs (the hardware-conscious lever of the exec layer). Every run's
// finished spaces are digested (pairs, feature keys, feature score bits,
// partition by partition) and the pinned digest must equal the unpinned
// one — pinning is a performance lever, never a semantic one — or the
// bench exits 1. The detected topology (cores, NUMA nodes, whether
// affinity syscalls work) is embedded in the JSON so a 1-core CI run is
// distinguishable from a real multi-core measurement.
//
// Usage: bench_build_space [scenario_name] [reps]   (defaults:
// dbpedia_nytimes — the paper's batch-mode scenario of Figures 2a and 5 —
// and 3 repetitions reporting min-of-N wall times. CI smoke runs
// `bench_build_space dbpedia_nytimes 1` reduced.)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "datagen/scenarios.h"
#include "exec/topology.h"

#include "bench_util.h"

namespace {

struct RunRecord {
  size_t partitions = 0;
  bool pinned = false;
  double total_seconds = 0.0;
  double max_partition_seconds = 0.0;
  double shared_index_seconds = 0.0;
  alex::core::LinkSpace::BuildStats stats;
  uint64_t digest = 0;
};

/// FNV-1a over every observable bit of the finished spaces: pair keys in
/// canonical order and each pair's feature keys and raw score bits,
/// partition by partition. Two builds digest equal iff they produced
/// bit-identical spaces.
uint64_t DigestSpaces(const alex::core::PartitionedAlex& alex) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (size_t p = 0; p < alex.num_partitions(); ++p) {
    const alex::core::LinkSpace& space = alex.space(p);
    mix(space.size());
    for (alex::core::PairKey pair : space.pairs()) {
      mix(pair);
      const alex::core::FeatureSet* fs = space.FeaturesOf(pair);
      for (const alex::core::FeatureValue& f : *fs) {
        mix(f.key);
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(f.score));
        std::memcpy(&bits, &f.score, sizeof(bits));
        mix(bits);
      }
    }
  }
  return h;
}

RunRecord MeasureBuild(const alex::datagen::GeneratedPair& pair,
                       size_t partitions, bool pinned, size_t reps) {
  // Builds are deterministic; wall-time noise is scheduler/load. Min-of-N
  // is the standard way to report the build's actual cost.
  RunRecord record;
  record.partitions = partitions;
  record.pinned = pinned;
  for (size_t rep = 0; rep < reps; ++rep) {
    alex::core::AlexConfig config;
    config.num_partitions = partitions;
    config.pin_threads = pinned;
    alex::core::PartitionedAlex alex(&pair.left, &pair.right, config);
    alex::Stopwatch watch;
    const std::vector<double> seconds = alex.Build();
    const double total = watch.ElapsedSeconds();
    double max_partition = 0.0;
    for (double s : seconds) max_partition = std::max(max_partition, s);
    if (rep == 0 || total < record.total_seconds) {
      record.total_seconds = total;
      record.shared_index_seconds = alex.shared_index_seconds();
    }
    if (rep == 0 || max_partition < record.max_partition_seconds) {
      record.max_partition_seconds = max_partition;
    }
    // Deterministic across reps.
    record.stats = alex.AggregatedSpaceStats();
    record.digest = DigestSpaces(alex);
  }
  return record;
}

void PrintRecord(const RunRecord& r, bool last) {
  std::printf(
      "    {\"partitions\": %zu, \"pinned\": %s, \"total_seconds\": %.4f, "
      "\"max_partition_seconds\": %.4f, \"shared_index_seconds\": %.4f, "
      "\"candidate_pairs\": %llu, \"kept_pairs\": %llu, "
      "\"features_indexed\": %llu, \"digest\": \"%016llx\"}%s\n",
      r.partitions, r.pinned ? "true" : "false", r.total_seconds,
      r.max_partition_seconds, r.shared_index_seconds,
      static_cast<unsigned long long>(r.stats.candidate_pairs),
      static_cast<unsigned long long>(r.stats.kept_pairs),
      static_cast<unsigned long long>(r.stats.features_indexed),
      static_cast<unsigned long long>(r.digest), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alex;
  InitLoggingFromEnv();
  bench::TelemetrySidecar telemetry("bench_build_space");
  const std::string scenario_name =
      argc > 1 ? argv[1] : std::string("dbpedia_nytimes");
  const size_t reps = bench::ParseUintArg(argc, argv, 2, 3, "reps");
  datagen::ScenarioConfig scenario = datagen::ScenarioByName(scenario_name);
  if (scenario.name.empty()) {
    std::fprintf(stderr, "unknown scenario: %s\n", scenario_name.c_str());
    return 1;
  }
  Stopwatch generate_watch;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);
  telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());

  // Unpinned first at each partition count, so the speedup denominator
  // comes from the same sweep. The sidecar phase records the full wall time
  // of each partition count (all reps), so the phases stay disjoint and sum
  // to ~the bench wall.
  const std::vector<size_t> partition_counts = {1, 2, 4, 8};
  std::vector<RunRecord> runs;
  bool equivalent = true;
  for (size_t partitions : partition_counts) {
    Stopwatch watch;
    const RunRecord unpinned =
        MeasureBuild(pair, partitions, /*pinned=*/false, reps);
    const RunRecord pinned =
        MeasureBuild(pair, partitions, /*pinned=*/true, reps);
    telemetry.AddPhase("build_p" + std::to_string(partitions),
                       watch.ElapsedSeconds());
    if (pinned.digest != unpinned.digest) {
      equivalent = false;
      std::fprintf(stderr,
                   "digest mismatch at %zu partitions: pinned produced "
                   "%016llx, unpinned produced %016llx\n",
                   partitions, static_cast<unsigned long long>(pinned.digest),
                   static_cast<unsigned long long>(unpinned.digest));
    }
    telemetry.AddField(
        "topology_speedup_pinned_p" + std::to_string(partitions),
        unpinned.total_seconds / std::max(pinned.total_seconds, 1e-12));
    runs.push_back(unpinned);
    runs.push_back(pinned);
  }
  telemetry.AddField("topology_equivalent",
                     static_cast<uint64_t>(equivalent ? 1 : 0));

  // One extra traced 4-partition build; the sidecar writes it out as
  // bench_build_space.trace.json (Chrome trace_event / Perfetto format).
  obs::TraceRecorder::Global().SetEnabled(true);
  Stopwatch traced_watch;
  MeasureBuild(pair, 4, /*pinned=*/false, /*reps=*/1);
  telemetry.AddPhase("traced_p4", traced_watch.ElapsedSeconds());
  obs::TraceRecorder::Global().SetEnabled(false);

  const exec::CpuTopology& topo = exec::CpuTopology::Detect();
  std::printf("{\n");
  std::printf("  \"bench\": \"build_space\",\n");
  std::printf("  \"scenario\": \"%s\",\n", scenario.name.c_str());
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(scenario.seed));
  std::printf("  \"left_entities\": %zu,\n", pair.left.num_entities());
  std::printf("  \"right_entities\": %zu,\n", pair.right.num_entities());
  std::printf(
      "  \"topology\": {\"cores\": %zu, \"nodes\": %zu, "
      "\"pinning_supported\": %s},\n",
      topo.num_cpus(), topo.num_nodes(),
      topo.affinity_supported() ? "true" : "false");
  std::printf("  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintRecord(runs[i], /*last=*/i + 1 == runs.size());
  }
  std::printf("  ],\n");
  std::printf("  \"equivalent\": %s\n", equivalent ? "true" : "false");
  std::printf("}\n");
  return equivalent ? 0 : 1;
}
