// perfbench_harness: runs one ALEX benchmark workload and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check fails, 2 on bad arguments.
//
//   perfbench_harness --workload <name> [--seed N] [--seconds S]
//                     [--trace 0|1] [--out-dir DIR]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "<name> [--seed N] [--seconds S] [--trace 0|1] "
               "[--out-dir DIR]\nworkloads:",
               message);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == options.workload;
  }
  if (!known) return Usage(("unknown workload '" + options.workload + "'").c_str());

  perfbench::RunReport report = perfbench::RunWorkload(options);
  if (!options.trace) {
    report.metrics.push_back({"peak_rss_mb", report.peak_rss_mb, "MB"});
  }
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = report.errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i ? ", \"" : "\"") + JsonEscape(m.name) + "\": {\"value\": " +
            value + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
