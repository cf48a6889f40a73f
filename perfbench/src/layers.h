#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using SteadyTime = std::chrono::steady_clock::time_point;

inline SteadyTime Now() { return std::chrono::steady_clock::now(); }
inline double SecondsSince(SteadyTime start) {
  return std::chrono::duration<double>(Now() - start).count();
}

/// CPU seconds used so far by all threads of this process.
double ProcessCpuSeconds();

/// The process's peak resident set so far, in MB.
double PeakRssMegabytes();

/// Times the harness's calls into the program's layers, from outside the
/// program. A Scope is one call; its self time is its duration minus the
/// duration of the scopes opened inside it, so the self times of a tree of
/// scopes add up to the root's wall time. With `measure_cpu`, each scope
/// also takes the process's CPU time (all threads: the pool works on the
/// caller's behalf) the same way; that costs two system calls per scope, so
/// only traced passes ask for it. Every scope is also an obs::TraceSpan in
/// category "perfbench", which records only while the trace recorder is
/// enabled. Single-threaded: scopes nest on one thread.
class LayerClock {
 public:
  explicit LayerClock(bool measure_cpu = false) : measure_cpu_(measure_cpu) {}

  class Scope {
   public:
    /// `layer` must be a string literal (trace spans keep the pointer).
    Scope(LayerClock* clock, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock* clock_;
    alex::obs::TraceSpan span_;
  };

  /// Self wall seconds per layer.
  const std::map<std::string, double>& self_seconds() const { return self_; }
  /// Self CPU seconds per layer (empty unless `measure_cpu`).
  const std::map<std::string, double>& self_cpu_seconds() const {
    return self_cpu_;
  }
  double SelfSeconds(const std::string& layer) const;

 private:
  struct Frame {
    const char* layer;
    SteadyTime start;
    double start_cpu;
    double child_seconds;
    double child_cpu_seconds;
  };
  bool measure_cpu_;
  std::vector<Frame> stack_;
  std::map<std::string, double> self_;
  std::map<std::string, double> self_cpu_;
};

/// Self time per span name over the recorded trace events of other
/// categories than "perfbench" (the spans compiled into the program), where
/// a span's self time is its duration minus that of its direct children.
/// Only threads that recorded a span named `thread_marker` count;
/// `thread_seconds` sums, over those threads, the time from their first
/// span's start to their last span's end. `ring_full` is set when some
/// thread holds as many events as its trace ring can, so older ones may
/// have been overwritten.
struct ProgramSpans {
  std::map<std::string, double> self_seconds;
  double thread_seconds = 0.0;
  bool ring_full = false;
};
ProgramSpans ProgramSpanSelfSeconds(
    const std::vector<alex::obs::TraceEvent>& events,
    std::string_view thread_marker);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
