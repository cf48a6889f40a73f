#include "layers.h"

#include <sys/resource.h>

#include <cstring>
#include <ctime>
#include <unordered_map>
#include <algorithm>
#include <cstdint>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMegabytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

LayerClock::Scope::Scope(LayerClock* clock, const char* layer)
    : clock_(clock), span_("perfbench", layer) {
  clock_->stack_.push_back(
      {layer, Now(), clock_->measure_cpu_ ? ProcessCpuSeconds() : 0.0, 0.0,
       0.0});
}

LayerClock::Scope::~Scope() {
  const Frame frame = clock_->stack_.back();
  clock_->stack_.pop_back();
  const double seconds = SecondsSince(frame.start);
  const double cpu_seconds =
      clock_->measure_cpu_ ? ProcessCpuSeconds() - frame.start_cpu : 0.0;
  clock_->self_[frame.layer] += seconds - frame.child_seconds;
  if (clock_->measure_cpu_) {
    clock_->self_cpu_[frame.layer] += cpu_seconds - frame.child_cpu_seconds;
  }
  if (!clock_->stack_.empty()) {
    clock_->stack_.back().child_seconds += seconds;
    clock_->stack_.back().child_cpu_seconds += cpu_seconds;
  }
}

double LayerClock::SelfSeconds(const std::string& layer) const {
  auto it = self_.find(layer);
  return it == self_.end() ? 0.0 : it->second;
}

ProgramSpans ProgramSpanSelfSeconds(
    const std::vector<alex::obs::TraceEvent>& events,
    std::string_view thread_marker) {
  std::unordered_map<uint64_t, size_t> by_span;
  // Per marked thread: earliest start and latest end, in microseconds.
  std::unordered_map<uint32_t, std::pair<uint64_t, uint64_t>> windows;
  std::vector<double> self(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    by_span[events[i].span_id] = i;
    self[i] = static_cast<double>(events[i].dur_micros) * 1e-6;
    if (thread_marker == events[i].name) {
      windows.emplace(events[i].tid, std::make_pair(UINT64_MAX, uint64_t{0}));
    }
  }
  for (const alex::obs::TraceEvent& e : events) {
    auto w = windows.find(e.tid);
    if (w != windows.end()) {
      w->second.first = std::min(w->second.first, e.ts_micros);
      w->second.second = std::max(w->second.second, e.ts_micros + e.dur_micros);
    }
    if (e.parent_span_id == 0) continue;
    auto it = by_span.find(e.parent_span_id);
    if (it != by_span.end()) {
      self[it->second] -= static_cast<double>(e.dur_micros) * 1e-6;
    }
  }
  ProgramSpans out;
  std::unordered_map<uint32_t, size_t> per_thread;
  for (const alex::obs::TraceEvent& e : events) {
    if (++per_thread[e.tid] >= alex::obs::TraceRecorder::kRingCapacity) {
      out.ring_full = true;
    }
  }
  for (const auto& [tid, window] : windows) {
    out.thread_seconds +=
        static_cast<double>(window.second - window.first) * 1e-6;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (std::strcmp(events[i].category, "perfbench") == 0 ||
        !windows.count(events[i].tid)) {
      continue;
    }
    out.self_seconds[events[i].name] += self[i];
  }
  return out;
}

}  // namespace perfbench
