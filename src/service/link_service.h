#ifndef ALEX_SERVICE_LINK_SERVICE_H_
#define ALEX_SERVICE_LINK_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "federation/plan_cache.h"
#include "federation/endpoint.h"
#include "federation/probe_cache.h"
#include "federation/versioned_link_index.h"
#include "feedback/oracle.h"
#include "obs/telemetry_hub.h"
#include "simulation/query_workload.h"

namespace alex::svc {

/// Counting admission gate: at most `max_in_flight` queries execute at
/// once; excess arrivals are shed (rejected instantly and counted) instead
/// of queued, so a burst degrades to fast local rejections rather than an
/// unbounded latency tail. Lock-free — one fetch_add per admission.
class AdmissionController {
 public:
  explicit AdmissionController(size_t max_in_flight)
      : max_in_flight_(max_in_flight) {}

  /// True = admitted (caller MUST call Exit() when the query finishes);
  /// false = shed (counted; caller must NOT call Exit()).
  bool TryEnter() {
    if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >= max_in_flight_) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      shed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
  void Exit() { in_flight_.fetch_sub(1, std::memory_order_acq_rel); }

  size_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  size_t max_in_flight() const { return max_in_flight_; }

 private:
  const size_t max_in_flight_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<uint64_t> shed_{0};
};

/// Tuning of one LinkService run.
struct ServiceConfig {
  /// Closed-loop simulated clients. Concurrent mode runs one std::thread
  /// per client; deterministic mode interleaves them round-robin on the
  /// calling thread over a SimClock.
  size_t num_clients = 8;
  /// Operations each client issues before retiring (an op is one query
  /// attempt; shed ops count).
  size_t ops_per_client = 100;
  /// Client think time between ops, in clock seconds.
  double think_seconds = 0.0;
  /// Probability an answered query produces feedback on the links its rows
  /// crossed (the paper's query-driven feedback channel, Section 3.2).
  double feedback_fraction = 0.5;
  /// Pending feedback items that trigger an episode commit.
  size_t feedback_batch = 32;
  /// Admission bound on concurrently executing queries; 0 = 2x clients.
  size_t max_in_flight = 0;
  /// Single-threaded SimClock mode: bit-for-bit repeatable runs (tests,
  /// checkpoint equivalence). Concurrent mode uses a SteadyClock.
  bool deterministic = false;
  /// Oracle noise (Appendix C studies 10%).
  double oracle_error_rate = 0.0;
  uint64_t seed = 1;
  /// Distinct query texts sampled from the ground truth.
  size_t workload_queries = 64;
  /// Front both endpoints with a probe cache. It never flushes: probes run
  /// after sameAs expansion over immutable datasets, so a link commit
  /// cannot make an entry stale.
  bool use_probe_cache = true;
  /// Optional live telemetry; sampled between ops and at every commit.
  obs::TelemetryHub* hub = nullptr;

  /// Checkpointing: empty dir = off. `checkpoint_every` is in commits.
  std::string checkpoint_dir;
  size_t checkpoint_every = 1;
  size_t checkpoint_keep = 3;
  /// Checkpoint file or directory to resume from; empty = fresh start.
  std::string resume_from;
};

/// Latency accounting over the merged per-client samples (exact
/// quantiles — the service records every op, it does not sketch).
struct LatencySummary {
  size_t count = 0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Outcome of one LinkService::Run.
struct ServiceReport {
  size_t clients = 0;
  size_t ops = 0;         // All client operations, shed included.
  size_t queries = 0;     // Ops admitted and executed (= ops - shed).
  size_t shed = 0;
  size_t answered = 0;    // Queries with at least one row.
  size_t degraded = 0;
  size_t failed = 0;
  uint64_t rows = 0;
  size_t feedback_items = 0;
  size_t committed_episodes = 0;
  /// Monotone commit sequence of the versioned index (== epochs published).
  uint64_t epochs_published = 0;
  size_t links_added = 0;
  size_t links_removed = 0;
  LatencySummary latency;
  double duration_seconds = 0.0;
  /// Quality of the candidate set against ground truth after the run.
  core::LinkSetMetrics quality;
  size_t checkpoints_written = 0;
  /// Non-empty when --resume was requested but the checkpoint could not be
  /// used (the run then started fresh).
  std::string resume_error;
};

/// Long-running concurrent link service: N closed-loop clients share ONE
/// PartitionedAlex and one endpoint stack, issuing federated queries and
/// feeding provenance-driven feedback back into the RL loop.
///
/// Concurrency protocol (the tentpole design):
///   - Queries never touch the engine or a mutable link set. Each op
///     Acquire()s the current immutable LinkIndex snapshot from a
///     VersionedLinkIndex, runs a throwaway FederatedEngine over it (plans
///     come from one shared thread-safe PlanCache, so per-op engine
///     construction is pointer wiring, not re-planning), and drops the
///     snapshot as soon as the query returns, so the next commit can
///     recycle the retired buffer instead of copying the link set.
///   - Feedback enqueues under a mutex. When a batch accumulates, ONE
///     client becomes the committer (commit_mu_ try_lock; others keep
///     serving queries on the old snapshot): it drains the queue, routes
///     the batch through PartitionedAlex, ends the episode, stages the
///     exact candidate delta into the versioned index, and Commit()s —
///     publishing a new epoch atomically. Every step costs O(delta), not
///     O(links). The probe caches depend on endpoint data only and are
///     never flushed by a commit.
///   - Admission control bounds in-flight queries; overflow is shed and
///     counted (svc.shed) rather than queued.
///
/// Metrics: svc.ops, svc.queries, svc.shed, svc.answered, svc.feedback_items,
/// svc.commits, svc.checkpoints, the svc.query_seconds histogram, and the
/// svc.in_flight gauge. Wire a TelemetryHub with SLOs on svc.query_seconds
/// for p50/p99 tracking.
class LinkService {
 public:
  /// `pair`, `alex`, and everything referenced by `config` are borrowed and
  /// must outlive the service. `alex` must be Build()-initialized and its
  /// candidate set seeded; the service's link index starts from that
  /// candidate set. `alex_config` must be the config `alex` was built with
  /// (its fingerprint gates checkpoint resume).
  LinkService(datagen::GeneratedPair* pair, core::PartitionedAlex* alex,
              const core::AlexConfig& alex_config, ServiceConfig config);

  /// Executes the full closed-loop run. Call at most once per instance.
  ServiceReport Run();

  /// Read access to the versioned link set (tests; post-run inspection).
  const fed::VersionedLinkIndex& links() const { return links_; }
  const AdmissionController& admission() const { return admission_; }

  /// Serializes the full service state (committed episodes + link index +
  /// every partition engine) as a framed kService checkpoint blob.
  /// Callers must ensure no commit is concurrently mutating state.
  std::string SerializeState() const;
  /// All-or-nothing restore of a SerializeState() blob: nothing is touched
  /// until the whole payload parsed and the engine snapshot applied.
  Status RestoreState(std::string_view blob);

 private:
  /// Per-client state. Each client owns its Rng and Oracle (forked from the
  /// service seed) and its latency samples, so clients never contend on a
  /// shared random stream and merge is trivial.
  struct Session {
    size_t id = 0;
    Rng rng{0};
    std::unique_ptr<feedback::Oracle> oracle;
    std::vector<double> latencies_seconds;
    size_t ops = 0;
    size_t queries = 0;
    size_t shed = 0;
    size_t answered = 0;
    size_t degraded = 0;
    size_t failed = 0;
    uint64_t rows = 0;
    size_t feedback_items = 0;
  };

  void RunOneOp(Session* s);
  void ClientLoop(Session* s);
  /// Drains pending feedback into one episode commit when a full batch is
  /// waiting (or `force`, for the end-of-run flush). Returns true when a
  /// commit happened.
  bool MaybeCommit(bool force);
  void MaybeCheckpoint();
  const fed::QueryEndpoint* left_stack() const;
  const fed::QueryEndpoint* right_stack() const;

  datagen::GeneratedPair* pair_;
  core::PartitionedAlex* alex_;
  ServiceConfig config_;
  uint64_t fingerprint_ = 0;

  fed::VersionedLinkIndex links_;
  fed::Endpoint left_base_;
  fed::Endpoint right_base_;
  std::unique_ptr<fed::CachingEndpoint> left_cached_;
  std::unique_ptr<fed::CachingEndpoint> right_cached_;
  mutable fed::PlanCache plan_cache_;
  simulation::FederatedWorkload workload_;

  SteadyClock steady_clock_;
  SimClock sim_clock_;
  Clock* clock_ = nullptr;

  AdmissionController admission_;

  std::mutex feedback_mu_;
  std::vector<feedback::FeedbackItem> pending_feedback_;
  /// Serializes episode commits (and checkpoint writes); never held while
  /// serving a query.
  std::mutex commit_mu_;
  std::atomic<size_t> committed_episodes_{0};
  std::atomic<size_t> total_links_added_{0};
  std::atomic<size_t> total_links_removed_{0};
  std::atomic<size_t> total_feedback_items_{0};
  size_t checkpoints_written_ = 0;  // Guarded by commit_mu_.
  std::unique_ptr<core::ckpt::CheckpointManager> ckpt_;

  std::vector<Session> sessions_;
};

}  // namespace alex::svc

#endif  // ALEX_SERVICE_LINK_SERVICE_H_
