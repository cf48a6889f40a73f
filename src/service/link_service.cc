#include "service/link_service.h"

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/result.h"
#include "feedback/ground_truth.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alex::svc {
namespace {

struct ServiceMetrics {
  obs::Counter& ops = obs::MetricsRegistry::Global().counter("svc.ops");
  obs::Counter& queries =
      obs::MetricsRegistry::Global().counter("svc.queries");
  obs::Counter& shed = obs::MetricsRegistry::Global().counter("svc.shed");
  obs::Counter& answered =
      obs::MetricsRegistry::Global().counter("svc.answered");
  obs::Counter& feedback_items =
      obs::MetricsRegistry::Global().counter("svc.feedback_items");
  obs::Counter& commits =
      obs::MetricsRegistry::Global().counter("svc.commits");
  obs::Counter& checkpoints =
      obs::MetricsRegistry::Global().counter("svc.checkpoints");
  obs::Histogram& query_seconds =
      obs::MetricsRegistry::Global().histogram("svc.query_seconds");
  obs::Gauge& in_flight =
      obs::MetricsRegistry::Global().gauge("svc.in_flight");

  static ServiceMetrics& Get() {
    static ServiceMetrics* metrics = new ServiceMetrics();
    return *metrics;
  }
};

LatencySummary SummarizeLatencies(std::vector<double> samples) {
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double s : samples) sum += s;
  out.mean_seconds = sum / static_cast<double>(samples.size());
  auto at_quantile = [&](double q) {
    const size_t idx = std::min(
        samples.size() - 1,
        static_cast<size_t>(q * static_cast<double>(samples.size())));
    return samples[idx];
  };
  out.p50_seconds = at_quantile(0.50);
  out.p99_seconds = at_quantile(0.99);
  out.max_seconds = samples.back();
  return out;
}

}  // namespace

LinkService::LinkService(datagen::GeneratedPair* pair,
                         core::PartitionedAlex* alex,
                         const core::AlexConfig& alex_config,
                         ServiceConfig config)
    : pair_(pair),
      alex_(alex),
      config_(std::move(config)),
      fingerprint_(core::ckpt::ConfigFingerprint(alex_config)),
      links_(simulation::LinksFromPairs(*pair, alex->CandidateVector())),
      left_base_(&pair->left),
      right_base_(&pair->right),
      admission_(config_.max_in_flight > 0
                     ? config_.max_in_flight
                     : 2 * std::max<size_t>(1, config_.num_clients)) {
  // Pre-build every lazily-constructed index the query and feedback paths
  // touch, so concurrent clients only ever read them.
  pair_->left.store().EnsureIndexes();
  pair_->right.store().EnsureIndexes();
  pair_->left.BuildEntityIndex();
  pair_->right.BuildEntityIndex();

  if (config_.use_probe_cache) {
    // No epoch source: after sameAs expansion against the snapshot, every
    // probe is a concrete pattern over an immutable dataset, so a link
    // commit cannot make a cached probe result stale.
    left_cached_ = std::make_unique<fed::CachingEndpoint>(&left_base_);
    right_cached_ = std::make_unique<fed::CachingEndpoint>(&right_base_);
  }

  workload_ = simulation::MakeFederatedWorkload(
      *pair_, std::max<size_t>(1, config_.workload_queries),
      config_.seed ^ 0x9e3779b97f4a7c15ULL);

  clock_ = config_.deterministic ? static_cast<Clock*>(&sim_clock_)
                                 : static_cast<Clock*>(&steady_clock_);

  if (!config_.checkpoint_dir.empty()) {
    ckpt_ = std::make_unique<core::ckpt::CheckpointManager>(
        config_.checkpoint_dir, std::max<size_t>(1, config_.checkpoint_keep));
  }
}

const fed::QueryEndpoint* LinkService::left_stack() const {
  return left_cached_ ? static_cast<const fed::QueryEndpoint*>(
                            left_cached_.get())
                      : &left_base_;
}

const fed::QueryEndpoint* LinkService::right_stack() const {
  return right_cached_ ? static_cast<const fed::QueryEndpoint*>(
                             right_cached_.get())
                       : &right_base_;
}

void LinkService::RunOneOp(Session* s) {
  ServiceMetrics& metrics = ServiceMetrics::Get();
  ++s->ops;
  metrics.ops.Add(1);

  const size_t qi =
      static_cast<size_t>(s->rng.UniformInt(workload_.queries.size()));

  if (!admission_.TryEnter()) {
    ++s->shed;
    metrics.shed.Add(1);
    return;
  }
  metrics.in_flight.Set(static_cast<int64_t>(admission_.in_flight()));
  metrics.in_flight.UpdateMax(static_cast<int64_t>(admission_.in_flight()));

  const double start = clock_->NowSeconds();
  Result<fed::FederatedResult> result = [&]() -> Result<fed::FederatedResult> {
    auto plan = plan_cache_.GetOrCompile(workload_.queries[qi]);
    if (!plan.ok()) return plan.status();
    // The snapshot pins this query's view of the link set: a commit landing
    // mid-query publishes a NEW index while this shared_ptr keeps the old
    // one alive, so the query sees one consistent epoch end to end. It is
    // dropped as soon as the query returns (rows own their terms and
    // links), so feedback judging and a commit run by this client do not
    // pin the buffer that commit wants to recycle.
    std::shared_ptr<const fed::LinkIndex> snapshot = links_.Acquire();
    fed::FederatedEngine engine(left_stack(), right_stack(), snapshot.get());
    return engine.Execute(**plan);
  }();
  const double latency = clock_->NowSeconds() - start;
  admission_.Exit();

  ++s->queries;
  metrics.queries.Add(1);
  s->latencies_seconds.push_back(latency);
  metrics.query_seconds.Observe(latency);

  if (!result.ok()) {
    ++s->failed;
    return;
  }
  if (result->degraded) ++s->degraded;
  s->rows += result->NumRows();
  if (result->NumRows() == 0) return;
  ++s->answered;
  metrics.answered.Add(1);

  if (config_.feedback_fraction <= 0.0 ||
      !s->rng.Bernoulli(config_.feedback_fraction)) {
    return;
  }

  // Judge every DISTINCT link this answer crossed (a row's provenance names
  // the links to praise or blame, paper Section 3.2).
  std::unordered_set<feedback::PairKey> judged;
  std::vector<feedback::FeedbackItem> items;
  for (const fed::ProvenancedRow& row : result->rows) {
    for (const fed::SameAsLink& link : row.links_used) {
      auto l = pair_->left.FindEntityByIri(link.left_iri);
      auto r = pair_->right.FindEntityByIri(link.right_iri);
      if (!l || !r) continue;
      if (!judged.insert(feedback::PackPair(*l, *r)).second) continue;
      items.push_back(s->oracle->Judge(*l, *r));
    }
  }
  if (items.empty()) return;
  s->feedback_items += items.size();
  total_feedback_items_.fetch_add(items.size(), std::memory_order_relaxed);
  metrics.feedback_items.Add(items.size());

  bool batch_ready = false;
  {
    std::lock_guard<std::mutex> lock(feedback_mu_);
    pending_feedback_.insert(pending_feedback_.end(), items.begin(),
                             items.end());
    batch_ready = pending_feedback_.size() >= config_.feedback_batch;
  }
  if (batch_ready) MaybeCommit(/*force=*/false);
}

bool LinkService::MaybeCommit(bool force) {
  // One committer at a time; non-forced callers that lose the race just go
  // back to serving queries (on the still-current snapshot) — the winner
  // will drain their items too.
  std::unique_lock<std::mutex> commit_lock(commit_mu_, std::defer_lock);
  if (force) {
    commit_lock.lock();
  } else if (!commit_lock.try_lock()) {
    return false;
  }

  ServiceMetrics& metrics = ServiceMetrics::Get();
  const size_t batch_size = std::max<size_t>(1, config_.feedback_batch);
  bool committed_any = false;

  // Drain in batch-sized episodes rather than one megabatch: under load the
  // backlog grows while a commit is in flight, and folding it all into a
  // single episode would starve the policy of improvement steps (epsilon
  // decays per episode). Forced drains take the final partial batch too.
  while (true) {
    std::vector<feedback::FeedbackItem> batch;
    {
      std::lock_guard<std::mutex> lock(feedback_mu_);
      size_t take = 0;
      if (pending_feedback_.size() >= batch_size) {
        take = batch_size;
      } else if (force) {
        take = pending_feedback_.size();
      }
      if (take == 0) break;  // Drained (or another committer beat us to it).
      batch.assign(pending_feedback_.begin(), pending_feedback_.begin() + take);
      pending_feedback_.erase(pending_feedback_.begin(),
                              pending_feedback_.begin() + take);
    }

    ALEX_TRACE_SPAN("service", "LinkService::Commit");
    // Readers keep executing against the published snapshot through all of
    // this: feedback routing, policy improvement, and staging only touch the
    // engine and the versioned index's staging area. The new link set
    // becomes visible atomically at Commit().
    core::PartitionedAlex::EpisodeCommit episode =
        alex_->CommitFeedbackBatch(batch);
    for (feedback::PairKey key : episode.added) {
      links_.StageAdd(pair_->left.entity_iri(feedback::PairLeft(key)),
                      pair_->right.entity_iri(feedback::PairRight(key)));
    }
    for (feedback::PairKey key : episode.removed) {
      links_.StageRemove(pair_->left.entity_iri(feedback::PairLeft(key)),
                         pair_->right.entity_iri(feedback::PairRight(key)));
    }
    links_.Commit();

    committed_episodes_.fetch_add(1, std::memory_order_relaxed);
    total_links_added_.fetch_add(episode.added.size(),
                                 std::memory_order_relaxed);
    total_links_removed_.fetch_add(episode.removed.size(),
                                   std::memory_order_relaxed);
    metrics.commits.Add(1);
    committed_any = true;
    if (!force) break;  // Serve again; commit the next batch when it fills.
  }

  if (!committed_any) return false;
  MaybeCheckpoint();
  if (config_.hub != nullptr) config_.hub->MaybeSample();
  return true;
}

void LinkService::MaybeCheckpoint() {
  if (!ckpt_) return;
  const size_t every = std::max<size_t>(1, config_.checkpoint_every);
  if (committed_episodes_.load(std::memory_order_relaxed) % every != 0) {
    return;
  }
  const std::string blob = SerializeState();
  if (ckpt_->Write(blob).ok()) {
    ++checkpoints_written_;
    ServiceMetrics::Get().checkpoints.Add(1);
  }
}

std::string LinkService::SerializeState() const {
  BinaryWriter w;
  w.WriteU64(committed_episodes_.load(std::memory_order_relaxed));
  w.WriteU64(total_feedback_items_.load(std::memory_order_relaxed));
  w.WriteU64(total_links_added_.load(std::memory_order_relaxed));
  w.WriteU64(total_links_removed_.load(std::memory_order_relaxed));
  // Links first: restore parses them into a scratch index before touching
  // anything live (see RestoreState).
  BinaryWriter links_w;
  links_.SaveState(&links_w);
  w.WriteBytes(links_w.buffer());
  BinaryWriter alex_w;
  alex_->SaveState(&alex_w);
  w.WriteBytes(alex_w.buffer());
  return core::ckpt::WrapPayload(core::ckpt::PayloadKind::kService,
                                 fingerprint_, w.buffer());
}

Status LinkService::RestoreState(std::string_view blob) {
  uint32_t format_version = core::ckpt::kFormatVersion;
  ALEX_ASSIGN_OR_RETURN(
      std::string payload,
      core::ckpt::UnwrapPayload(blob, core::ckpt::PayloadKind::kService,
                                fingerprint_, &format_version));
  BinaryReader r(payload);
  uint64_t episodes = 0, feedback = 0, added = 0, removed = 0;
  ALEX_RETURN_NOT_OK(r.ReadU64(&episodes));
  ALEX_RETURN_NOT_OK(r.ReadU64(&feedback));
  ALEX_RETURN_NOT_OK(r.ReadU64(&added));
  ALEX_RETURN_NOT_OK(r.ReadU64(&removed));
  std::string_view links_bytes, alex_bytes;
  ALEX_RETURN_NOT_OK(r.ReadBytesView(&links_bytes));
  ALEX_RETURN_NOT_OK(r.ReadBytesView(&alex_bytes));

  // All-or-nothing: the link index parses into a scratch copy first, and
  // PartitionedAlex::LoadState is itself all-or-nothing across partitions,
  // so a corrupt blob leaves every piece of live state untouched.
  fed::LinkIndex loaded_links;
  BinaryReader links_r(links_bytes);
  ALEX_RETURN_NOT_OK(loaded_links.LoadState(&links_r));
  BinaryReader alex_r(alex_bytes);
  ALEX_RETURN_NOT_OK(alex_->LoadState(&alex_r, format_version));

  links_.Reset(std::move(loaded_links));
  committed_episodes_.store(static_cast<size_t>(episodes),
                            std::memory_order_relaxed);
  total_feedback_items_.store(static_cast<size_t>(feedback),
                              std::memory_order_relaxed);
  total_links_added_.store(static_cast<size_t>(added),
                           std::memory_order_relaxed);
  total_links_removed_.store(static_cast<size_t>(removed),
                             std::memory_order_relaxed);
  return Status::OK();
}

void LinkService::ClientLoop(Session* s) {
  for (size_t op = 0; op < config_.ops_per_client; ++op) {
    if (config_.think_seconds > 0.0) {
      clock_->SleepSeconds(config_.think_seconds);
    }
    RunOneOp(s);
    if (config_.hub != nullptr) config_.hub->MaybeSample();
  }
}

ServiceReport LinkService::Run() {
  ServiceReport report;
  report.clients = config_.num_clients;

  if (!config_.resume_from.empty()) {
    auto restore = [&]() -> Status {
      ALEX_ASSIGN_OR_RETURN(
          std::string path,
          core::ckpt::CheckpointManager::ResolveLatest(config_.resume_from));
      ALEX_ASSIGN_OR_RETURN(std::string blob,
                            core::ckpt::CheckpointManager::ReadBlob(path));
      return RestoreState(blob);
    }();
    if (!restore.ok()) report.resume_error = restore.ToString();
  }

  sessions_.clear();
  sessions_.resize(config_.num_clients);
  Rng root(config_.seed);
  for (size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = sessions_[i];
    s.id = i;
    s.rng = root.Fork();
    // Each client is its own simulated user: a private oracle stream keeps
    // feedback deterministic per client regardless of interleaving.
    s.oracle = std::make_unique<feedback::Oracle>(
        &pair_->truth, config_.oracle_error_rate, root.Fork().SaveState()[0]);
  }

  const double start = clock_->NowSeconds();
  if (config_.deterministic || config_.num_clients <= 1) {
    // Round-robin op interleaving on the calling thread: client order is
    // fixed, the SimClock advances only through think time, and two runs
    // with the same config produce identical reports and link sets.
    for (size_t op = 0; op < config_.ops_per_client; ++op) {
      for (Session& s : sessions_) {
        if (config_.think_seconds > 0.0) {
          clock_->SleepSeconds(config_.think_seconds);
        }
        RunOneOp(&s);
        if (config_.hub != nullptr) config_.hub->MaybeSample();
      }
    }
  } else {
    std::vector<std::thread> clients;
    clients.reserve(sessions_.size());
    for (Session& s : sessions_) {
      clients.emplace_back([this, &s] { ClientLoop(&s); });
    }
    for (std::thread& t : clients) t.join();
  }

  // Drain whatever feedback is still pending into one final commit, so the
  // report's quality numbers reflect every item the clients produced.
  MaybeCommit(/*force=*/true);
  if (ckpt_) {
    std::lock_guard<std::mutex> lock(commit_mu_);
    const std::string blob = SerializeState();
    if (ckpt_->Write(blob).ok()) {
      ++checkpoints_written_;
      ServiceMetrics::Get().checkpoints.Add(1);
    }
  }
  report.duration_seconds = clock_->NowSeconds() - start;

  std::vector<double> all_latencies;
  for (const Session& s : sessions_) {
    report.ops += s.ops;
    report.queries += s.queries;
    report.shed += s.shed;
    report.answered += s.answered;
    report.degraded += s.degraded;
    report.failed += s.failed;
    report.rows += s.rows;
    all_latencies.insert(all_latencies.end(), s.latencies_seconds.begin(),
                         s.latencies_seconds.end());
  }
  report.latency = SummarizeLatencies(std::move(all_latencies));
  // From the atomic, not the per-session sums: a resumed run restores this
  // counter from the checkpoint, and its sessions start at zero.
  report.feedback_items =
      total_feedback_items_.load(std::memory_order_relaxed);
  report.committed_episodes =
      committed_episodes_.load(std::memory_order_relaxed);
  report.epochs_published = links_.commit_sequence();
  report.links_added = total_links_added_.load(std::memory_order_relaxed);
  report.links_removed = total_links_removed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    report.checkpoints_written = checkpoints_written_;
  }
  report.quality = core::ComputeMetrics(alex_->Candidates(), pair_->truth);
  if (config_.hub != nullptr) config_.hub->ForceSample();
  return report;
}

}  // namespace alex::svc
