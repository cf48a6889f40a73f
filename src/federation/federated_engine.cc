#include "federation/federated_engine.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/trace.h"

namespace alex::fed {
namespace {

using rdf::Term;
using sparql::SelectQuery;

/// The federation as the plan matcher's pattern source. Each pattern runs
/// against every endpoint that can answer it (left first). A bound subject
/// or object IRI is probed as itself and then as each of its sameAs
/// co-referents, in link insertion order, through the LinkIndex id view;
/// crossed links are kept as id pairs on a stack and materialized to
/// strings only per emitted row. The probe sequence is a pure function of
/// the plan, the data and the links, so fault-injection draws are
/// reproducible for a fixed seed. A failed probe is recorded and skipped;
/// past the query deadline enumeration stops.
class FederatedSource final : public sparql::PatternSource {
 public:
  FederatedSource(const QueryEndpoint* left, const QueryEndpoint* right,
                  const LinkIndex* links, const CompiledQuery& plan,
                  const Clock* clock, double deadline_seconds)
      : left_(left), right_(right), links_(links), plan_(plan),
        clock_(clock), scratch_(plan.patterns().size()) {
    if (clock_ != nullptr && deadline_seconds < kNoTimeout) {
      opts_.deadline_seconds = clock_->NowSeconds() + deadline_seconds;
    }
  }

  bool Match(const CompiledQuery::Pattern& pattern, const Term* const terms[3],
             const sparql::MatchFn& fn) override;

  void OnRow() override {
    std::vector<SameAsLink>& used = row_links_.emplace_back();
    used.reserve(links_stack_.size());
    for (const auto& [lid, rid] : links_stack_) {
      used.push_back(SameAsLink{links_->IriOf(lid), links_->IriOf(rid)});
    }
  }

  /// Enumerates the plan and pairs each row with its link provenance.
  Result<FederatedResult> Run();

 private:
  /// A candidate substitution for one pattern component. `link_left` is
  /// kInvalidIriId when no sameAs link was crossed.
  struct Subst {
    const Term* term = nullptr;
    LinkIndex::IriId link_left = LinkIndex::kInvalidIriId;
    LinkIndex::IriId link_right = LinkIndex::kInvalidIriId;
  };

  void ExpandForEndpoint(const Term& term, const QueryEndpoint* target,
                         std::vector<Subst>* out) const;

  bool MatchAtEndpoint(size_t pi, const Term* const terms[3],
                       const QueryEndpoint* target, const sparql::MatchFn& fn);

  void RecordProbeFailure(const QueryEndpoint* target, const Status& status);

  bool DeadlineExpired() const {
    return clock_ != nullptr &&
           clock_->NowSeconds() >= opts_.deadline_seconds;
  }

  const QueryEndpoint* left_;
  const QueryEndpoint* right_;
  const LinkIndex* links_;
  const CompiledQuery& plan_;
  const Clock* clock_;
  CallOptions opts_;

  /// sameAs links crossed on the current enumeration path, as id pairs.
  std::vector<std::pair<LinkIndex::IriId, LinkIndex::IriId>> links_stack_;
  /// Per-pattern substitution scratch, reused across the enumeration so the
  /// inner loops do not allocate.
  std::vector<std::array<std::vector<Subst>, 3>> scratch_;
  /// Links used by each emitted row, in emission order.
  std::vector<std::vector<SameAsLink>> row_links_;
  std::vector<EndpointError> errors_;
  bool stop_ = false;
};

void FederatedSource::ExpandForEndpoint(const Term& term,
                                        const QueryEndpoint* target,
                                        std::vector<Subst>* out) const {
  out->clear();
  out->push_back(Subst{&term});
  if (!term.is_iri()) return;
  const LinkIndex::IriId id = links_->IdOf(term.value);
  if (id == LinkIndex::kInvalidIriId) return;
  if (target == right_) {
    for (LinkIndex::IriId rid : links_->RightIdsFor(id)) {
      out->push_back(Subst{&links_->TermOf(rid), id, rid});
    }
  } else {
    for (LinkIndex::IriId lid : links_->LeftIdsFor(id)) {
      out->push_back(Subst{&links_->TermOf(lid), lid, id});
    }
  }
}

void FederatedSource::RecordProbeFailure(const QueryEndpoint* target,
                                         const Status& status) {
  const std::string& name = target->name();
  for (EndpointError& err : errors_) {
    if (err.endpoint == name) {
      ++err.failed_probes;
      if (DeadlineExpired()) stop_ = true;
      return;
    }
  }
  EndpointError err;
  err.endpoint = name;
  err.code = status.code();
  err.message = status.message();
  err.failed_probes = 1;
  errors_.push_back(std::move(err));
  if (DeadlineExpired()) stop_ = true;
}

bool FederatedSource::MatchAtEndpoint(size_t pi, const Term* const terms[3],
                                      const QueryEndpoint* target,
                                      const sparql::MatchFn& fn) {
  // Per bound component: the term and its sameAs substitutions. Predicates
  // are never sameAs-expanded.
  std::array<std::vector<Subst>, 3>& subs = scratch_[pi];
  size_t counts[3];
  for (int i = 0; i < 3; ++i) {
    if (terms[i] == nullptr) {
      counts[i] = 1;
      continue;
    }
    if (i == 1) {
      subs[i].clear();
      subs[i].push_back(Subst{terms[i]});
    } else {
      ExpandForEndpoint(*terms[i], target, &subs[i]);
    }
    counts[i] = subs[i].size();
  }

  for (size_t a = 0; a < counts[0]; ++a) {
    for (size_t b = 0; b < counts[1]; ++b) {
      for (size_t c = 0; c < counts[2]; ++c) {
        PatternProbe probe;
        const Term** probe_terms[3] = {&probe.subject, &probe.predicate,
                                       &probe.object};
        const size_t idx[3] = {a, b, c};
        size_t links_added = 0;
        for (int i = 0; i < 3; ++i) {
          if (terms[i] == nullptr) continue;
          const Subst& sub = subs[i][idx[i]];
          *probe_terms[i] = sub.term;
          if (sub.link_left != LinkIndex::kInvalidIriId) {
            links_stack_.emplace_back(sub.link_left, sub.link_right);
            ++links_added;
          }
        }
        bool keep_going = true;
        // One span per issued probe. It covers the whole decorator stack
        // (cache -> retry -> breaker -> endpoint) and the recursive join
        // continuation inside the row callback, so deeper pattern_probe
        // spans nest under it, mirroring the enumeration tree.
        ALEX_TRACE_SPAN_VAR(probe_span, "federation", "pattern_probe");
        probe_span.AddArg("pattern", pi);
        probe_span.AddArg("endpoint", std::string_view(target->name()));
        if (obs::ActiveQueryStats* stats = obs::CurrentQueryStats()) {
          ++stats->probes;
        }
        const Status st = target->Probe(
            probe, opts_, [&](const Term* s, const Term* p, const Term* o) {
              keep_going = fn(s, p, o);
              return keep_going;
            });
        probe_span.AddArg("ok", st.ok());
        if (!st.ok()) RecordProbeFailure(target, st);
        for (size_t k = 0; k < links_added; ++k) links_stack_.pop_back();
        if (!keep_going || stop_) return false;
      }
    }
  }
  return true;
}

bool FederatedSource::Match(const CompiledQuery::Pattern& pattern,
                            const Term* const terms[3],
                            const sparql::MatchFn& fn) {
  if (stop_) return false;
  // Federated plans have only WHERE patterns, so this is the step index.
  const size_t pi = static_cast<size_t>(&pattern - plan_.patterns().data());
  const sparql::TriplePatternAst& tp = plan_.query().where[pattern.ast_index];
  for (const QueryEndpoint* target : {left_, right_}) {
    if (!target->CanAnswer(tp)) continue;
    if (!MatchAtEndpoint(pi, terms, target, fn)) return false;
  }
  return true;
}

Result<FederatedResult> FederatedSource::Run() {
  std::vector<std::vector<Term>> rows = sparql::Enumerate(plan_, this);
  FederatedResult result;
  result.variables = plan_.variables();
  result.rows.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    result.rows.push_back(
        ProvenancedRow{std::move(rows[i]), std::move(row_links_[i])});
  }
  result.errors = std::move(errors_);
  if (stop_) {
    EndpointError err;
    err.endpoint = "query";
    err.code = StatusCode::kDeadlineExceeded;
    err.message = "query deadline expired during enumeration";
    result.errors.push_back(std::move(err));
  }
  result.degraded = !result.errors.empty();
  ALEX_RETURN_NOT_OK(sparql::SortAndLimit(
      plan_, &result.rows,
      [](const ProvenancedRow& row) -> const std::vector<Term>& {
        return row.values;
      }));
  return result;
}

}  // namespace

FederatedEngine::FederatedEngine(const QueryEndpoint* left,
                                 const QueryEndpoint* right,
                                 const LinkIndex* links)
    : left_(left), right_(right), links_(links) {}

void FederatedEngine::SetQueryDeadline(const Clock* clock,
                                       double deadline_seconds) {
  clock_ = clock;
  deadline_seconds_ = deadline_seconds;
}

template <typename Fn>
Result<FederatedResult> FederatedEngine::Instrumented(Fn&& run) const {
  // Declared FIRST so it destructs LAST: whatever the spans and stats scope
  // below leave behind, the worker thread's ambient observability state is
  // restored before it returns to a pool — queries reusing the thread start
  // from a clean context instead of inheriting this query's trace id or a
  // dangling tally pointer.
  obs::ThreadStateGuard thread_state_guard;
  // Root of the query's causal tree: every probe, cache lookup, retry
  // attempt, and breaker decision below inherits this span's trace id
  // through the thread-local context.
  ALEX_TRACE_ROOT_SPAN_VAR(query_span, "federation",
                           "FederatedEngine::Execute");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& queries = registry.counter("fed.queries");
  static obs::Counter& rows = registry.counter("fed.rows");
  static obs::Counter& links_crossed = registry.counter("fed.links_crossed");
  static obs::Counter& degraded_queries =
      registry.counter("fed.degraded_queries");
  static obs::Counter& endpoint_errors =
      registry.counter("fed.endpoint_errors");
  static obs::Histogram& query_seconds =
      registry.histogram("fed.query_seconds");

  queries.Add(1);
  obs::ActiveQueryStats active;
  obs::QueryStatsScope stats_scope(&active);
  // Latency follows the engine's injected clock when present (SimClock
  // scenarios then report virtual latency — backoff and injected delays —
  // deterministically); wall time otherwise.
  const double start_seconds = clock_ != nullptr
                                   ? clock_->NowSeconds()
                                   : std::chrono::duration<double>(
                                         std::chrono::steady_clock::now()
                                             .time_since_epoch())
                                         .count();
  Result<FederatedResult> result = run();
  const double end_seconds = clock_ != nullptr
                                 ? clock_->NowSeconds()
                                 : std::chrono::duration<double>(
                                       std::chrono::steady_clock::now()
                                           .time_since_epoch())
                                       .count();
  const double latency_seconds = std::max(0.0, end_seconds - start_seconds);
  query_seconds.Observe(latency_seconds);

  obs::QueryStats record;
  record.trace_id = query_span.trace_id();
  record.latency_seconds = latency_seconds;
  record.probes = active.probes;
  record.probe_cache_hits = active.probe_cache_hits;
  record.probe_cache_misses = active.probe_cache_misses;
  record.retries = active.retries;
  record.breaker_rejections = active.breaker_rejections;
  record.block_cache_hits = active.block_cache_hits;
  record.block_cache_misses = active.block_cache_misses;
  record.failed = !result.ok();

  if (result.ok()) {
    rows.Add(result->rows.size());
    size_t crossed = 0;
    for (const ProvenancedRow& row : result->rows) {
      crossed += row.links_used.size();
    }
    links_crossed.Add(crossed);
    if (result->degraded) degraded_queries.Add(1);
    size_t failed = 0;
    for (const EndpointError& err : result->errors) {
      failed += err.failed_probes;
    }
    endpoint_errors.Add(failed);
    record.rows = result->rows.size();
    record.degraded = result->degraded;
  }
  obs::QueryLog::Global().Record(record);

  query_span.AddArg("probes", active.probes);
  query_span.AddArg("rows", record.rows);
  query_span.AddArg("retries", active.retries);
  query_span.AddArg("cache_hits", active.probe_cache_hits);
  query_span.AddArg("degraded", record.degraded);
  query_span.AddArg("ok", result.ok());
  return result;
}

Result<FederatedResult> FederatedEngine::Execute(
    const SelectQuery& query) const {
  // Compile inside the instrumented scope so invalid queries count against
  // fed.queries.
  return Instrumented([&]() -> Result<FederatedResult> {
    ALEX_ASSIGN_OR_RETURN(CompiledQuery plan, CompileFederated(query));
    return FederatedSource(left_, right_, links_, plan, clock_,
                           deadline_seconds_)
        .Run();
  });
}

Result<FederatedResult> FederatedEngine::Execute(
    const CompiledQuery& plan) const {
  return Instrumented([&]() -> Result<FederatedResult> {
    ALEX_RETURN_NOT_OK(CheckFederatedSubset(plan.query()));
    return FederatedSource(left_, right_, links_, plan, clock_,
                           deadline_seconds_)
        .Run();
  });
}

Result<FederatedResult> FederatedEngine::ExecuteText(
    std::string_view query_text) const {
  Result<std::shared_ptr<const CompiledQuery>> plan =
      plan_cache_.GetOrCompile(query_text);
  if (!plan.ok()) return plan.status();
  return Execute(**plan);
}

}  // namespace alex::fed
