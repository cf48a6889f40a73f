#ifndef ALEX_FEDERATION_FEDERATED_ENGINE_H_
#define ALEX_FEDERATION_FEDERATED_ENGINE_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/retry.h"
#include "federation/plan_cache.h"
#include "federation/endpoint.h"
#include "federation/link_index.h"
#include "sparql/ast.h"

namespace alex::fed {

/// One federated answer row with link provenance: which owl:sameAs links
/// were used to produce it. Feedback on a row is feedback on those links
/// (paper Section 3.2) — this is the bridge between querying and ALEX.
struct ProvenancedRow {
  std::vector<rdf::Term> values;
  std::vector<SameAsLink> links_used;
};

/// Why part of a federated answer is missing: one entry per endpoint that
/// failed at least one probe (plus a synthetic "query" entry when the
/// per-query deadline expired).
struct EndpointError {
  std::string endpoint;
  StatusCode code = StatusCode::kUnavailable;
  std::string message;        // First error message seen.
  size_t failed_probes = 0;   // Probes this endpoint failed during the query.
};

/// Result of a federated query.
struct FederatedResult {
  std::vector<std::string> variables;
  std::vector<ProvenancedRow> rows;
  /// True when any probe failed or the query deadline expired. `rows` then
  /// holds the answers obtainable from the surviving endpoints — always a
  /// subset of the fault-free result, never fabricated — so callers (and
  /// the ALEX feedback loop) can keep working with what arrived.
  bool degraded = false;
  std::vector<EndpointError> errors;

  size_t NumRows() const { return rows.size(); }
};

/// Minimal federated query processor in the FedX mold (paper Section 3.2).
///
/// Execution: every query runs as a CompiledQuery plan through the same
/// slot-frame join loop as sparql::Evaluate (sparql/plan.h); ExecuteText
/// memoizes plans per query text. Only the pattern source differs: each
/// pattern is routed to every endpoint that can answer it (predicate-based
/// source selection), and when a bound join variable holds an entity IRI,
/// its owl:sameAs co-referents are substituted too, so answers can span
/// datasets; every link crossed this way is recorded in the row's
/// provenance. OPTIONAL, UNION and COUNT are rejected (CheckFederatedSubset).
///
/// Fault tolerance: endpoints are reached only through QueryEndpoint::Probe,
/// so faults, retries, and circuit breaking live in the endpoint stack (see
/// FaultInjectedEndpoint / ResilientEndpoint). A failed probe degrades the
/// query — the failing endpoint's contribution is skipped, the error is
/// recorded, rows from surviving endpoints still flow — instead of failing
/// it. With plain in-process Endpoints nothing can fail and results are
/// identical to the pre-fault-tolerance engine, bit for bit.
class FederatedEngine {
 public:
  /// Exactly two endpoints (the paper links dataset pairs); `links` maps
  /// entities of endpoints[0] to entities of endpoints[1]. Pointers are
  /// borrowed and must outlive the engine.
  FederatedEngine(const QueryEndpoint* left, const QueryEndpoint* right,
                  const LinkIndex* links);

  /// Enables a per-query deadline: Execute() stops enumerating (and marks
  /// the result degraded) once `clock` advances `deadline_seconds` past the
  /// query start. `clock` is borrowed; pass the same clock the endpoint
  /// stack uses so injected latency counts against the deadline.
  void SetQueryDeadline(const Clock* clock, double deadline_seconds);

  /// Compiles a parsed SELECT query and executes it across the federation.
  Result<FederatedResult> Execute(const sparql::SelectQuery& query) const;

  /// Executes a pre-compiled plan. The plan may be shared across engines and
  /// threads.
  Result<FederatedResult> Execute(const CompiledQuery& plan) const;

  /// Parses and executes, memoizing the plan per query text
  /// (fed.plan_cache_hits).
  Result<FederatedResult> ExecuteText(std::string_view query_text) const;

 private:
  template <typename Fn>
  Result<FederatedResult> Instrumented(Fn&& run) const;

  const QueryEndpoint* left_;
  const QueryEndpoint* right_;
  const LinkIndex* links_;
  const Clock* clock_ = nullptr;
  double deadline_seconds_ = kNoTimeout;
  mutable PlanCache plan_cache_;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_FEDERATED_ENGINE_H_
