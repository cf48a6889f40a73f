#ifndef ALEX_FEDERATION_ENDPOINT_H_
#define ALEX_FEDERATION_ENDPOINT_H_

#include <string>
#include <unordered_set>

#include "common/result.h"
#include "common/retry.h"
#include "rdf/dataset.h"
#include "sparql/ast.h"
#include "sparql/evaluator.h"
#include "sparql/plan.h"

namespace alex::fed {

/// One concrete triple-pattern probe — the remote-call unit of federated
/// execution (one bound-join step at one endpoint). Bound components point
/// at terms owned by the caller (valid for the duration of the call);
/// nullptr marks a wildcard.
struct PatternProbe {
  const rdf::Term* subject = nullptr;
  const rdf::Term* predicate = nullptr;
  const rdf::Term* object = nullptr;
};

/// Per-call budgets, in (virtual) seconds. `timeout_seconds` is the
/// relative budget of a single attempt; `deadline_seconds` is an absolute
/// clock reading bounding the whole query (see Clock). Both default to
/// unbounded, which every layer treats as "no limit".
struct CallOptions {
  double timeout_seconds = kNoTimeout;
  double deadline_seconds = kNoTimeout;
};

/// Receives one match of a probe. Slots that were bound in the probe are
/// null (the caller already holds those terms); unbound slots point at the
/// endpoint's term for that component, valid only during the call. Return
/// false to stop enumeration early. The same callback the plan matcher
/// hands its pattern sources.
using ProbeRowFn = sparql::MatchFn;

/// A federation member as the engine sees it: source-selection metadata
/// plus a fallible, budgeted triple-pattern probe. The in-process Endpoint
/// below never fails; FaultInjectedEndpoint simulates unreliable remote
/// endpoints and ResilientEndpoint adds retry/backoff and circuit breaking
/// — all behind this interface, so the engine is oblivious to the stack.
class QueryEndpoint {
 public:
  virtual ~QueryEndpoint() = default;

  virtual const std::string& name() const = 0;

  /// True if the pattern could match here (constant predicate present, or
  /// variable predicate). Catalog metadata, not a remote call: source
  /// selection stays infallible even when probing is faulty.
  virtual bool CanAnswer(const sparql::TriplePatternAst& pattern) const = 0;

  /// Streams every match of `probe` through `fn`. Returns non-OK when the
  /// endpoint (or its simulated transport) fails; a probe mentioning terms
  /// unknown to this endpoint is OK with zero matches.
  virtual Status Probe(const PatternProbe& probe, const CallOptions& opts,
                       const ProbeRowFn& fn) const = 0;
};

/// Wraps one Dataset as a queryable federation member (the role a remote
/// SPARQL endpoint plays for FedX in the paper).
///
/// Source selection uses predicate membership, the same signal FedX obtains
/// with SPARQL ASK probes: a triple pattern is routed to an endpoint only if
/// the endpoint can possibly answer it.
class Endpoint final : public QueryEndpoint {
 public:
  /// Does not take ownership; `dataset` must outlive the endpoint.
  explicit Endpoint(const rdf::Dataset* dataset);

  const std::string& name() const override { return dataset_->name(); }
  const rdf::Dataset& dataset() const { return *dataset_; }

  /// True if any triple uses this predicate IRI (ASK-style probe).
  bool HasPredicate(const std::string& predicate_iri) const;

  bool CanAnswer(const sparql::TriplePatternAst& pattern) const override;

  /// In-process probe: dictionary lookups plus an index scan. Always OK;
  /// `opts` budgets are irrelevant at in-process speeds.
  Status Probe(const PatternProbe& probe, const CallOptions& opts,
               const ProbeRowFn& fn) const override;

  /// Runs a full SELECT query against this endpoint alone.
  Result<sparql::QueryResult> Select(const sparql::SelectQuery& query) const;

  /// SPARQL ASK against this endpoint alone: true if any solution exists.
  Result<bool> Ask(const sparql::SelectQuery& query) const;

 private:
  const rdf::Dataset* dataset_;
  std::unordered_set<std::string> predicates_;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_ENDPOINT_H_
