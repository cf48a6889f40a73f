#include "federation/endpoint.h"

namespace alex::fed {

Endpoint::Endpoint(const rdf::Dataset* dataset) : dataset_(dataset) {
  for (rdf::TermId p : dataset_->source().DistinctPredicates()) {
    predicates_.insert(dataset_->dict().term(p).value);
  }
}

bool Endpoint::HasPredicate(const std::string& predicate_iri) const {
  return predicates_.count(predicate_iri) > 0;
}

bool Endpoint::CanAnswer(const sparql::TriplePatternAst& pattern) const {
  if (sparql::IsVariable(pattern.predicate)) return true;
  const rdf::Term& p = std::get<rdf::Term>(pattern.predicate);
  return p.is_iri() && HasPredicate(p.value);
}

Status Endpoint::Probe(const PatternProbe& probe, const CallOptions& /*opts*/,
                       const ProbeRowFn& fn) const {
  const rdf::Term* const terms[3] = {probe.subject, probe.predicate,
                                     probe.object};
  sparql::MatchTriples(dataset_->dict(), dataset_->source(), terms, fn);
  return Status::OK();
}

Result<sparql::QueryResult> Endpoint::Select(
    const sparql::SelectQuery& query) const {
  return sparql::Evaluate(query, *dataset_);
}

Result<bool> Endpoint::Ask(const sparql::SelectQuery& query) const {
  return sparql::Ask(query, *dataset_);
}

}  // namespace alex::fed
