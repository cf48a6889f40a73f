#include "sparql/evaluator.h"

#include "similarity/value.h"
#include "sparql/parser.h"
#include "sparql/plan.h"

namespace alex::sparql {
namespace {

using rdf::Term;

/// One triple source as the plan matcher's pattern source.
class StoreSource final : public PatternSource {
 public:
  StoreSource(const rdf::Dictionary& dict, const rdf::TripleSource& store)
      : dict_(dict), store_(store) {}

  bool Match(const CompiledQuery::Pattern& /*pattern*/,
             const Term* const terms[3], const MatchFn& fn) override {
    return MatchTriples(dict_, store_, terms, fn);
  }

 private:
  const rdf::Dictionary& dict_;
  const rdf::TripleSource& store_;
};

}  // namespace

bool CompareTerms(const Term& lhs, CompareOp op, const Term& rhs) {
  const sim::TypedValue a = sim::ParseValue(lhs);
  const sim::TypedValue b = sim::ParseValue(rhs);
  int cmp = 0;
  if (a.is_numeric() && b.is_numeric()) {
    cmp = (a.real < b.real) ? -1 : (a.real > b.real ? 1 : 0);
  } else if (a.kind == sim::ValueKind::kDate &&
             b.kind == sim::ValueKind::kDate) {
    cmp = (a.date_days < b.date_days) ? -1
                                      : (a.date_days > b.date_days ? 1 : 0);
  } else {
    cmp = a.text.compare(b.text);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

Result<QueryResult> Evaluate(const SelectQuery& query,
                             const rdf::Dictionary& dict,
                             const rdf::TripleSource& store) {
  ALEX_ASSIGN_OR_RETURN(CompiledQuery plan, CompiledQuery::Compile(query));
  StoreSource source(dict, store);
  QueryResult result;
  result.variables = plan.variables();
  result.rows = Enumerate(plan, &source);
  ALEX_RETURN_NOT_OK(SortAndLimit(
      plan, &result.rows,
      [](const std::vector<Term>& row) -> const std::vector<Term>& {
        return row;
      }));
  return result;
}

Result<QueryResult> Evaluate(const SelectQuery& query,
                             const rdf::Dataset& dataset) {
  return Evaluate(query, dataset.dict(), dataset.source());
}

Result<QueryResult> EvaluateQuery(std::string_view query_text,
                                  const rdf::Dataset& dataset) {
  ALEX_ASSIGN_OR_RETURN(SelectQuery query, ParseQuery(query_text));
  return Evaluate(query, dataset);
}

Result<bool> Ask(const SelectQuery& query, const rdf::Dataset& dataset) {
  SelectQuery existential = query;
  existential.is_ask = false;
  existential.projection.clear();
  existential.order_by.reset();
  existential.limit = 1;
  ALEX_ASSIGN_OR_RETURN(QueryResult result, Evaluate(existential, dataset));
  return result.NumRows() > 0;
}

Result<bool> AskQuery(std::string_view query_text,
                      const rdf::Dataset& dataset) {
  ALEX_ASSIGN_OR_RETURN(SelectQuery query, ParseQuery(query_text));
  return Ask(query, dataset);
}

}  // namespace alex::sparql
