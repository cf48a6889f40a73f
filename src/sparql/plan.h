#ifndef ALEX_SPARQL_PLAN_H_
#define ALEX_SPARQL_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple_source.h"
#include "sparql/ast.h"

namespace alex::sparql {

/// A SELECT/ASK query compiled once and executable many times, over one
/// triple source (sparql::Evaluate) or across a federation
/// (fed::FederatedEngine).
///
/// Compilation does everything that depends only on the query text, so the
/// per-execution hot path never touches strings:
///  - validation (projected, counted and grouping variables mentioned),
///  - variable -> dense slot resolution: every variable becomes an index
///    into a flat slot array, so execution frames are `const Term*[slots]`,
///  - greedy boundness ordering of the WHERE patterns and of each UNION
///    branch (OPTIONAL blocks are ordered per row, by the same function),
///  - per-slot filter lists, so checking the filters of a just-bound
///    variable never scans every FILTER of the query,
///  - projection slots and the ORDER BY column.
///
/// A CompiledQuery is immutable after Compile and holds no source state, so
/// one plan is reusable across runs, engines and threads.
class CompiledQuery {
 public:
  /// One triple-pattern component: exactly one of `slot` (variable) or
  /// `constant` (index into constants()) is >= 0.
  struct Component {
    int32_t slot = -1;
    int32_t constant = -1;

    bool is_variable() const { return slot >= 0; }
  };

  /// One slot-resolved pattern. `ast_index` points back at the source
  /// AST pattern in its list (query().where, the UNION branch or the
  /// OPTIONAL block); federated source selection consumes it.
  struct Pattern {
    Component comp[3];  // subject, predicate, object
    size_t ast_index = 0;
  };

  /// Slot -> the filters to check when that slot binds, in query order.
  using FiltersBySlot = std::vector<std::vector<FilterAst>>;

  /// OPTIONAL { ... }: patterns in query order (ordered per row at run
  /// time) and the filters guarding the extension, the query's first.
  struct OptionalBlock {
    std::vector<Pattern> patterns;
    FiltersBySlot filters;
  };

  /// Compiles a parsed query. Fails with InvalidArgument when a projected
  /// (other than the COUNT alias), counted or grouping variable is not
  /// mentioned in WHERE. An
  /// ORDER BY variable missing from the result is *not* a compile error:
  /// execution reports it after enumeration (see SortAndLimit).
  static Result<CompiledQuery> Compile(const SelectQuery& query);

  /// Parses and compiles.
  static Result<CompiledQuery> CompileText(std::string_view query_text);

  /// The source query (owned copy; `Pattern::ast_index` indexes into it).
  const SelectQuery& query() const { return query_; }

  /// Result column names (projection, or all mentioned variables).
  const std::vector<std::string>& variables() const { return variables_; }

  /// Number of variable slots (== MentionedVariables().size()).
  size_t num_slots() const { return slot_names_.size(); }
  const std::vector<std::string>& slot_names() const { return slot_names_; }

  /// WHERE patterns in execution order (empty for a UNION query).
  const std::vector<Pattern>& patterns() const { return patterns_; }
  /// One pattern list per UNION branch, each in execution order.
  const std::vector<std::vector<Pattern>>& union_branches() const {
    return union_branches_;
  }
  const std::vector<OptionalBlock>& optionals() const { return optionals_; }

  /// Constant pool referenced by Component::constant.
  const rdf::Term& constant(int32_t index) const {
    return constants_[static_cast<size_t>(index)];
  }

  /// Filters of the base pattern, by slot.
  const FiltersBySlot& filters() const { return filters_by_slot_; }
  const std::vector<FilterAst>& filters_for_slot(size_t slot) const {
    return filters_by_slot_[slot];
  }

  /// Slot of each result column, or -1 for a column that can never bind
  /// (padded with an empty literal).
  const std::vector<int32_t>& projection_slots() const {
    return projection_slots_;
  }

  bool distinct() const { return query_.distinct; }
  const std::optional<size_t>& limit() const { return query_.limit; }

  bool has_order_by() const { return query_.order_by.has_value(); }
  /// False when ORDER BY names a variable outside the result; execution
  /// then fails after enumeration.
  bool order_by_valid() const { return order_col_ >= 0; }
  size_t order_col() const { return static_cast<size_t>(order_col_); }
  bool order_descending() const {
    return query_.order_by.has_value() && query_.order_by->descending;
  }

 private:
  CompiledQuery() = default;

  SelectQuery query_;
  std::vector<std::string> slot_names_;
  std::vector<std::string> variables_;
  std::vector<Pattern> patterns_;
  std::vector<std::vector<Pattern>> union_branches_;
  std::vector<OptionalBlock> optionals_;
  std::vector<rdf::Term> constants_;
  FiltersBySlot filters_by_slot_;
  std::vector<int32_t> projection_slots_;
  int32_t order_col_ = -1;
};

/// Receives one match of a pattern: the term of each component that was
/// unbound, nullptr for bound ones. Terms are valid only during the call.
/// Return false to stop enumeration.
using MatchFn = std::function<bool(const rdf::Term* s, const rdf::Term* p,
                                   const rdf::Term* o)>;

/// Streams every triple of `store` matching `terms` (nullptr = wildcard) to
/// `fn`. A bound term missing from `dict` matches nothing. Returns false if
/// `fn` stopped the scan.
bool MatchTriples(const rdf::Dictionary& dict, const rdf::TripleSource& store,
                  const rdf::Term* const terms[3], const MatchFn& fn);

/// Where the matcher finds triples: one triple source, or a federation
/// that routes each pattern to its endpoints and crosses sameAs links.
class PatternSource {
 public:
  /// Streams the matches of `pattern`, whose components resolve to `terms`
  /// under the current row (nullptr marks a slot to bind). Returns false
  /// when enumeration must stop: `fn` returned false, or the source gave
  /// up.
  virtual bool Match(const CompiledQuery::Pattern& pattern,
                     const rdf::Term* const terms[3], const MatchFn& fn) = 0;

  /// Called once per row Enumerate appends, in order, while the row's
  /// bindings are still in place.
  virtual void OnRow() {}

 protected:
  ~PatternSource() = default;
};

/// The slot-frame nested-loop join: runs `plan` over `source` and returns
/// the projected rows in enumeration order (one row per group for COUNT),
/// with DISTINCT applied. Filters run as their slot binds; OPTIONAL blocks
/// left-join each row, ordered for the slots it binds. Enumeration stops
/// at LIMIT unless ORDER BY or COUNT needs every solution; ordering and the
/// final cut are SortAndLimit's.
std::vector<std::vector<rdf::Term>> Enumerate(const CompiledQuery& plan,
                                              PatternSource* source);

/// ORDER BY's total order: by value kind (numeric, then date, then string),
/// then by value (IRIs by local name, as in FILTER), then by lexical form.
bool OrderBefore(const rdf::Term& a, const rdf::Term& b);

/// The ORDER BY / LIMIT post-pass: stable-sorts `rows` on the plan's ORDER
/// BY column (`values_of(row)` gives a row's terms), then cuts them to
/// LIMIT. Fails when ORDER BY names a variable outside the result.
template <typename Row, typename ValuesOf>
Status SortAndLimit(const CompiledQuery& plan, std::vector<Row>* rows,
                    ValuesOf values_of) {
  if (plan.has_order_by()) {
    if (!plan.order_by_valid()) {
      return Status::InvalidArgument("ORDER BY variable ?" +
                                     plan.query().order_by->var.name +
                                     " not in the result");
    }
    const size_t col = plan.order_col();
    const bool desc = plan.order_descending();
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const Row& a, const Row& b) {
                       const rdf::Term& x = values_of(a)[col];
                       const rdf::Term& y = values_of(b)[col];
                       return desc ? OrderBefore(y, x) : OrderBefore(x, y);
                     });
  }
  if (plan.limit().has_value() && rows->size() > *plan.limit()) {
    rows->resize(*plan.limit());
  }
  return Status::OK();
}

}  // namespace alex::sparql

#endif  // ALEX_SPARQL_PLAN_H_
