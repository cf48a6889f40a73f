#include "sparql/plan.h"

#include <cmath>
#include <cstring>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "similarity/value.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"

namespace alex::sparql {
namespace {

using rdf::Term;
using Pattern = CompiledQuery::Pattern;
using FiltersBySlot = CompiledQuery::FiltersBySlot;
using SlotMap = std::unordered_map<std::string, int32_t>;

/// Appends `filters` to their slots' lists. Filters on variables not
/// mentioned anywhere never see their variable bound, so they are dropped.
void AddFilters(const std::vector<FilterAst>& filters, const SlotMap& slot_of,
                FiltersBySlot* by_slot) {
  for (const FilterAst& f : filters) {
    auto it = slot_of.find(f.var.name);
    if (it != slot_of.end()) (*by_slot)[it->second].push_back(f);
  }
}

/// Greedy join order: repeatedly takes the pattern with the most bound
/// components (constants or slots set in `bound`); the first wins ties.
std::vector<Pattern> OrderPatterns(const std::vector<Pattern>& patterns,
                                   std::vector<bool> bound) {
  auto score = [&bound](const Pattern& p) {
    int s = 0;
    for (const CompiledQuery::Component& c : p.comp) {
      if (!c.is_variable() || bound[c.slot]) ++s;
    }
    return s;
  };
  std::vector<Pattern> remaining = patterns;
  std::vector<Pattern> ordered;
  ordered.reserve(patterns.size());
  while (!remaining.empty()) {
    size_t best = 0;
    int best_score = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const int s = score(remaining[i]);
      if (s > best_score) {
        best_score = s;
        best = i;
      }
    }
    ordered.push_back(remaining[best]);
    remaining.erase(remaining.begin() + best);
    for (const CompiledQuery::Component& c : ordered.back().comp) {
      if (c.is_variable()) bound[c.slot] = true;
    }
  }
  return ordered;
}

/// The slot-frame matcher behind Enumerate.
class Matcher {
 public:
  Matcher(const CompiledQuery& plan, PatternSource* source)
      : plan_(plan), source_(source), slots_(plan.num_slots(), nullptr) {}

  std::vector<std::vector<Term>> Run();

 private:
  /// Matches list[pi..], then runs the OPTIONAL blocks from `block` on.
  /// Sets `*matched` when the list matched completely at least once.
  bool MatchFrom(const std::vector<Pattern>& list,
                 const FiltersBySlot& filters, size_t pi, size_t block,
                 bool* matched);

  /// Left-joins OPTIONAL blocks [block..] onto the current row, then emits.
  bool Extend(size_t block);

  bool Emit();

  const CompiledQuery& plan_;
  PatternSource* source_;
  /// Current binding of each slot (nullptr = unbound). Pointees are owned
  /// by the plan's constant pool or the source (valid for the duration of
  /// the match callback that bound them).
  std::vector<const Term*> slots_;
  std::vector<std::vector<Term>> rows_;
  rdf::Dictionary row_dict_;  // Interns emitted terms for DISTINCT keys.
  std::unordered_set<std::string> distinct_seen_;
  /// COUNT groups: serialized group term -> (term, count).
  std::map<std::string, std::pair<Term, uint64_t>> groups_;
};

bool Matcher::MatchFrom(const std::vector<Pattern>& list,
                        const FiltersBySlot& filters, size_t pi, size_t block,
                        bool* matched) {
  if (pi == list.size()) {
    *matched = true;
    return Extend(block);
  }
  const Pattern& pattern = list[pi];
  const Term* terms[3];
  int32_t to_bind[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) {
    const CompiledQuery::Component& comp = pattern.comp[i];
    if (!comp.is_variable()) {
      terms[i] = &plan_.constant(comp.constant);
    } else {
      terms[i] = slots_[comp.slot];
      if (terms[i] == nullptr) to_bind[i] = comp.slot;
    }
  }
  return source_->Match(
      pattern, terms, [&](const Term* s, const Term* p, const Term* o) {
        const Term* values[3] = {s, p, o};
        int32_t bound_here[3];
        int num_bound = 0;
        bool consistent = true;
        for (int i = 0; i < 3 && consistent; ++i) {
          const int32_t slot = to_bind[i];
          if (slot < 0) continue;
          if (slots_[slot] != nullptr) {
            // Repeated variable bound earlier in this same pattern.
            consistent = (*slots_[slot] == *values[i]);
            continue;
          }
          slots_[slot] = values[i];
          bound_here[num_bound++] = slot;
          for (const FilterAst& f : filters[slot]) {
            if (!CompareTerms(*values[i], f.op, f.value)) {
              consistent = false;
              break;
            }
          }
        }
        const bool keep_going =
            !consistent || MatchFrom(list, filters, pi + 1, block, matched);
        for (int k = 0; k < num_bound; ++k) slots_[bound_here[k]] = nullptr;
        return keep_going;
      });
}

bool Matcher::Extend(size_t block) {
  if (block == plan_.optionals().size()) return Emit();
  const CompiledQuery::OptionalBlock& optional = plan_.optionals()[block];
  std::vector<bool> bound(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) bound[i] = slots_[i] != nullptr;
  const std::vector<Pattern> ordered =
      OrderPatterns(optional.patterns, std::move(bound));
  bool matched = false;
  if (!MatchFrom(ordered, optional.filters, 0, block + 1, &matched)) {
    return false;
  }
  // Left join: a row no extension matched goes on unextended.
  return matched || Extend(block + 1);
}

bool Matcher::Emit() {
  if (plan_.query().aggregate.has_value()) {
    const AggregateSpec& agg = *plan_.query().aggregate;
    const std::vector<std::string>& names = plan_.slot_names();
    auto slot_of = [&](const std::string& name) {
      return slots_[std::find(names.begin(), names.end(), name) -
                    names.begin()];
    };
    Term group_term = Term::Literal("");
    std::string key;
    if (!agg.group_var.empty()) {
      if (const Term* t = slot_of(agg.group_var)) group_term = *t;
      key = group_term.ToNTriples();
    }
    auto& group =
        groups_.emplace(key, std::make_pair(group_term, 0)).first->second;
    if (agg.count_var.empty() || slot_of(agg.count_var) != nullptr) {
      ++group.second;
    }
    return true;
  }
  const std::vector<int32_t>& proj = plan_.projection_slots();
  if (plan_.distinct()) {
    std::string key;
    key.reserve(proj.size() * sizeof(rdf::TermId));
    for (int32_t slot : proj) {
      const Term* t = slot >= 0 ? slots_[slot] : nullptr;
      const rdf::TermId id =
          t != nullptr ? row_dict_.Intern(*t) : row_dict_.InternLiteral("");
      char bytes[sizeof(rdf::TermId)];
      std::memcpy(bytes, &id, sizeof(bytes));
      key.append(bytes, sizeof(bytes));
    }
    if (!distinct_seen_.insert(std::move(key)).second) return true;
  }
  std::vector<Term> row;
  row.reserve(proj.size());
  for (int32_t slot : proj) {
    const Term* t = slot >= 0 ? slots_[slot] : nullptr;
    row.push_back(t != nullptr ? *t : Term::Literal(""));
  }
  rows_.push_back(std::move(row));
  source_->OnRow();
  return !(plan_.limit().has_value() && !plan_.has_order_by() &&
           rows_.size() >= *plan_.limit());
}

std::vector<std::vector<Term>> Matcher::Run() {
  bool matched = false;
  if (plan_.union_branches().empty()) {
    MatchFrom(plan_.patterns(), plan_.filters(), 0, 0, &matched);
  } else {
    for (const std::vector<Pattern>& branch : plan_.union_branches()) {
      if (!MatchFrom(branch, plan_.filters(), 0, 0, &matched)) break;
    }
  }
  if (plan_.query().aggregate.has_value()) {
    const bool grouped = !plan_.query().aggregate->group_var.empty();
    if (!grouped) groups_.emplace("", std::make_pair(Term::Literal(""), 0));
    for (auto& [key, term_count] : groups_) {
      std::vector<Term> row;
      if (grouped) row.push_back(std::move(term_count.first));
      row.push_back(Term::TypedLiteral(std::to_string(term_count.second),
                                       std::string(rdf::kXsdInteger)));
      rows_.push_back(std::move(row));
    }
  }
  return std::move(rows_);
}

/// Rank of a value kind in ORDER BY: numeric, then date, then string.
int KindRank(const sim::TypedValue& v) {
  if (v.is_numeric()) return 0;
  return v.kind == sim::ValueKind::kDate ? 1 : 2;
}

}  // namespace

Result<CompiledQuery> CompiledQuery::Compile(const SelectQuery& query) {
  CompiledQuery plan;
  plan.query_ = query;
  const SelectQuery& q = plan.query_;

  plan.slot_names_ = q.MentionedVariables();
  SlotMap slot_of;
  for (size_t i = 0; i < plan.slot_names_.size(); ++i) {
    slot_of.emplace(plan.slot_names_[i], static_cast<int32_t>(i));
  }
  for (const std::string& v : q.projection) {
    // The aggregate alias is computed, not bound by a pattern.
    if (q.aggregate.has_value() && v == q.aggregate->alias) continue;
    if (!slot_of.count(v)) {
      return Status::InvalidArgument("projected variable ?" + v +
                                     " not mentioned in WHERE");
    }
  }
  if (q.aggregate.has_value()) {
    // ASK drops the projection, so the grouping variable is checked too.
    const std::pair<const char*, const std::string*> vars[] = {
        {"counted", &q.aggregate->count_var},
        {"grouping", &q.aggregate->group_var}};
    for (const auto& [kind, v] : vars) {
      if (!v->empty() && !slot_of.count(*v)) {
        return Status::InvalidArgument(std::string(kind) + " variable ?" + *v +
                                       " not mentioned in WHERE");
      }
    }
  }
  plan.variables_ = q.projection.empty() ? plan.slot_names_ : q.projection;
  for (const std::string& v : plan.variables_) {
    auto it = slot_of.find(v);
    plan.projection_slots_.push_back(it == slot_of.end() ? -1 : it->second);
  }

  // Resolves components to slots / constant-pool indices, in query order.
  auto resolve = [&](const std::vector<TriplePatternAst>& asts) {
    std::vector<Pattern> out;
    for (size_t wi = 0; wi < asts.size(); ++wi) {
      const TriplePatternAst& tp = asts[wi];
      Pattern pattern;
      pattern.ast_index = wi;
      const TermOrVar* comps[3] = {&tp.subject, &tp.predicate, &tp.object};
      for (int i = 0; i < 3; ++i) {
        if (IsVariable(*comps[i])) {
          pattern.comp[i].slot = slot_of.at(std::get<Variable>(*comps[i]).name);
        } else {
          pattern.comp[i].constant =
              static_cast<int32_t>(plan.constants_.size());
          plan.constants_.push_back(std::get<Term>(*comps[i]));
        }
      }
      out.push_back(pattern);
    }
    return out;
  };
  const std::vector<bool> none_bound(plan.slot_names_.size(), false);
  plan.patterns_ = OrderPatterns(resolve(q.where), none_bound);
  for (const auto& branch : q.union_branches) {
    plan.union_branches_.push_back(OrderPatterns(resolve(branch), none_bound));
  }

  plan.filters_by_slot_.resize(plan.slot_names_.size());
  AddFilters(q.filters, slot_of, &plan.filters_by_slot_);
  for (const sparql::OptionalBlock& block : q.optionals) {
    OptionalBlock compiled;
    compiled.patterns = resolve(block.patterns);
    compiled.filters = plan.filters_by_slot_;
    AddFilters(block.filters, slot_of, &compiled.filters);
    plan.optionals_.push_back(std::move(compiled));
  }

  if (q.order_by.has_value()) {
    const auto it = std::find(plan.variables_.begin(), plan.variables_.end(),
                              q.order_by->var.name);
    plan.order_col_ =
        it == plan.variables_.end()
            ? -1
            : static_cast<int32_t>(it - plan.variables_.begin());
  }
  return plan;
}

Result<CompiledQuery> CompiledQuery::CompileText(std::string_view query_text) {
  ALEX_ASSIGN_OR_RETURN(SelectQuery query, ParseQuery(query_text));
  return Compile(query);
}

bool MatchTriples(const rdf::Dictionary& dict, const rdf::TripleSource& store,
                  const Term* const terms[3], const MatchFn& fn) {
  rdf::TriplePattern pattern;
  rdf::TermId* ids[3] = {&pattern.subject, &pattern.predicate,
                         &pattern.object};
  for (int i = 0; i < 3; ++i) {
    if (terms[i] == nullptr) continue;
    auto id = dict.Lookup(*terms[i]);
    if (!id.has_value()) return true;  // Unknown term: no matches.
    *ids[i] = *id;
  }
  bool keep_going = true;
  store.ForEachMatch(pattern, [&](const rdf::Triple& t) {
    keep_going =
        fn(terms[0] ? nullptr : &dict.term(t.subject),
           terms[1] ? nullptr : &dict.term(t.predicate),
           terms[2] ? nullptr : &dict.term(t.object));
    return keep_going;
  });
  return keep_going;
}

std::vector<std::vector<Term>> Enumerate(const CompiledQuery& plan,
                                         PatternSource* source) {
  return Matcher(plan, source).Run();
}

bool OrderBefore(const Term& a, const Term& b) {
  const sim::TypedValue x = sim::ParseValue(a);
  const sim::TypedValue y = sim::ParseValue(b);
  const int kx = KindRank(x), ky = KindRank(y);
  if (kx != ky) return kx < ky;
  if (kx == 0) {
    // NaN sorts after every number, so the order stays total.
    const bool x_nan = std::isnan(x.real), y_nan = std::isnan(y.real);
    if (x_nan != y_nan) return y_nan;
    if (!x_nan && x.real != y.real) return x.real < y.real;
  }
  if (kx == 1 && x.date_days != y.date_days) return x.date_days < y.date_days;
  if (kx == 2 && x.text != y.text) return x.text < y.text;
  return a.value < b.value;
}

}  // namespace alex::sparql
