// Property test: the optimized BGP evaluator (index-backed joins, greedy
// ordering, eager filters) must agree with a naive reference evaluator on
// randomly generated stores and queries. The reference comparison is over
// row multisets; row order is pinned separately by golden digests.
//
// Capture recipe for kOrderGoldens: per seed, the rolling FNV-64 over every
// trial's OrderedDigest() below. Recorded at commit ecf5f3d from the
// string-keyed evaluator that predates the shared compiled plan; that
// evaluator is gone, so the goldens can only be re-verified. On a mismatch
// the log names each trial's query shape with its own digest.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparql/evaluator.h"

namespace alex::sparql {
namespace {

using rdf::Term;

struct RandomWorld {
  rdf::Dataset ds{"w"};
  std::vector<Term> subjects;
  std::vector<Term> predicates;
  std::vector<Term> objects;
};

RandomWorld MakeWorld(Rng* rng) {
  RandomWorld w;
  for (int i = 0; i < 8; ++i) {
    w.subjects.push_back(Term::Iri("http://s/" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    w.predicates.push_back(Term::Iri("http://p/" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    w.objects.push_back(Term::Literal(std::to_string(i * 7)));
  }
  // Objects can also be subjects (graph edges).
  for (int i = 0; i < 3; ++i) w.objects.push_back(w.subjects[i]);

  const int n = 60 + static_cast<int>(rng->UniformInt(60));
  for (int i = 0; i < n; ++i) {
    const Term& s = w.subjects[rng->UniformInt(w.subjects.size())];
    const Term& p = w.predicates[rng->UniformInt(w.predicates.size())];
    const Term& o = w.objects[rng->UniformInt(w.objects.size())];
    w.ds.store().Add(w.ds.dict().Intern(s), w.ds.dict().Intern(p),
                     w.ds.dict().Intern(o));
  }
  w.ds.BuildEntityIndex();
  return w;
}

/// Builds a random query over variables ?v0..?v3 and world constants.
SelectQuery MakeQuery(const RandomWorld& w, Rng* rng) {
  SelectQuery q;
  const size_t num_patterns = 1 + rng->UniformInt(3);
  auto var = [&](int i) { return TermOrVar(Variable{"v" + std::to_string(i)}); };
  for (size_t i = 0; i < num_patterns; ++i) {
    TriplePatternAst tp;
    tp.subject = rng->Bernoulli(0.6)
                     ? var(static_cast<int>(rng->UniformInt(3)))
                     : TermOrVar(w.subjects[rng->UniformInt(w.subjects.size())]);
    tp.predicate =
        rng->Bernoulli(0.3)
            ? var(3)
            : TermOrVar(w.predicates[rng->UniformInt(w.predicates.size())]);
    tp.object = rng->Bernoulli(0.6)
                    ? var(static_cast<int>(rng->UniformInt(3)))
                    : TermOrVar(w.objects[rng->UniformInt(w.objects.size())]);
    q.where.push_back(std::move(tp));
  }
  if (rng->Bernoulli(0.3)) {
    FilterAst f;
    f.var = Variable{"v" + std::to_string(rng->UniformInt(3))};
    f.op = rng->Bernoulli(0.5) ? CompareOp::kNe : CompareOp::kEq;
    f.value = w.objects[rng->UniformInt(w.objects.size())];
    q.filters.push_back(std::move(f));
  }
  return q;
}

/// Naive reference: enumerate all triples for every pattern, check
/// consistency and filters at the end.
std::multiset<std::string> ReferenceEvaluate(const RandomWorld& w,
                                             const SelectQuery& q) {
  const auto all = w.ds.store().Match(rdf::TriplePattern{});
  const auto vars = q.MentionedVariables();
  std::map<std::string, Term> binding;
  std::multiset<std::string> rows;

  std::function<void(size_t)> recurse = [&](size_t pi) {
    if (pi == q.where.size()) {
      // All filters must pass (a filter on an unbound variable is inert,
      // matching the engine's semantics).
      for (const FilterAst& f : q.filters) {
        auto it = binding.find(f.var.name);
        if (it != binding.end() &&
            !CompareTerms(it->second, f.op, f.value)) {
          return;
        }
      }
      std::string row;
      for (const std::string& v : vars) {
        auto it = binding.find(v);
        row += (it == binding.end() ? Term::Literal("") : it->second)
                   .ToNTriples();
        row += '\x1f';
      }
      rows.insert(row);
      return;
    }
    const TriplePatternAst& tp = q.where[pi];
    for (const rdf::Triple& t : all) {
      const Term triple_terms[3] = {w.ds.dict().term(t.subject),
                                    w.ds.dict().term(t.predicate),
                                    w.ds.dict().term(t.object)};
      const TermOrVar* comps[3] = {&tp.subject, &tp.predicate, &tp.object};
      std::vector<std::string> bound_here;
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        if (IsVariable(*comps[i])) {
          const std::string& name = std::get<Variable>(*comps[i]).name;
          auto it = binding.find(name);
          if (it == binding.end()) {
            binding.emplace(name, triple_terms[i]);
            bound_here.push_back(name);
          } else {
            ok = (it->second == triple_terms[i]);
          }
        } else {
          ok = (std::get<Term>(*comps[i]) == triple_terms[i]);
        }
      }
      if (ok) recurse(pi + 1);
      for (const std::string& name : bound_here) binding.erase(name);
    }
  };
  recurse(0);
  return rows;
}

std::multiset<std::string> EngineRows(const RandomWorld& w,
                                      const SelectQuery& q) {
  auto result = Evaluate(q, w.ds);
  EXPECT_TRUE(result.ok()) << result.status();
  std::multiset<std::string> rows;
  if (!result.ok()) return rows;
  for (const auto& row : result->rows) {
    std::string key;
    for (const Term& t : row) {
      key += t.ToNTriples();
      key += '\x1f';
    }
    rows.insert(key);
  }
  return rows;
}

class SparqlReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparqlReferenceTest, EngineAgreesWithNaiveReference) {
  Rng rng(GetParam());
  RandomWorld w = MakeWorld(&rng);
  for (int trial = 0; trial < 60; ++trial) {
    SelectQuery q = MakeQuery(w, &rng);
    const auto expected = ReferenceEvaluate(w, q);
    const auto actual = EngineRows(w, q);
    ASSERT_EQ(actual, expected) << "trial " << trial;
  }
}

uint64_t Fnv64(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The engine's rows in the order it returns them.
std::string OrderedDigest(const RandomWorld& w, const SelectQuery& q) {
  auto result = Evaluate(q, w.ds);
  if (!result.ok()) return "error:" + std::string(result.status().message());
  std::string d;
  for (const auto& row : result->rows) {
    d += "row:";
    for (const Term& t : row) d += t.ToNTriples() + '\x1f';
  }
  return d;
}

struct OrderGolden {
  uint64_t seed;
  uint64_t golden;
};

constexpr OrderGolden kOrderGoldens[] = {
    {5, 0x7a5ffc65b5ea34e2ull},    {55, 0xe47db5fd4edb1652ull},
    {555, 0x2e01041f4e38fe49ull},  {5555, 0xf0e0998b5ec94262ull},
    {55555, 0xcb7ea7eed4779138ull},
};

TEST_P(SparqlReferenceTest, EngineRowOrderMatchesGolden) {
  const auto golden =
      std::find_if(std::begin(kOrderGoldens), std::end(kOrderGoldens),
                   [](const OrderGolden& g) { return g.seed == GetParam(); });
  ASSERT_NE(golden, std::end(kOrderGoldens));
  Rng rng(GetParam());
  RandomWorld w = MakeWorld(&rng);
  uint64_t rolling = 0xcbf29ce484222325ULL;
  std::string log;
  for (int trial = 0; trial < 60; ++trial) {
    SelectQuery q = MakeQuery(w, &rng);
    const std::string digest = OrderedDigest(w, q);
    rolling = Fnv64(digest, rolling);
    log += "  trial " + std::to_string(trial) + " [" +
           std::to_string(Fnv64(digest)) + "] patterns=" +
           std::to_string(q.where.size()) +
           " filters=" + std::to_string(q.filters.size()) + "\n";
  }
  EXPECT_EQ(rolling, golden->golden)
      << "seed " << GetParam() << " rolling " << std::hex << rolling << "\n"
      << log;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparqlReferenceTest,
                         ::testing::Values(5, 55, 555, 5555, 55555));

}  // namespace
}  // namespace alex::sparql
