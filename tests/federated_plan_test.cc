// Tests for federated query execution: CompiledQuery compilation, the
// PlanCache memo, agreement of the three entry points (ExecuteText,
// Execute(SelectQuery), Execute(CompiledQuery)), and — the load-bearing
// invariant — results pinned bit for bit by golden digests across query
// shapes, including a randomized fuzz sweep over generated datasets and
// query texts.
//
// Capture recipe: each golden is the FNV-64 of Digest() below. They were
// recorded at commit abaa800 by running these exact queries through the
// pre-compilation string executor (FederatedEngine's legacy
// execution mode), with the compiled path checked equal at capture time.
// That executor is gone, so the goldens cannot be regenerated from current
// sources, only re-verified.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "federation/plan_cache.h"
#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "obs/metrics.h"
#include "rdf/dataset.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "sparql/plan.h"

namespace alex::fed {
namespace {

using rdf::Term;

/// Canonical digest of a federated result: variables, every row's values
/// (N-Triples) and provenance, and the degradation detail. Two results with
/// equal digests are byte-identical as far as callers can observe.
std::string Digest(const Result<FederatedResult>& r) {
  if (!r.ok()) {
    return "error:" + std::to_string(static_cast<int>(r.status().code())) +
           ":" + std::string(r.status().message());
  }
  std::string d = "vars:";
  for (const std::string& v : r->variables) d += v + ",";
  d += r->degraded ? "|degraded|" : "|ok|";
  for (const EndpointError& e : r->errors) {
    d += e.endpoint + ":" + std::to_string(static_cast<int>(e.code)) + ":" +
         std::to_string(e.failed_probes) + ";";
  }
  for (const ProvenancedRow& row : r->rows) {
    d += "row:";
    for (const Term& t : row.values) d += t.ToNTriples() + "\x1e";
    for (const SameAsLink& l : row.links_used) {
      d += l.left_iri + "->" + l.right_iri + "\x1f";
    }
  }
  return d;
}

uint64_t Fnv64(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string kSpanning() {
  return "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }";
}

class FederatedPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_.AddIriTriple("http://l/alice", "http://l/worksFor", "http://l/acme");
    left_.AddIriTriple("http://l/bob", "http://l/worksFor", "http://l/acme");
    left_.AddLiteralTriple("http://l/acme", "http://l/name",
                           Term::Literal("Acme"));
    left_.AddLiteralTriple("http://l/alice", "http://l/age",
                           Term::TypedLiteral(
                               "34", "http://www.w3.org/2001/XMLSchema#integer"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/hq",
                            Term::Literal("Belcaster"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/label",
                            Term::Literal("Acme Corporation"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/label",
                            Term::Literal("ACME"));
    links_.Add("http://l/acme", "http://r/acme-corp");
    left_ep_ = std::make_unique<Endpoint>(&left_);
    right_ep_ = std::make_unique<Endpoint>(&right_);
    engine_ = std::make_unique<FederatedEngine>(left_ep_.get(),
                                                right_ep_.get(), &links_);
  }

  /// Executes `query` and expects its digest to match `golden`.
  Result<FederatedResult> ExpectGolden(const std::string& query,
                                       uint64_t golden) {
    Result<FederatedResult> r = engine_->ExecuteText(query);
    const std::string digest = Digest(r);
    EXPECT_EQ(Fnv64(digest), golden) << query << "\n  digest: " << digest;
    return r;
  }

  rdf::Dataset left_{"hr"};
  rdf::Dataset right_{"companies"};
  LinkIndex links_;
  std::unique_ptr<Endpoint> left_ep_;
  std::unique_ptr<Endpoint> right_ep_;
  std::unique_ptr<FederatedEngine> engine_;
};

TEST_F(FederatedPlanTest, CompileRejectsUnsupportedQueries) {
  PlanCache cache;
  auto unsupported = cache.GetOrCompile(
      "SELECT ?x WHERE { ?x <http://l/p> ?y . "
      "OPTIONAL { ?x <http://l/q> ?z . } }");
  ASSERT_FALSE(unsupported.ok());
  EXPECT_EQ(unsupported.status().message(),
            "OPTIONAL/UNION are not supported in federated queries");

  auto unknown = cache.GetOrCompile(
      "SELECT ?missing WHERE { ?x <http://l/p> ?y . }");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().message(),
            "projected variable ?missing not mentioned in WHERE");
}

TEST_F(FederatedPlanTest, CompileResolvesSlotsAndFilters) {
  auto plan = CompiledQuery::CompileText(
      "SELECT ?v WHERE { <http://l/alice> <http://l/age> ?v . "
      "FILTER(?v > \"30\") }");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->num_slots(), 1u);
  ASSERT_EQ(plan->patterns().size(), 1u);
  const CompiledQuery::Pattern& p = plan->patterns()[0];
  EXPECT_FALSE(p.comp[0].is_variable());
  EXPECT_FALSE(p.comp[1].is_variable());
  ASSERT_TRUE(p.comp[2].is_variable());
  EXPECT_EQ(plan->filters_for_slot(p.comp[2].slot).size(), 1u);
  ASSERT_EQ(plan->projection_slots().size(), 1u);
  EXPECT_EQ(plan->projection_slots()[0], p.comp[2].slot);
}

TEST_F(FederatedPlanTest, InvalidOrderByFailsAfterExecution) {
  // A bad ORDER BY variable is reported only after enumeration, so it is
  // deliberately not a compile error.
  const std::string query =
      "SELECT ?v WHERE { <http://l/acme> <http://l/name> ?v . } "
      "ORDER BY ?nope";
  auto plan = CompiledQuery::CompileText(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->has_order_by());
  EXPECT_FALSE(plan->order_by_valid());
  auto r = ExpectGolden(query, 0xbe3c4f960748186cull);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "ORDER BY variable ?nope not in the result");
}

struct CuratedQuery {
  const char* text;
  uint64_t golden;
};

constexpr CuratedQuery kCurated[] = {
    // Spanning query: needs the sameAs link for the right-side rows.
    {"SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }", 0x95a875732225525eull},
    // Join through a bound variable.
    {"SELECT ?who ?label WHERE { ?who <http://l/worksFor> ?org . "
     "?org <http://r/label> ?label . }",
     0x41c408a54b88bacbull},
    // DISTINCT collapsing the two employees.
    {"SELECT DISTINCT ?label WHERE { ?who <http://l/worksFor> ?org . "
     "?org <http://r/label> ?label . }",
     0x9425302b499a7383ull},
    // FILTER on a join variable.
    {"SELECT ?who ?label WHERE { ?who <http://l/worksFor> ?org . "
     "?org <http://r/label> ?label . FILTER(?label = \"ACME\") }",
     0xdfe2fad2c6fa1b42ull},
    // ORDER BY with LIMIT (limit applies after the sort).
    {"SELECT ?o WHERE { <http://l/acme> ?p ?o . } ORDER BY ?o LIMIT 2",
     0x3b8b0833e84ddf01ull},
    // LIMIT alone (stops enumeration early).
    {"SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . } LIMIT 1",
     0x07078ab2c0effbeaull},
    // Repeated variable within one pattern.
    {"SELECT ?x WHERE { ?x <http://l/worksFor> ?x . }", 0x8a3f0c011942d211ull},
    // Empty result.
    {"SELECT ?v WHERE { <http://l/nobody> <http://l/name> ?v . }",
     0x01c52069ad2c46b3ull},
};

TEST_F(FederatedPlanTest, CuratedQueriesMatchGoldens) {
  for (const CuratedQuery& q : kCurated) {
    auto r = ExpectGolden(q.text, q.golden);
    EXPECT_TRUE(r.ok()) << q.text << ": " << r.status();
  }
}

TEST_F(FederatedPlanTest, EntryPointsAgreeOnCuratedQueries) {
  // ExecuteText (plan cache), Execute(SelectQuery) (compile per call) and
  // Execute(CompiledQuery) must be indistinguishable to callers.
  for (const CuratedQuery& q : kCurated) {
    const std::string via_text = Digest(engine_->ExecuteText(q.text));
    auto parsed = sparql::ParseQuery(q.text);
    ASSERT_TRUE(parsed.ok()) << q.text << ": " << parsed.status();
    const std::string via_ast = Digest(engine_->Execute(*parsed));
    auto plan = CompiledQuery::CompileText(q.text);
    ASSERT_TRUE(plan.ok()) << q.text << ": " << plan.status();
    const std::string via_plan = Digest(engine_->Execute(*plan));
    EXPECT_EQ(via_text, via_ast) << q.text;
    EXPECT_EQ(via_text, via_plan) << q.text;
  }
}

TEST_F(FederatedPlanTest, OutOfRangeLimitIsAParseError) {
  // Query text is a trust boundary: a LIMIT that is not a plain unsigned
  // 64-bit integer must come back as a Status, never abort the process.
  for (const char* limit : {"99999999999999999999999", "-3", "2.9"}) {
    const std::string query =
        std::string("SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . } LIMIT ") +
        limit;
    auto r = engine_->ExecuteText(query);
    ASSERT_FALSE(r.ok()) << query;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << query;
  }
}

TEST_F(FederatedPlanTest, FuzzRandomQueriesMatchGolden) {
  // Randomized sweep: generated datasets and query texts (joins, filters,
  // DISTINCT, LIMIT). One rolling digest over all iterations pins every
  // result; on a mismatch the per-iteration log names each query with its
  // own digest, so the divergent one can be found against a capture.
  Rng rng(20260806);
  rdf::Dataset left("fuzz-left");
  rdf::Dataset right("fuzz-right");
  LinkIndex links;
  const int kEntities = 6, kPreds = 3, kValues = 4;
  for (int e = 0; e < kEntities; ++e) {
    const std::string l = "http://l/e" + std::to_string(e);
    const std::string r = "http://r/e" + std::to_string(e);
    for (int p = 0; p < kPreds; ++p) {
      if (rng.UniformInt(3) == 0) continue;  // Sparse.
      left.AddLiteralTriple(
          l, "http://l/p" + std::to_string(p),
          Term::Literal("v" + std::to_string(rng.UniformInt(kValues))));
      right.AddLiteralTriple(
          r, "http://r/p" + std::to_string(p),
          Term::Literal("w" + std::to_string(rng.UniformInt(kValues))));
    }
    left.AddIriTriple(l, "http://l/knows",
                      "http://l/e" + std::to_string(rng.UniformInt(kEntities)));
    if (rng.UniformInt(2) == 0) links.Add(l, r);
  }
  Endpoint left_ep(&left);
  Endpoint right_ep(&right);
  FederatedEngine engine(&left_ep, &right_ep, &links);

  auto random_entity = [&](const char* side) {
    return "<http://" + std::string(side) + "/e" +
           std::to_string(rng.UniformInt(kEntities)) + ">";
  };
  auto random_pred = [&](const char* side) {
    return "<http://" + std::string(side) + "/p" +
           std::to_string(rng.UniformInt(kPreds)) + ">";
  };
  const std::vector<std::string> vars = {"?a", "?b", "?c"};

  uint64_t rolling = 0xcbf29ce484222325ULL;
  std::string log;
  for (int iter = 0; iter < 60; ++iter) {
    const int num_patterns = 1 + static_cast<int>(rng.UniformInt(2));
    std::string where;
    std::vector<std::string> used;
    auto use_var = [&]() {
      const std::string& v = vars[rng.UniformInt(vars.size())];
      if (std::find(used.begin(), used.end(), v.substr(1)) == used.end()) {
        used.push_back(v.substr(1));
      }
      return v;
    };
    for (int pi = 0; pi < num_patterns; ++pi) {
      const char* side = rng.UniformInt(2) == 0 ? "l" : "r";
      const std::string s =
          rng.UniformInt(2) == 0 ? random_entity(side) : use_var();
      const std::string p =
          rng.UniformInt(4) == 0 ? use_var() : random_pred(side);
      const std::string o = rng.UniformInt(2) == 0 ? use_var() : "?o" ;
      if (o == "?o" &&
          std::find(used.begin(), used.end(), "o") == used.end()) {
        used.push_back("o");
      }
      where += s + " " + p + " " + o + " . ";
    }
    std::string query = "SELECT";
    for (const std::string& v : used) query += " ?" + v;
    if (rng.UniformInt(3) == 0) query.insert(6, " DISTINCT");
    query += " WHERE { " + where;
    if (rng.UniformInt(4) == 0 && !used.empty()) {
      query += "FILTER(?" + used[rng.UniformInt(used.size())] +
               " > \"v1\") ";
    }
    query += "}";
    if (rng.UniformInt(4) == 0) {
      query += " LIMIT " + std::to_string(1 + rng.UniformInt(5));
    }

    const std::string digest = Digest(engine.ExecuteText(query));
    rolling = Fnv64(digest, rolling);
    log += "  iter " + std::to_string(iter) + " [" +
           std::to_string(Fnv64(digest)) + "] " + query + "\n";
  }
  EXPECT_EQ(rolling, 0x4c4c53014d40182bull) << log;
}

TEST_F(FederatedPlanTest, PlanCacheCompilesEachTextOnce) {
  PlanCache cache;
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  auto first = cache.GetOrCompile(kSpanning());
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = cache.GetOrCompile(kSpanning());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // Same shared plan, not a copy.
  EXPECT_EQ(cache.size(), 1u);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("fed.plan_cache_hits"), 1u);
  EXPECT_EQ(delta.histograms.at("fed.plan_compile_seconds").count, 1u);

  // Parse errors are surfaced and never cached.
  auto bad = cache.GetOrCompile("SELECT nonsense");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(FederatedPlanTest, EngineExecuteTextHitsThePlanCache) {
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  for (int i = 0; i < 5; ++i) {
    auto r = engine_->ExecuteText(kSpanning());
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("fed.plan_cache_hits"), 4u);
}

TEST_F(FederatedPlanTest, OnePlanRunsAgainstManyEngines) {
  auto plan = CompiledQuery::CompileText(kSpanning());
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Second federation with different right-side data behind the same link.
  rdf::Dataset other_right("companies2");
  other_right.AddLiteralTriple("http://r/acme-corp", "http://r/hq",
                               Term::Literal("Springfield"));
  Endpoint other_right_ep(&other_right);
  FederatedEngine other(left_ep_.get(), &other_right_ep, &links_);

  auto r1 = engine_->Execute(*plan);
  auto r2 = other.Execute(*plan);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->NumRows(), 4u);  // 1 left fact + 3 right facts via the link.
  EXPECT_NE(Digest(r1), Digest(r2));  // Plans carry no endpoint state.
  // The plan result matches parsing-and-executing on each engine.
  EXPECT_EQ(Digest(r1), Digest(engine_->ExecuteText(kSpanning())));
  EXPECT_EQ(Digest(r2), Digest(other.ExecuteText(kSpanning())));
}

TEST_F(FederatedPlanTest, LimitZeroReturnsNoRows) {
  // Enumeration stops at the first row once LIMIT rows exist; the final
  // cut must still apply when there is no ORDER BY.
  auto r = engine_->ExecuteText(
      "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . } LIMIT 0");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 0u);
}

TEST(FederatedOrderByTest, MixedColumnSortsTheSameUnderBothExecutors) {
  // "10", "9" and "5x" form a cycle under FILTER's comparison (9 < 10
  // numerically, "10" < "5x" and "5x" < "9" lexically), so ORDER BY uses a
  // total order instead: numbers (NaN last), then dates, then strings.
  const std::string kDouble = "http://www.w3.org/2001/XMLSchema#double";
  const std::vector<Term> ascending = {
      Term::Literal("9"),
      Term::Literal("10"),
      Term::TypedLiteral("NaN", kDouble),
      Term::Literal("2000-01-02"),
      Term::Literal("5x"),
      Term::Iri("http://l/apple"),
      Term::Literal("banana"),
  };
  rdf::Dataset left("mixed");
  rdf::Dataset right("empty");
  right.AddLiteralTriple("http://r/x", "http://r/p", Term::Literal("x"));
  for (size_t i : {4, 0, 6, 2, 5, 1, 3}) {
    if (ascending[i].is_iri()) {
      left.AddIriTriple("http://l/s" + std::to_string(i), "http://l/v",
                        ascending[i].value);
    } else {
      left.AddLiteralTriple("http://l/s" + std::to_string(i), "http://l/v",
                            ascending[i]);
    }
  }
  Endpoint left_ep(&left);
  Endpoint right_ep(&right);
  LinkIndex links;
  FederatedEngine engine(&left_ep, &right_ep, &links);
  for (const bool desc : {false, true}) {
    const std::string query =
        std::string("SELECT ?v WHERE { ?s <http://l/v> ?v . } ORDER BY ") +
        (desc ? "DESC ?v" : "?v");
    std::vector<Term> expected = ascending;
    if (desc) std::reverse(expected.begin(), expected.end());

    auto local = sparql::EvaluateQuery(query, left);
    ASSERT_TRUE(local.ok()) << local.status();
    std::vector<Term> local_column;
    for (const auto& row : local->rows) local_column.push_back(row[0]);
    EXPECT_EQ(local_column, expected) << query;

    auto federated = engine.ExecuteText(query);
    ASSERT_TRUE(federated.ok()) << federated.status();
    std::vector<Term> federated_column;
    for (const auto& row : federated->rows) {
      federated_column.push_back(row.values[0]);
    }
    EXPECT_EQ(federated_column, expected) << query;
  }
}

}  // namespace
}  // namespace alex::fed
