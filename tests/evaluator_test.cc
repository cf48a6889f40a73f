// Tests for the single-dataset SPARQL evaluator: per-feature behaviour,
// plus golden digests that pin every query's rows in order and its ASK
// verdict.
//
// Capture recipe: each golden is the FNV-64 of GoldenDigest() below (the
// ordered rows in N-Triples, then the Ask() verdict). They were recorded
// at commit ecf5f3d by running these exact queries through the
// string-keyed evaluator that predates the shared compiled plan (its own
// variable map, pattern ordering and ORDER BY pass). That evaluator is
// gone, so the goldens cannot be regenerated from current sources, only
// re-verified; a mismatch prints the digest to compare against a capture.

#include "sparql/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "sparql/parser.h"
#include "sparql/plan.h"

namespace alex::sparql {
namespace {

using rdf::Term;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_.AddLiteralTriple("http://x/alice", "http://x/name",
                         Term::Literal("Alice"));
    ds_.AddLiteralTriple("http://x/alice", "http://x/age",
                         Term::TypedLiteral("30", std::string(rdf::kXsdInteger)));
    ds_.AddLiteralTriple("http://x/bob", "http://x/name", Term::Literal("Bob"));
    ds_.AddLiteralTriple("http://x/bob", "http://x/age",
                         Term::TypedLiteral("25", std::string(rdf::kXsdInteger)));
    ds_.AddIriTriple("http://x/alice", "http://x/knows", "http://x/bob");
    ds_.AddIriTriple("http://x/bob", "http://x/knows", "http://x/carol");
    ds_.AddLiteralTriple("http://x/carol", "http://x/name",
                         Term::Literal("Carol"));
    ds_.AddIriTriple("http://x/alice", std::string(rdf::kRdfType),
                     "http://x/Person");
    ds_.AddIriTriple("http://x/bob", std::string(rdf::kRdfType),
                     "http://x/Person");
  }

  QueryResult Run(const std::string& q) {
    auto r = EvaluateQuery(q, ds_);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ValueOr(QueryResult{});
  }

  rdf::Dataset ds_{"people"};
};

TEST_F(EvaluatorTest, SinglePattern) {
  QueryResult r = Run("SELECT ?s WHERE { ?s <http://x/name> ?n . }");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(EvaluatorTest, ConstantObject) {
  QueryResult r =
      Run("SELECT ?s WHERE { ?s <http://x/name> \"Alice\" . }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Iri("http://x/alice"));
}

TEST_F(EvaluatorTest, JoinAcrossPatterns) {
  QueryResult r = Run(
      "SELECT ?n WHERE { <http://x/alice> <http://x/knows> ?f . "
      "?f <http://x/name> ?n . }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Literal("Bob"));
}

TEST_F(EvaluatorTest, TwoHopJoin) {
  QueryResult r = Run(
      "SELECT ?n WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . "
      "?c <http://x/name> ?n . }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Literal("Carol"));
}

TEST_F(EvaluatorTest, FilterNumericComparison) {
  QueryResult r = Run(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 26) }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Iri("http://x/alice"));
}

TEST_F(EvaluatorTest, FilterEqualityOnString) {
  QueryResult r = Run(
      "SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(?n = \"Bob\") }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Iri("http://x/bob"));
}

TEST_F(EvaluatorTest, FilterNotEqual) {
  QueryResult r = Run(
      "SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(?n != \"Bob\") }");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(EvaluatorTest, TypePatternWithA) {
  QueryResult r = Run("SELECT ?s WHERE { ?s a <http://x/Person> . }");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(EvaluatorTest, SelectStarBindsAllVariables) {
  QueryResult r = Run("SELECT * WHERE { ?s <http://x/age> ?a . }");
  EXPECT_EQ(r.variables, (std::vector<std::string>{"s", "a"}));
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(EvaluatorTest, Limit) {
  QueryResult r = Run("SELECT ?s WHERE { ?s <http://x/name> ?n . } LIMIT 2");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(EvaluatorTest, Distinct) {
  // ?s of both patterns; without DISTINCT alice yields one row per
  // (name, knows) combination.
  QueryResult with_distinct = Run(
      "SELECT DISTINCT ?s WHERE { ?s <http://x/name> ?n . "
      "?s <http://x/knows> ?f . }");
  EXPECT_EQ(with_distinct.NumRows(), 2u);  // alice, bob.
}

TEST_F(EvaluatorTest, RepeatedVariableInPattern) {
  // No triple has subject == object here.
  QueryResult r = Run("SELECT ?s WHERE { ?s <http://x/knows> ?s . }");
  EXPECT_EQ(r.NumRows(), 0u);
  ds_.AddIriTriple("http://x/dave", "http://x/knows", "http://x/dave");
  QueryResult r2 = Run("SELECT ?s WHERE { ?s <http://x/knows> ?s . }");
  ASSERT_EQ(r2.NumRows(), 1u);
  EXPECT_EQ(r2.rows[0][0], Term::Iri("http://x/dave"));
}

TEST_F(EvaluatorTest, UnknownConstantYieldsNoRows) {
  QueryResult r = Run("SELECT ?s WHERE { ?s <http://x/missing> ?o . }");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(EvaluatorTest, ProjectionMustBeMentioned) {
  auto r = EvaluateQuery("SELECT ?zz WHERE { ?s ?p ?o . }", ds_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, CartesianProductOfDisconnectedPatterns) {
  QueryResult r = Run(
      "SELECT ?a ?b WHERE { ?a <http://x/knows> ?x . "
      "?b <http://x/age> ?y . }");
  EXPECT_EQ(r.NumRows(), 4u);  // 2 knows-edges x 2 age-subjects.
}

TEST_F(EvaluatorTest, OrderByAscending) {
  QueryResult r = Run(
      "SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY ?a");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0], Term::Iri("http://x/bob"));    // age 25.
  EXPECT_EQ(r.rows[1][0], Term::Iri("http://x/alice"));  // age 30.
}

TEST_F(EvaluatorTest, OrderByDescendingWithLimit) {
  QueryResult r = Run(
      "SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY DESC ?a "
      "LIMIT 1");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Iri("http://x/alice"));
}

TEST_F(EvaluatorTest, OrderByStringColumn) {
  QueryResult r =
      Run("SELECT ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.rows[0][0], Term::Literal("Alice"));
  EXPECT_EQ(r.rows[2][0], Term::Literal("Carol"));
}

TEST_F(EvaluatorTest, OrderByUnprojectedVariableFails) {
  auto r = EvaluateQuery(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . } ORDER BY ?zz", ds_);
  EXPECT_FALSE(r.ok());
}

TEST_F(EvaluatorTest, AskQueries) {
  auto yes = AskQuery("ASK { ?s <http://x/name> \"Alice\" . }", ds_);
  ASSERT_TRUE(yes.ok()) << yes.status();
  EXPECT_TRUE(*yes);
  auto no = AskQuery("ASK WHERE { ?s <http://x/name> \"Zelda\" . }", ds_);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
  auto filtered =
      AskQuery("ASK { ?s <http://x/age> ?a . FILTER(?a > 99) }", ds_);
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(*filtered);
}

TEST_F(EvaluatorTest, AskParsesViaIsAskFlag) {
  auto q = ParseQuery("ASK { ?s ?p ?o . }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->is_ask);
  EXPECT_TRUE(q->projection.empty());
}

TEST_F(EvaluatorTest, OptionalExtendsWhenPossible) {
  QueryResult r = Run(
      "SELECT ?s ?f WHERE { ?s <http://x/name> ?n . "
      "OPTIONAL { ?s <http://x/knows> ?f . } } ORDER BY ?s");
  ASSERT_EQ(r.NumRows(), 3u);
  // alice and bob have friends; carol keeps an unbound (empty) ?f.
  EXPECT_EQ(r.rows[0][0], Term::Iri("http://x/alice"));
  EXPECT_EQ(r.rows[0][1], Term::Iri("http://x/bob"));
  EXPECT_EQ(r.rows[1][0], Term::Iri("http://x/bob"));
  EXPECT_EQ(r.rows[1][1], Term::Iri("http://x/carol"));
  EXPECT_EQ(r.rows[2][0], Term::Iri("http://x/carol"));
  EXPECT_EQ(r.rows[2][1], Term::Literal(""));
}

TEST_F(EvaluatorTest, OptionalFilterScopesToBlock) {
  // The filter inside OPTIONAL rejects the extension, not the base row.
  QueryResult r = Run(
      "SELECT ?s ?a WHERE { ?s <http://x/name> ?n . "
      "OPTIONAL { ?s <http://x/age> ?a . FILTER(?a > 28) } } ORDER BY ?s");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.rows[0][1],
            Term::TypedLiteral("30", std::string(rdf::kXsdInteger)));
  EXPECT_EQ(r.rows[1][1], Term::Literal(""));  // bob, age 25 filtered out.
  EXPECT_EQ(r.rows[2][1], Term::Literal(""));  // carol has no age.
}

TEST_F(EvaluatorTest, ChainedOptionals) {
  QueryResult r = Run(
      "SELECT ?s ?a ?f WHERE { ?s <http://x/name> ?n . "
      "OPTIONAL { ?s <http://x/age> ?a . } "
      "OPTIONAL { ?s <http://x/knows> ?f . } }");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(EvaluatorTest, UnionConcatenatesBranches) {
  QueryResult r = Run(
      "SELECT ?s WHERE { { ?s <http://x/age> ?a . } UNION "
      "{ ?s <http://x/knows> ?f . } }");
  EXPECT_EQ(r.NumRows(), 4u);  // 2 age rows + 2 knows rows.
}

TEST_F(EvaluatorTest, UnionWithDistinctDeduplicates) {
  QueryResult r = Run(
      "SELECT DISTINCT ?s WHERE { { ?s <http://x/age> ?a . } UNION "
      "{ ?s <http://x/name> ?n . } }");
  EXPECT_EQ(r.NumRows(), 3u);  // alice, bob, carol.
}

TEST_F(EvaluatorTest, ThreeWayUnion) {
  QueryResult r = Run(
      "SELECT ?s WHERE { { ?s <http://x/age> ?a . } UNION "
      "{ ?s <http://x/knows> ?f . } UNION { ?s a <http://x/Person> . } }");
  EXPECT_EQ(r.NumRows(), 6u);
}

TEST_F(EvaluatorTest, UnionBranchVariablesAreIndependent) {
  QueryResult r = Run(
      "SELECT ?a ?f WHERE { { ?s <http://x/age> ?a . } UNION "
      "{ ?s <http://x/knows> ?f . } }");
  ASSERT_EQ(r.NumRows(), 4u);
  // Rows from the age branch leave ?f unbound and vice versa.
  size_t empty_cells = 0;
  for (const auto& row : r.rows) {
    for (const Term& t : row) {
      if (t == Term::Literal("")) ++empty_cells;
    }
  }
  EXPECT_EQ(empty_cells, 4u);
}

TEST_F(EvaluatorTest, CountAllRows) {
  QueryResult r = Run("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.variables, std::vector<std::string>{"n"});
  EXPECT_EQ(r.rows[0][0],
            Term::TypedLiteral("9", std::string(rdf::kXsdInteger)));
}

TEST_F(EvaluatorTest, CountVariableSkipsUnbound) {
  // With OPTIONAL, carol has no ?f: COUNT(?f) counts 2 of the 3 rows.
  QueryResult r = Run(
      "SELECT (COUNT(?f) AS ?n) WHERE { ?s <http://x/name> ?x . "
      "OPTIONAL { ?s <http://x/knows> ?f . } }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0],
            Term::TypedLiteral("2", std::string(rdf::kXsdInteger)));
}

TEST_F(EvaluatorTest, GroupByCountsPerGroup) {
  ds_.AddIriTriple("http://x/alice", "http://x/knows", "http://x/carol");
  QueryResult r = Run(
      "SELECT ?s (COUNT(?f) AS ?n) WHERE { ?s <http://x/knows> ?f . } "
      "GROUP BY ?s ORDER BY DESC ?n");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.variables, (std::vector<std::string>{"s", "n"}));
  EXPECT_EQ(r.rows[0][0], Term::Iri("http://x/alice"));
  EXPECT_EQ(r.rows[0][1],
            Term::TypedLiteral("2", std::string(rdf::kXsdInteger)));
  EXPECT_EQ(r.rows[1][1],
            Term::TypedLiteral("1", std::string(rdf::kXsdInteger)));
}

TEST_F(EvaluatorTest, CountZeroOnEmptyMatch) {
  QueryResult r =
      Run("SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/missing> ?o . }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0],
            Term::TypedLiteral("0", std::string(rdf::kXsdInteger)));
}

TEST_F(EvaluatorTest, AggregateParseErrors) {
  EXPECT_FALSE(
      EvaluateQuery("SELECT (COUNT(?x AS ?n) WHERE { ?s ?p ?o . }", ds_).ok());
  EXPECT_FALSE(
      EvaluateQuery("SELECT (COUNT(?x) ?n) WHERE { ?s ?p ?o . }", ds_).ok());
  // Grouping var projected but no GROUP BY.
  EXPECT_FALSE(EvaluateQuery(
                   "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }", ds_)
                   .ok());
  // GROUP BY names a different variable.
  EXPECT_FALSE(
      EvaluateQuery("SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } "
                    "GROUP BY ?p",
                    ds_)
          .ok());
  // Counted variable not mentioned.
  EXPECT_FALSE(
      EvaluateQuery("SELECT (COUNT(?zz) AS ?n) WHERE { ?s ?p ?o . }", ds_)
          .ok());
}

uint64_t Fnv64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Ordered digest of one query: its result (or error) row by row, then its
/// ASK verdict (or error).
std::string GoldenDigest(const std::string& q, const rdf::Dataset& ds) {
  std::string d;
  auto r = EvaluateQuery(q, ds);
  if (!r.ok()) {
    d += "error:" + std::to_string(static_cast<int>(r.status().code())) +
         ":" + std::string(r.status().message());
  } else {
    d += "vars:";
    for (const std::string& v : r->variables) d += v + ",";
    for (const auto& row : r->rows) {
      d += "|row:";
      for (const Term& t : row) d += t.ToNTriples() + "\x1e";
    }
  }
  auto ask = AskQuery(q, ds);
  d += ask.ok() ? (*ask ? "|ask:1" : "|ask:0")
                : "|ask-error:" + std::string(ask.status().message());
  return d;
}

struct GoldenQuery {
  const char* text;
  uint64_t golden;
};

void ExpectGoldens(const GoldenQuery* begin, const GoldenQuery* end,
                   const rdf::Dataset& ds) {
  for (const GoldenQuery* q = begin; q != end; ++q) {
    const std::string digest = GoldenDigest(q->text, ds);
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016llxull",
                  static_cast<unsigned long long>(Fnv64(digest)));
    EXPECT_EQ(Fnv64(digest), q->golden)
        << q->text << "\n  got " << hex << "\n  digest: " << digest;
  }
}

constexpr GoldenQuery kGoldenQueries[] = {
    {"SELECT ?s WHERE { ?s <http://x/name> ?n . }", 0x9b4027d6890dd3afull},
    {"SELECT ?s WHERE { ?s <http://x/name> \"Alice\" . }", 0x3ba023f30d7f05c9ull},
    {"SELECT ?n WHERE { <http://x/alice> <http://x/knows> ?f . "
     "?f <http://x/name> ?n . }",
     0x97af778c887fc58cull},
    {"SELECT ?n WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . "
     "?c <http://x/name> ?n . }",
     0x77e4f1104722df36ull},
    {"SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 26) }", 0x3ba023f30d7f05c9ull},
    {"SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(?n = \"Bob\") }", 0xf295755715ac1b36ull},
    {"SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(?n != \"Bob\") }", 0xefb06f1a030aca61ull},
    {"SELECT ?s WHERE { ?s a <http://x/Person> . }", 0x3c176414468a0f63ull},
    {"SELECT * WHERE { ?s <http://x/age> ?a . }", 0x3b4938e5d6801c90ull},
    {"SELECT * WHERE { ?s ?p ?o . }", 0x91f9c81499449631ull},
    {"SELECT ?p ?o WHERE { <http://x/alice> ?p ?o . }", 0xc603d844dee1876full},
    {"SELECT ?s WHERE { ?s <http://x/name> ?n . } LIMIT 2", 0x3c176414468a0f63ull},
    {"SELECT ?s WHERE { ?s ?p ?o . } LIMIT 0", 0x5b2f4202cec6e62cull},
    {"SELECT DISTINCT ?s WHERE { ?s <http://x/name> ?n . "
     "?s <http://x/knows> ?f . }",
     0x3c176414468a0f63ull},
    {"SELECT DISTINCT ?s WHERE { ?s ?p ?o . } LIMIT 2", 0x3c176414468a0f63ull},
    {"SELECT ?s WHERE { ?s <http://x/knows> ?s . }", 0x5b2f4302cec6e7dfull},
    {"SELECT ?s WHERE { ?s <http://x/missing> ?o . }", 0x5b2f4302cec6e7dfull},
    {"SELECT ?zz WHERE { ?s ?p ?o . }", 0x38d888c3b5e16553ull},
    {"SELECT ?a ?b WHERE { ?a <http://x/knows> ?x . ?b <http://x/age> ?y . }",
     0xe569fcaccb45a6e6ull},
    {"SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY ?a", 0x99205f40b4851852ull},
    {"SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY DESC ?a LIMIT 1",
     0xfc21af1546e43f94ull},
    {"SELECT ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n", 0x822e89271d5d648full},
    {"SELECT ?n WHERE { ?s <http://x/name> ?n . } ORDER BY DESC ?n LIMIT 2",
     0x47220e78f8a3d1f1ull},
    {"SELECT DISTINCT ?s WHERE { ?s ?p ?o . } ORDER BY DESC ?s LIMIT 2", 0x6357c0b2c12a0712ull},
    {"SELECT ?s WHERE { ?s <http://x/age> ?a . } ORDER BY ?zz", 0x08aff0714ea3c484ull},
    {"ASK { ?s <http://x/name> \"Alice\" . }", 0x3ba023f30d7f05c9ull},
    {"ASK WHERE { ?s <http://x/name> \"Zelda\" . }", 0x5b2f4302cec6e7dfull},
    {"ASK { ?s <http://x/age> ?a . FILTER(?a > 99) }", 0xa71ce39e88938876ull},
    {"ASK { ?s <http://x/knows> ?f . OPTIONAL { ?f <http://x/age> ?a . } }",
     0x8a9f3ab97059adcaull},
    {"SELECT ?s ?f WHERE { ?s <http://x/name> ?n . "
     "OPTIONAL { ?s <http://x/knows> ?f . } } ORDER BY ?s",
     0x50d596f6156ea287ull},
    {"SELECT ?s ?f WHERE { ?s <http://x/name> ?n . "
     "OPTIONAL { ?s <http://x/knows> ?f . } }",
     0x50d596f6156ea287ull},
    {"SELECT ?s ?f WHERE { ?s <http://x/name> ?n . "
     "OPTIONAL { ?s <http://x/knows> ?f . } } LIMIT 2",
     0xec20c71828743487ull},
    {"SELECT ?s ?a WHERE { ?s <http://x/name> ?n . "
     "OPTIONAL { ?s <http://x/age> ?a . FILTER(?a > 28) } } ORDER BY ?s",
     0xf538d1d3aa9c4956ull},
    {"SELECT ?s ?a WHERE { ?s <http://x/name> ?n . FILTER(?a > 26) "
     "OPTIONAL { ?s <http://x/age> ?a . } }",
     0xf538d1d3aa9c4956ull},
    {"SELECT ?s ?a ?f WHERE { ?s <http://x/name> ?n . "
     "OPTIONAL { ?s <http://x/age> ?a . } "
     "OPTIONAL { ?s <http://x/knows> ?f . } }",
     0x6ccd551a2e0f38b8ull},
    // Block 2's pattern order depends on whether block 1 bound ?f.
    {"SELECT * WHERE { ?s <http://x/name> ?n . "
     "OPTIONAL { ?s <http://x/knows> ?f . } "
     "OPTIONAL { ?g <http://x/knows> ?f . ?f <http://x/name> ?fn . } }",
     0x327b30ad15b1ece9ull},
    {"SELECT ?s ?fn ?t WHERE { ?s a <http://x/Person> . "
     "OPTIONAL { ?s <http://x/knows> ?f . ?f <http://x/name> ?fn . } "
     "OPTIONAL { ?f a ?t . } }",
     0x6b87f4b8535565c5ull},
    {"SELECT ?s WHERE { { ?s <http://x/age> ?a . } UNION "
     "{ ?s <http://x/knows> ?f . } }",
     0xeb48ff3210985becull},
    {"SELECT DISTINCT ?s WHERE { { ?s <http://x/age> ?a . } UNION "
     "{ ?s <http://x/name> ?n . } }",
     0x9b4027d6890dd3afull},
    {"SELECT ?s WHERE { { ?s <http://x/age> ?a . } UNION "
     "{ ?s <http://x/knows> ?f . } UNION { ?s a <http://x/Person> . } }",
     0x7b3276ad68a1b023ull},
    {"SELECT ?a ?f WHERE { { ?s <http://x/age> ?a . } UNION "
     "{ ?s <http://x/knows> ?f . } }",
     0x9637cfd6daa00e8cull},
    {"SELECT DISTINCT ?s WHERE { { ?s <http://x/knows> ?f . } UNION "
     "{ ?f <http://x/knows> ?s . } } ORDER BY DESC ?s LIMIT 2",
     0x6357c0b2c12a0712ull},
    {"SELECT ?s WHERE { { ?s <http://x/name> ?n . } UNION "
     "{ ?s a <http://x/Person> . } } LIMIT 4",
     0xde44062b48f4c61aull},
    {"SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }", 0xb1c2d8de159525b9ull},
    {"SELECT (COUNT(?f) AS ?n) WHERE { ?s <http://x/name> ?x . "
     "OPTIONAL { ?s <http://x/knows> ?f . } }",
     0xce8862eb1b59080cull},
    {"SELECT ?s (COUNT(?f) AS ?n) WHERE { ?s <http://x/knows> ?f . } "
     "GROUP BY ?s ORDER BY DESC ?n",
     0x263f9bf1ee0558f9ull},
    {"SELECT ?s (COUNT(?f) AS ?n) WHERE { ?s <http://x/name> ?x . "
     "OPTIONAL { ?s <http://x/knows> ?f . } } GROUP BY ?s ORDER BY ?n LIMIT 2",
     0x3141c39f492cb74cull},
    {"SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p", 0xdc5f61f5ed49980bull},
    {"SELECT ?s (COUNT(*) AS ?n) WHERE { { ?s <http://x/age> ?a . } UNION "
     "{ ?s <http://x/knows> ?f . } } GROUP BY ?s",
     0x8cf764af4f800e75ull},
    {"SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/missing> ?o . }", 0xe0242f3abe21e53eull},
    {"SELECT (COUNT(?x AS ?n) WHERE { ?s ?p ?o . }", 0x2db6061e0f21522cull},
    {"SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p", 0x211d0d88df5d7b7eull},
    {"SELECT (COUNT(?zz) AS ?n) WHERE { ?s ?p ?o . }", 0x382f7d6bcf9d5606ull},
};

TEST_F(EvaluatorTest, GoldenQueriesMatchInOrder) {
  ExpectGoldens(std::begin(kGoldenQueries), std::end(kGoldenQueries), ds_);
}

constexpr GoldenQuery kGoldenQueriesExtended[] = {
    {"SELECT ?s WHERE { ?s <http://x/knows> ?s . }", 0x02c3cf2d6685e26dull},
    {"SELECT ?s (COUNT(?f) AS ?n) WHERE { ?s <http://x/knows> ?f . } "
     "GROUP BY ?s ORDER BY DESC ?n",
     0xcff393efaa7a1985ull},
    {"SELECT ?s ?f ?a WHERE { ?s <http://x/knows> ?f . "
     "OPTIONAL { ?f <http://x/age> ?a . } } ORDER BY DESC ?f",
     0x4048e1ef63627de7ull},
    // With ?s bound the knows pattern runs first; ordered without the
    // row's bindings, the age pattern would.
    {"SELECT ?s ?f ?x WHERE { ?s <http://x/name> ?n . "
     "OPTIONAL { ?x <http://x/age> ?y . ?s <http://x/knows> ?f . } }",
     0x51ff516854d80d85ull},
};

TEST_F(EvaluatorTest, GoldenQueriesMatchInOrderOnExtendedData) {
  ds_.AddIriTriple("http://x/dave", "http://x/knows", "http://x/dave");
  ds_.AddIriTriple("http://x/alice", "http://x/knows", "http://x/carol");
  ExpectGoldens(std::begin(kGoldenQueriesExtended),
                std::end(kGoldenQueriesExtended), ds_);
}

TEST_F(EvaluatorTest, AskWithUnmentionedGroupingVariableIsAnError) {
  // ASK drops the projection, which is where a SELECT's grouping variable
  // is checked; the plan must still reject it instead of indexing past the
  // slot frame.
  auto q = ParseQuery(
      "SELECT ?g (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?g");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(Evaluate(*q, ds_).ok());
  auto ask = Ask(*q, ds_);
  ASSERT_FALSE(ask.ok());
  EXPECT_EQ(ask.status().message(),
            "grouping variable ?g not mentioned in WHERE");
}

TEST(CompareTermsTest, NumericAndLexicographic) {
  EXPECT_TRUE(CompareTerms(Term::Literal("9"), CompareOp::kLt,
                           Term::Literal("10")));  // Numeric, not lexicographic.
  EXPECT_TRUE(CompareTerms(Term::Literal("apple"), CompareOp::kLt,
                           Term::Literal("banana")));
  EXPECT_TRUE(CompareTerms(Term::Literal("2000-01-02"), CompareOp::kGt,
                           Term::Literal("2000-01-01")));
  EXPECT_TRUE(
      CompareTerms(Term::Literal("x"), CompareOp::kEq, Term::Literal("x")));
  EXPECT_TRUE(
      CompareTerms(Term::Literal("x"), CompareOp::kNe, Term::Literal("y")));
  EXPECT_TRUE(CompareTerms(Term::Literal("5"), CompareOp::kLe,
                           Term::Literal("5.0")));
  EXPECT_TRUE(CompareTerms(Term::Literal("5"), CompareOp::kGe,
                           Term::Literal("5")));
}

TEST(OrderBeforeTest, IsAStrictWeakOrderOnMixedTerms) {
  const std::string kDouble = "http://www.w3.org/2001/XMLSchema#double";
  const std::vector<Term> terms = {
      Term::Literal("10"),
      Term::Literal("9"),
      Term::Literal("5x"),
      Term::Literal("5"),
      Term::Literal("5.0"),
      Term::TypedLiteral("5", std::string(rdf::kXsdInteger)),
      Term::TypedLiteral("nan", kDouble),
      Term::TypedLiteral("NaN", kDouble),
      Term::TypedLiteral("-inf", kDouble),
      Term::Literal("2000-01-02"),
      Term::Literal("1999-12-31"),
      Term::Literal("apple"),
      Term::Iri("http://x/apple"),
      Term::Iri("http://y/apple"),
      Term::Blank("b0"),
      Term::Literal(""),
  };
  for (const Term& a : terms) {
    EXPECT_FALSE(OrderBefore(a, a)) << a.ToNTriples();
    for (const Term& b : terms) {
      EXPECT_FALSE(OrderBefore(a, b) && OrderBefore(b, a))
          << a.ToNTriples() << " " << b.ToNTriples();
      for (const Term& c : terms) {
        // Transitivity of the order and of incomparability.
        if (OrderBefore(a, b) && OrderBefore(b, c)) {
          EXPECT_TRUE(OrderBefore(a, c))
              << a.ToNTriples() << " " << b.ToNTriples() << " "
              << c.ToNTriples();
        }
        const bool ab = !OrderBefore(a, b) && !OrderBefore(b, a);
        const bool bc = !OrderBefore(b, c) && !OrderBefore(c, b);
        if (ab && bc) {
          EXPECT_TRUE(!OrderBefore(a, c) && !OrderBefore(c, a))
              << a.ToNTriples() << " " << b.ToNTriples() << " "
              << c.ToNTriples();
        }
      }
    }
  }
  // Numbers before dates before strings; equal values by lexical form.
  EXPECT_TRUE(OrderBefore(Term::Literal("9"), Term::Literal("10")));
  EXPECT_TRUE(OrderBefore(Term::Literal("10"), Term::Literal("1999-12-31")));
  EXPECT_TRUE(OrderBefore(Term::Literal("1999-12-31"), Term::Literal("5x")));
  EXPECT_TRUE(OrderBefore(Term::Literal("5"), Term::Literal("5.0")));
}

}  // namespace
}  // namespace alex::sparql
