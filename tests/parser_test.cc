#include "sparql/parser.h"

#include <string>

#include <gtest/gtest.h>

namespace alex::sparql {
namespace {

SelectQuery MustParse(std::string_view q) {
  auto r = ParseQuery(q);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOr(SelectQuery{});
}

TEST(ParserTest, MinimalQuery) {
  SelectQuery q = MustParse("SELECT ?s WHERE { ?s <http://p> ?o . }");
  EXPECT_FALSE(q.distinct);
  EXPECT_EQ(q.projection, std::vector<std::string>{"s"});
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_TRUE(IsVariable(q.where[0].subject));
  EXPECT_FALSE(IsVariable(q.where[0].predicate));
  EXPECT_EQ(std::get<rdf::Term>(q.where[0].predicate).value, "http://p");
  EXPECT_FALSE(q.limit.has_value());
}

TEST(ParserTest, SelectStar) {
  SelectQuery q = MustParse("SELECT * WHERE { ?s ?p ?o . }");
  EXPECT_TRUE(q.projection.empty());
}

TEST(ParserTest, DistinctAndLimit) {
  SelectQuery q =
      MustParse("SELECT DISTINCT ?s WHERE { ?s ?p ?o . } LIMIT 10");
  EXPECT_TRUE(q.distinct);
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 10u);
}

TEST(ParserTest, MultiplePatternsAndTrailingDotOptionalBeforeBrace) {
  SelectQuery q = MustParse(
      "SELECT ?a ?b WHERE { ?a <http://p> ?b . ?b <http://q> \"v\" }");
  EXPECT_EQ(q.where.size(), 2u);
}

TEST(ParserTest, PrefixResolution) {
  SelectQuery q = MustParse(
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
      "SELECT ?s WHERE { ?s foaf:name ?n . }");
  EXPECT_EQ(std::get<rdf::Term>(q.where[0].predicate).value,
            "http://xmlns.com/foaf/0.1/name");
}

TEST(ParserTest, UndeclaredPrefixFails) {
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s foaf:name ?n . }").ok());
}

TEST(ParserTest, AKeywordExpandsToRdfType) {
  SelectQuery q = MustParse("SELECT ?s WHERE { ?s a <http://x/C> . }");
  EXPECT_EQ(std::get<rdf::Term>(q.where[0].predicate).value,
            std::string(rdf::kRdfType));
}

TEST(ParserTest, LiteralObjects) {
  SelectQuery q = MustParse(
      "SELECT ?s WHERE { "
      "?s <http://p> \"txt\" . "
      "?s <http://q> \"hi\"@en . "
      "?s <http://r> \"5\"^^<http://dt> . "
      "?s <http://n> 42 . "
      "?s <http://m> 3.5 . }");
  ASSERT_EQ(q.where.size(), 5u);
  EXPECT_EQ(std::get<rdf::Term>(q.where[1].object).language, "en");
  EXPECT_EQ(std::get<rdf::Term>(q.where[2].object).datatype, "http://dt");
  EXPECT_EQ(std::get<rdf::Term>(q.where[3].object).datatype,
            std::string(rdf::kXsdInteger));
  EXPECT_EQ(std::get<rdf::Term>(q.where[4].object).datatype,
            std::string(rdf::kXsdDouble));
}

TEST(ParserTest, Filters) {
  SelectQuery q = MustParse(
      "SELECT ?s WHERE { ?s <http://p> ?age . FILTER(?age >= 18) "
      "FILTER(?age != 99) }");
  ASSERT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.filters[0].var.name, "age");
  EXPECT_EQ(q.filters[0].op, CompareOp::kGe);
  EXPECT_EQ(q.filters[1].op, CompareOp::kNe);
}

TEST(ParserTest, AllFilterOperators) {
  const std::pair<const char*, CompareOp> cases[] = {
      {"=", CompareOp::kEq},  {"!=", CompareOp::kNe},
      {"<", CompareOp::kLt},  {"<=", CompareOp::kLe},
      {">", CompareOp::kGt},  {">=", CompareOp::kGe},
  };
  for (const auto& [op, expected] : cases) {
    SelectQuery q = MustParse(std::string("SELECT ?s WHERE { ?s <http://p> "
                                          "?v . FILTER(?v ") +
                              op + " 5) }");
    ASSERT_EQ(q.filters.size(), 1u) << op;
    EXPECT_EQ(q.filters[0].op, expected) << op;
  }
}

TEST(ParserTest, MentionedVariables) {
  SelectQuery q = MustParse(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . }");
  EXPECT_EQ(q.MentionedVariables(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParserTest, ProjectionOrderPreserved) {
  SelectQuery q =
      MustParse("SELECT ?b ?a WHERE { ?a <http://p> ?b . }");
  EXPECT_EQ(q.projection, (std::vector<std::string>{"b", "a"}));
}

TEST(ParserTest, OptionalBlocks) {
  SelectQuery q = MustParse(
      "SELECT ?s ?f WHERE { ?s <http://p> ?n . "
      "OPTIONAL { ?s <http://q> ?f . FILTER(?f != \"x\") } "
      "OPTIONAL { ?s <http://r> ?g . } }");
  EXPECT_EQ(q.where.size(), 1u);
  ASSERT_EQ(q.optionals.size(), 2u);
  EXPECT_EQ(q.optionals[0].patterns.size(), 1u);
  EXPECT_EQ(q.optionals[0].filters.size(), 1u);
  EXPECT_EQ(q.optionals[1].patterns.size(), 1u);
  EXPECT_TRUE(q.optionals[1].filters.empty());
  // Optional variables are mentioned.
  EXPECT_EQ(q.MentionedVariables(),
            (std::vector<std::string>{"s", "n", "f", "g"}));
}

TEST(ParserTest, UnionBranches) {
  SelectQuery q = MustParse(
      "SELECT ?s WHERE { { ?s <http://p> ?a . } UNION { ?s <http://q> ?b . } "
      "UNION { ?s <http://r> ?c . } }");
  EXPECT_TRUE(q.where.empty());
  ASSERT_EQ(q.union_branches.size(), 3u);
  for (const auto& branch : q.union_branches) {
    EXPECT_EQ(branch.size(), 1u);
  }
}

TEST(ParserTest, OrderByVariants) {
  SelectQuery a = MustParse(
      "SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ?s LIMIT 3");
  ASSERT_TRUE(a.order_by.has_value());
  EXPECT_FALSE(a.order_by->descending);
  EXPECT_EQ(a.order_by->var.name, "s");
  SelectQuery d = MustParse("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY DESC ?s");
  EXPECT_TRUE(d.order_by->descending);
  SelectQuery asc = MustParse("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ASC ?s");
  EXPECT_FALSE(asc.order_by->descending);
}

TEST(ParserTest, AskForms) {
  EXPECT_TRUE(MustParse("ASK { ?s ?p ?o . }").is_ask);
  EXPECT_TRUE(MustParse("ASK WHERE { ?s ?p ?o . }").is_ask);
  EXPECT_FALSE(MustParse("SELECT * WHERE { ?s ?p ?o . }").is_ask);
}

TEST(ParserTest, NewSyntaxErrors) {
  // Single group without UNION.
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { { ?s ?p ?o . } }").ok());
  // Empty UNION branch.
  EXPECT_FALSE(
      ParseQuery("SELECT ?s WHERE { { } UNION { ?s ?p ?o . } }").ok());
  // Empty OPTIONAL.
  EXPECT_FALSE(
      ParseQuery("SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }").ok());
  // ORDER without BY.
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } ORDER ?s").ok());
  // ORDER BY without a variable.
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY 5").ok());
  // ASK with trailing tokens.
  EXPECT_FALSE(ParseQuery("ASK { ?s ?p ?o . } LIMIT 3").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("WHERE { ?s ?p ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT WHERE { ?s ?p ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s { ?s ?p ?o . }").ok());  // No WHERE.
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { }").ok());       // Empty BGP.
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p }").ok()); // Short pattern.
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } trailing").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . ").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT ?s WHERE { ?s ?p ?o . FILTER(?a = ?b) }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } LIMIT x").ok());
}

TEST(ParserTest, LimitAcceptsOnlyUnsigned64BitIntegers) {
  auto max = ParseQuery(
      "SELECT ?s WHERE { ?s ?p ?o . } LIMIT 18446744073709551615");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(*max->limit, 18446744073709551615ull);
  auto zero = ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } LIMIT 0");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(*zero->limit, 0u);

  // Out of range, signed and fractional literals are parse errors, never
  // an abort or a wrapped value.
  for (const char* bad : {"18446744073709551616", "99999999999999999999999",
                          "-3", "+3", "2.9", "-0"}) {
    auto r = ParseQuery(std::string("SELECT ?s WHERE { ?s ?p ?o . } LIMIT ") +
                        bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(r.status().message().find(bad), std::string::npos)
        << r.status();
  }
}

}  // namespace
}  // namespace alex::sparql
