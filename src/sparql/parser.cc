#include "sparql/parser.h"

#include <charconv>
#include <system_error>
#include <unordered_map>

#include "rdf/term.h"
#include "sparql/tokenizer.h"

namespace alex::sparql {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectQuery> Parse();

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  Status Fail(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().offset));
  }

  bool MatchKeyword(std::string_view kw) {
    if (Peek().kind == TokenKind::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchPunct(std::string_view p) {
    if (Peek().kind == TokenKind::kPunct && Peek().text == p) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParsePrefixes();
  Result<rdf::Term> ResolvePrefixedName(const std::string& raw) const;
  Result<TermOrVar> ParseTermOrVar();
  Status ParseWhereBlock(SelectQuery* query);
  /// Parses triple patterns and FILTERs up to (and including) the closing
  /// '}' of an already-opened group.
  Status ParseBgpGroup(std::vector<TriplePatternAst>* patterns,
                       std::vector<FilterAst>* filters);
  Status ParseFilter(std::vector<FilterAst>* filters);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::unordered_map<std::string, std::string> prefixes_;
};

Status Parser::ParsePrefixes() {
  while (MatchKeyword("PREFIX")) {
    if (Peek().kind != TokenKind::kPrefixedName) {
      return Fail("expected prefix name after PREFIX");
    }
    std::string raw = Advance().text;
    // Raw form is "ns:" (local part empty).
    size_t colon = raw.find(':');
    std::string ns = raw.substr(0, colon);
    if (Peek().kind != TokenKind::kIri) {
      return Fail("expected IRI after prefix name");
    }
    prefixes_[ns] = Advance().text;
  }
  return Status::OK();
}

Result<rdf::Term> Parser::ResolvePrefixedName(const std::string& raw) const {
  size_t colon = raw.find(':');
  std::string ns = raw.substr(0, colon);
  std::string local = raw.substr(colon + 1);
  auto it = prefixes_.find(ns);
  if (it == prefixes_.end()) {
    return Status::ParseError("undeclared prefix '" + ns + ":'");
  }
  return rdf::Term::Iri(it->second + local);
}

Result<TermOrVar> Parser::ParseTermOrVar() {
  const Token& tok = Advance();
  switch (tok.kind) {
    case TokenKind::kVariable:
      return TermOrVar(Variable{tok.text});
    case TokenKind::kIri:
      return TermOrVar(rdf::Term::Iri(tok.text));
    case TokenKind::kPrefixedName: {
      ALEX_ASSIGN_OR_RETURN(rdf::Term t, ResolvePrefixedName(tok.text));
      return TermOrVar(std::move(t));
    }
    case TokenKind::kString: {
      rdf::Term t = rdf::Term::Literal(tok.text);
      t.datatype = tok.datatype;
      t.language = tok.language;
      return TermOrVar(std::move(t));
    }
    case TokenKind::kNumber: {
      const bool is_double = tok.text.find('.') != std::string::npos;
      rdf::Term t = rdf::Term::TypedLiteral(
          tok.text, std::string(is_double ? rdf::kXsdDouble
                                          : rdf::kXsdInteger));
      return TermOrVar(std::move(t));
    }
    case TokenKind::kA:
      return TermOrVar(rdf::Term::Iri(std::string(rdf::kRdfType)));
    default:
      --pos_;
      return Fail("expected term or variable");
  }
}

Status Parser::ParseFilter(std::vector<FilterAst>* filters) {
  if (!MatchPunct("(")) return Fail("expected '(' after FILTER");
  if (Peek().kind != TokenKind::kVariable) {
    return Fail("FILTER must start with a variable");
  }
  FilterAst filter;
  filter.var = Variable{Advance().text};
  if (Peek().kind != TokenKind::kOp) return Fail("expected comparison operator");
  const std::string op = Advance().text;
  if (op == "=") filter.op = CompareOp::kEq;
  else if (op == "!=") filter.op = CompareOp::kNe;
  else if (op == "<") filter.op = CompareOp::kLt;
  else if (op == "<=") filter.op = CompareOp::kLe;
  else if (op == ">") filter.op = CompareOp::kGt;
  else if (op == ">=") filter.op = CompareOp::kGe;
  else return Fail("unknown operator '" + op + "'");
  ALEX_ASSIGN_OR_RETURN(TermOrVar value, ParseTermOrVar());
  if (IsVariable(value)) {
    return Fail("FILTER comparisons against variables are not supported");
  }
  filter.value = std::get<rdf::Term>(std::move(value));
  if (!MatchPunct(")")) return Fail("expected ')' to close FILTER");
  filters->push_back(std::move(filter));
  return Status::OK();
}

Status Parser::ParseBgpGroup(std::vector<TriplePatternAst>* patterns,
                             std::vector<FilterAst>* filters) {
  while (!MatchPunct("}")) {
    if (AtEnd()) return Fail("unterminated group");
    if (MatchKeyword("FILTER")) {
      ALEX_RETURN_NOT_OK(ParseFilter(filters));
      MatchPunct(".");  // Optional separator after FILTER.
      continue;
    }
    TriplePatternAst tp;
    ALEX_ASSIGN_OR_RETURN(tp.subject, ParseTermOrVar());
    ALEX_ASSIGN_OR_RETURN(tp.predicate, ParseTermOrVar());
    ALEX_ASSIGN_OR_RETURN(tp.object, ParseTermOrVar());
    patterns->push_back(std::move(tp));
    if (!MatchPunct(".")) {
      // A pattern must be followed by '.', '}', FILTER, or OPTIONAL.
      if (Peek().kind == TokenKind::kPunct && Peek().text == "}") continue;
      if (Peek().kind == TokenKind::kKeyword &&
          (Peek().text == "FILTER" || Peek().text == "OPTIONAL")) {
        continue;
      }
      return Fail("expected '.' after triple pattern");
    }
  }
  return Status::OK();
}

Status Parser::ParseWhereBlock(SelectQuery* query) {
  if (!MatchPunct("{")) return Fail("expected '{' after WHERE");

  // UNION form: WHERE { { bgp } UNION { bgp } ... }.
  if (Peek().kind == TokenKind::kPunct && Peek().text == "{") {
    do {
      if (!MatchPunct("{")) return Fail("expected '{' to open UNION branch");
      std::vector<TriplePatternAst> branch;
      // Branch filters are hoisted to the query level; the evaluator only
      // applies a filter once its variable is bound, so filters on
      // variables absent from a branch are inert there.
      ALEX_RETURN_NOT_OK(ParseBgpGroup(&branch, &query->filters));
      if (branch.empty()) return Fail("empty UNION branch");
      query->union_branches.push_back(std::move(branch));
    } while (MatchKeyword("UNION"));
    if (query->union_branches.size() < 2) {
      return Fail("expected UNION after group");
    }
    if (!MatchPunct("}")) return Fail("expected '}' to close WHERE");
    return Status::OK();
  }

  // Join form: bgp + FILTERs + OPTIONAL blocks.
  while (!MatchPunct("}")) {
    if (AtEnd()) return Fail("unterminated WHERE block");
    if (MatchKeyword("FILTER")) {
      ALEX_RETURN_NOT_OK(ParseFilter(&query->filters));
      MatchPunct(".");
      continue;
    }
    if (MatchKeyword("OPTIONAL")) {
      if (!MatchPunct("{")) return Fail("expected '{' after OPTIONAL");
      OptionalBlock block;
      ALEX_RETURN_NOT_OK(ParseBgpGroup(&block.patterns, &block.filters));
      if (block.patterns.empty()) return Fail("empty OPTIONAL block");
      query->optionals.push_back(std::move(block));
      MatchPunct(".");
      continue;
    }
    TriplePatternAst tp;
    ALEX_ASSIGN_OR_RETURN(tp.subject, ParseTermOrVar());
    ALEX_ASSIGN_OR_RETURN(tp.predicate, ParseTermOrVar());
    ALEX_ASSIGN_OR_RETURN(tp.object, ParseTermOrVar());
    query->where.push_back(std::move(tp));
    if (!MatchPunct(".")) {
      if (Peek().kind == TokenKind::kPunct && Peek().text == "}") continue;
      if (Peek().kind == TokenKind::kKeyword &&
          (Peek().text == "FILTER" || Peek().text == "OPTIONAL")) {
        continue;
      }
      return Fail("expected '.' after triple pattern");
    }
  }
  return Status::OK();
}

Result<SelectQuery> Parser::Parse() {
  SelectQuery query;
  ALEX_RETURN_NOT_OK(ParsePrefixes());
  if (MatchKeyword("ASK")) {
    query.is_ask = true;
    MatchKeyword("WHERE");  // Optional before the block.
    ALEX_RETURN_NOT_OK(ParseWhereBlock(&query));
    if (!AtEnd()) return Fail("trailing tokens after ASK query");
    if (query.where.empty() && query.union_branches.empty()) {
      return Fail("empty WHERE block");
    }
    return query;
  }
  if (!MatchKeyword("SELECT")) return Fail("expected SELECT or ASK");
  query.distinct = MatchKeyword("DISTINCT");
  if (MatchPunct("*")) {
    // SELECT * — projection stays empty.
  } else {
    while (Peek().kind == TokenKind::kVariable) {
      query.projection.push_back(Advance().text);
    }
    // Aggregate clause: (COUNT(?x | *) AS ?alias).
    if (Peek().kind == TokenKind::kPunct && Peek().text == "(") {
      ++pos_;
      if (!MatchKeyword("COUNT")) return Fail("expected COUNT");
      if (!MatchPunct("(")) return Fail("expected '(' after COUNT");
      AggregateSpec agg;
      if (Peek().kind == TokenKind::kVariable) {
        agg.count_var = Advance().text;
      } else if (!MatchPunct("*")) {
        return Fail("expected variable or '*' inside COUNT");
      }
      if (!MatchPunct(")")) return Fail("expected ')' after COUNT argument");
      if (!MatchKeyword("AS")) return Fail("expected AS after COUNT(...)");
      if (Peek().kind != TokenKind::kVariable) {
        return Fail("expected alias variable after AS");
      }
      agg.alias = Advance().text;
      if (!MatchPunct(")")) return Fail("expected ')' to close aggregate");
      if (query.projection.size() > 1) {
        return Fail("at most one grouping variable is supported");
      }
      if (!query.projection.empty()) agg.group_var = query.projection[0];
      query.projection.push_back(agg.alias);
      query.aggregate = std::move(agg);
    }
    if (query.projection.empty()) {
      return Fail("expected projection variables or '*'");
    }
  }
  if (!MatchKeyword("WHERE")) return Fail("expected WHERE");
  ALEX_RETURN_NOT_OK(ParseWhereBlock(&query));
  if (MatchKeyword("GROUP")) {
    if (!MatchKeyword("BY")) return Fail("expected BY after GROUP");
    if (Peek().kind != TokenKind::kVariable) {
      return Fail("expected variable after GROUP BY");
    }
    const std::string var = Advance().text;
    if (!query.aggregate.has_value() || query.aggregate->group_var != var) {
      return Fail("GROUP BY must name the projected grouping variable");
    }
  } else if (query.aggregate.has_value() &&
             !query.aggregate->group_var.empty()) {
    return Fail("projected grouping variable requires GROUP BY");
  }
  if (MatchKeyword("ORDER")) {
    if (!MatchKeyword("BY")) return Fail("expected BY after ORDER");
    OrderSpec spec;
    if (MatchKeyword("DESC")) {
      spec.descending = true;
    } else {
      MatchKeyword("ASC");
    }
    if (Peek().kind != TokenKind::kVariable) {
      return Fail("expected variable after ORDER BY");
    }
    spec.var = Variable{Advance().text};
    query.order_by = spec;
  }
  if (MatchKeyword("LIMIT")) {
    if (Peek().kind != TokenKind::kNumber) {
      return Fail("expected number after LIMIT");
    }
    // Only plain unsigned decimal digits that fit a size_t: no sign, no
    // fraction, no overflow.
    const Token& tok = Advance();
    const char* const end = tok.text.data() + tok.text.size();
    size_t limit = 0;
    const auto [parsed_end, ec] = std::from_chars(tok.text.data(), end, limit);
    if (ec != std::errc() || parsed_end != end) {
      return Status::ParseError(
          "LIMIT must be an unsigned 64-bit integer, got '" + tok.text +
          "' at offset " + std::to_string(tok.offset));
    }
    query.limit = limit;
  }
  if (!AtEnd()) return Fail("trailing tokens after query");
  if (query.where.empty() && query.union_branches.empty()) {
    return Fail("empty WHERE block");
  }
  return query;
}

}  // namespace

Result<SelectQuery> ParseQuery(std::string_view query_text) {
  ALEX_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query_text));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace alex::sparql
