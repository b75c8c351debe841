#include "language/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace cleanm {

namespace {

enum class TokKind { kIdent, kNumber, kString, kPunct, kEnd };

struct Token {
  TokKind kind;
  std::string text;   // identifiers in original case; punct as written
  std::string upper;  // uppercase for keyword matching
  double number = 0;
  bool is_int = false;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { Advance(); }

  const Token& Peek() const { return current_; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

  /// Positioned parse error: line/column (1-based) of the current token,
  /// so Prepare failures point at the offending spot in multi-line query
  /// text, plus the raw offset for tooling.
  Status Error(const std::string& msg) const {
    size_t line = 1, column = 1;
    LineColumnAt(text_, current_.pos, &line, &column);
    const std::string token =
        current_.kind == TokKind::kEnd ? "end of input" : "'" + current_.text + "'";
    return Status::ParseError(msg + " at line " + std::to_string(line) + ", column " +
                              std::to_string(column) + " (near " + token +
                              ", offset " + std::to_string(current_.pos) + ")");
  }

 private:
  void Advance() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
    current_ = Token{TokKind::kEnd, "", "", 0, false, pos_};
    if (pos_ >= text_.size()) return;
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
        pos_++;
      }
      current_.kind = TokKind::kIdent;
      current_.text = text_.substr(start, pos_ - start);
      current_.upper = current_.text;
      std::transform(current_.upper.begin(), current_.upper.end(),
                     current_.upper.begin(),
                     [](unsigned char ch) { return std::toupper(ch); });
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      const size_t start = pos_;
      bool has_dot = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.')) {
        if (text_[pos_] == '.') has_dot = true;
        pos_++;
      }
      current_.kind = TokKind::kNumber;
      current_.text = text_.substr(start, pos_ - start);
      current_.number = std::strtod(current_.text.c_str(), nullptr);
      current_.is_int = !has_dot;
      return;
    }
    if (c == '\'') {
      pos_++;
      const size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '\'') pos_++;
      current_.kind = TokKind::kString;
      current_.text = text_.substr(start, pos_ - start);
      if (pos_ < text_.size()) pos_++;  // closing quote
      return;
    }
    // Multi-char punct: <=, >=, <>, !=
    if ((c == '<' || c == '>' || c == '!') && pos_ + 1 < text_.size() &&
        (text_[pos_ + 1] == '=' || (c == '<' && text_[pos_ + 1] == '>'))) {
      current_.kind = TokKind::kPunct;
      current_.text = text_.substr(pos_, 2);
      pos_ += 2;
      return;
    }
    current_.kind = TokKind::kPunct;
    current_.text = std::string(1, c);
    pos_++;
  }

  const std::string& text_;
  size_t pos_ = 0;
  Token current_;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lex_(text) {}

  Result<CleanMQuery> ParseQuery() {
    CleanMQuery q;
    CLEANM_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    if (IsKeyword("ALL")) {
      lex_.Take();
    } else if (IsKeyword("DISTINCT")) {
      lex_.Take();
      q.distinct = true;
    }
    CLEANM_RETURN_NOT_OK(ParseSelectList(&q));
    CLEANM_RETURN_NOT_OK(ExpectKeyword("FROM"));
    CLEANM_RETURN_NOT_OK(ParseFrom(&q));

    if (IsKeyword("WHERE")) {
      lex_.Take();
      CLEANM_ASSIGN_OR_RETURN(q.where, ParseExpr());
    }
    if (IsKeyword("GROUP")) {
      lex_.Take();
      CLEANM_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        CLEANM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        q.group_by.push_back(std::move(e));
        if (!IsPunct(",")) break;
        lex_.Take();
      }
    }
    // HAVING parses with or without GROUP BY; the groupless form is a
    // semantic error (kTypeError) reported by Prepare, not a parse error.
    if (IsKeyword("HAVING")) {
      lex_.Take();
      CLEANM_ASSIGN_OR_RETURN(q.having, ParseExpr());
    }

    // Cleaning clauses, in any order, repeated.
    while (true) {
      if (IsKeyword("FD")) {
        lex_.Take();
        CLEANM_RETURN_NOT_OK(ParseFd(&q));
        continue;
      }
      if (IsKeyword("DEDUP")) {
        lex_.Take();
        CLEANM_RETURN_NOT_OK(ParseDedup(&q));
        continue;
      }
      if (IsKeyword("CLUSTER")) {
        lex_.Take();
        CLEANM_RETURN_NOT_OK(ExpectKeyword("BY"));
        CLEANM_RETURN_NOT_OK(ParseClusterBy(&q));
        continue;
      }
      break;
    }
    if (IsPunct(";")) lex_.Take();
    if (lex_.Peek().kind != TokKind::kEnd) {
      return lex_.Error("unexpected trailing input");
    }
    return q;
  }

  Result<ExprPtr> ParseStandaloneExpr() {
    CLEANM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (lex_.Peek().kind != TokKind::kEnd) {
      return lex_.Error("unexpected trailing input after expression");
    }
    return e;
  }

 private:
  bool IsKeyword(const char* kw) const {
    return lex_.Peek().kind == TokKind::kIdent && lex_.Peek().upper == kw;
  }
  bool IsPunct(const char* p) const {
    return lex_.Peek().kind == TokKind::kPunct && lex_.Peek().text == p;
  }
  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(kw)) return lex_.Error(std::string("expected ") + kw);
    lex_.Take();
    return Status::OK();
  }
  Status ExpectPunct(const char* p) {
    if (!IsPunct(p)) return lex_.Error(std::string("expected '") + p + "'");
    lex_.Take();
    return Status::OK();
  }

  Status ParseSelectList(CleanMQuery* q) {
    while (true) {
      SelectItem item;
      if (IsPunct("*")) {
        lex_.Take();
        item.star = true;
      } else {
        CLEANM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (IsKeyword("AS")) {
          lex_.Take();
          if (lex_.Peek().kind != TokKind::kIdent) return lex_.Error("expected alias");
          item.alias = lex_.Take().text;
        }
      }
      q->select_list.push_back(std::move(item));
      if (!IsPunct(",")) break;
      lex_.Take();
    }
    return Status::OK();
  }

  Status ParseFrom(CleanMQuery* q) {
    while (true) {
      if (lex_.Peek().kind != TokKind::kIdent) return lex_.Error("expected table name");
      TableRef ref;
      ref.table = lex_.Take().text;
      ref.alias = ref.table;
      // Optional alias: a bare identifier that is not a clause keyword.
      if (lex_.Peek().kind == TokKind::kIdent && !IsKeyword("WHERE") &&
          !IsKeyword("GROUP") && !IsKeyword("FD") && !IsKeyword("DEDUP") &&
          !IsKeyword("CLUSTER") && !IsKeyword("HAVING")) {
        ref.alias = lex_.Take().text;
      }
      q->from.push_back(std::move(ref));
      if (!IsPunct(",")) break;
      lex_.Take();
    }
    return Status::OK();
  }

  /// Parses an <op> name inside DEDUP/CLUSTER BY; accepts the two-word
  /// spelling "token filtering" used in the paper.
  Result<FilteringAlgo> ParseOpName() {
    if (lex_.Peek().kind != TokKind::kIdent) {
      return lex_.Error("expected filtering algorithm name");
    }
    std::string name = lex_.Take().text;
    if (lex_.Peek().kind == TokKind::kIdent && !IsPunct(",")) {
      // Two-word names: "token filtering".
      FilteringAlgo combined;
      if (ParseFilteringAlgo(name + " " + lex_.Peek().text, &combined)) {
        lex_.Take();
        return combined;
      }
    }
    FilteringAlgo algo;
    if (!ParseFilteringAlgo(name, &algo)) {
      return Status::ParseError("unknown filtering algorithm '" + name + "'");
    }
    return algo;
  }

  Result<SimilarityMetric> ParseMetricName() {
    if (lex_.Peek().kind != TokKind::kIdent) {
      return lex_.Error("expected similarity metric name");
    }
    const std::string name = lex_.Take().text;
    SimilarityMetric metric;
    if (!ParseSimilarityMetric(name, &metric)) {
      return Status::ParseError("unknown similarity metric '" + name + "'");
    }
    return metric;
  }

  /// A DEDUP / CLUSTER BY similarity threshold: a number in [0, 1].
  Result<double> ParseThreshold() {
    if (IsPunct("-")) return lex_.Error("similarity threshold must lie in [0, 1]");
    if (lex_.Peek().kind != TokKind::kNumber) {
      return lex_.Error("expected similarity threshold");
    }
    const double theta = lex_.Peek().number;
    if (!(theta >= 0.0 && theta <= 1.0)) {
      return lex_.Error("similarity threshold must lie in [0, 1]");
    }
    lex_.Take();
    return theta;
  }

  Status ParseFd(CleanMQuery* q) {
    CLEANM_RETURN_NOT_OK(ExpectPunct("("));
    FdClause fd;
    // attributesLHS , attributesRHS. Each side is one expression; multiple
    // attributes per side arrive as nested parens: FD((a, b), c).
    CLEANM_RETURN_NOT_OK(ParseAttrGroup(&fd.lhs));
    CLEANM_RETURN_NOT_OK(ExpectPunct(","));
    CLEANM_RETURN_NOT_OK(ParseAttrGroup(&fd.rhs));
    CLEANM_RETURN_NOT_OK(ExpectPunct(")"));
    q->fds.push_back(std::move(fd));
    return Status::OK();
  }

  /// One attribute, or a parenthesized list of attributes.
  Status ParseAttrGroup(std::vector<ExprPtr>* out) {
    if (IsPunct("(")) {
      lex_.Take();
      while (true) {
        CLEANM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        out->push_back(std::move(e));
        if (!IsPunct(",")) break;
        lex_.Take();
      }
      return ExpectPunct(")");
    }
    CLEANM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    out->push_back(std::move(e));
    return Status::OK();
  }

  Status ParseDedup(CleanMQuery* q) {
    CLEANM_RETURN_NOT_OK(ExpectPunct("("));
    DedupClause dedup;
    CLEANM_ASSIGN_OR_RETURN(dedup.op, ParseOpName());
    // Optional metric + theta: a metric name followed by a number.
    if (IsPunct(",")) {
      lex_.Take();
      if (lex_.Peek().kind == TokKind::kIdent) {
        SimilarityMetric metric;
        if (ParseSimilarityMetric(lex_.Peek().text, &metric)) {
          lex_.Take();
          dedup.metric = metric;
          CLEANM_RETURN_NOT_OK(ExpectPunct(","));
          CLEANM_ASSIGN_OR_RETURN(dedup.theta, ParseThreshold());
          if (IsPunct(",")) {
            lex_.Take();
          } else {
            CLEANM_RETURN_NOT_OK(ExpectPunct(")"));
            q->dedups.push_back(std::move(dedup));
            return Status::OK();
          }
        }
      }
      // Attributes.
      while (true) {
        CLEANM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        dedup.attributes.push_back(std::move(e));
        if (!IsPunct(",")) break;
        lex_.Take();
      }
    }
    CLEANM_RETURN_NOT_OK(ExpectPunct(")"));
    q->dedups.push_back(std::move(dedup));
    return Status::OK();
  }

  Status ParseClusterBy(CleanMQuery* q) {
    CLEANM_RETURN_NOT_OK(ExpectPunct("("));
    ClusterByClause cb;
    CLEANM_ASSIGN_OR_RETURN(cb.op, ParseOpName());
    CLEANM_RETURN_NOT_OK(ExpectPunct(","));
    // Optional metric + theta before the term.
    if (lex_.Peek().kind == TokKind::kIdent) {
      SimilarityMetric metric;
      if (ParseSimilarityMetric(lex_.Peek().text, &metric)) {
        lex_.Take();
        cb.metric = metric;
        CLEANM_RETURN_NOT_OK(ExpectPunct(","));
        CLEANM_ASSIGN_OR_RETURN(cb.theta, ParseThreshold());
        CLEANM_RETURN_NOT_OK(ExpectPunct(","));
      }
    }
    CLEANM_ASSIGN_OR_RETURN(cb.term, ParseExpr());
    CLEANM_RETURN_NOT_OK(ExpectPunct(")"));
    q->cluster_bys.push_back(std::move(cb));
    return Status::OK();
  }

  // ---- Expressions (precedence climbing) ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    CLEANM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (IsKeyword("OR")) {
      lex_.Take();
      CLEANM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    CLEANM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (IsKeyword("AND")) {
      lex_.Take();
      CLEANM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (IsKeyword("NOT")) {
      lex_.Take();
      CLEANM_ASSIGN_OR_RETURN(ExprPtr child, ParseNot());
      return Unary(UnaryOp::kNot, std::move(child));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    CLEANM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    struct CmpOp {
      const char* text;
      BinaryOp op;
    };
    static const CmpOp ops[] = {{"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                                {"<>", BinaryOp::kNe}, {"!=", BinaryOp::kNe},
                                {"=", BinaryOp::kEq},  {"<", BinaryOp::kLt},
                                {">", BinaryOp::kGt}};
    for (const auto& candidate : ops) {
      if (IsPunct(candidate.text)) {
        lex_.Take();
        CLEANM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Binary(candidate.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    CLEANM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (IsPunct("+") || IsPunct("-")) {
      const BinaryOp op = lex_.Take().text == "+" ? BinaryOp::kAdd : BinaryOp::kSub;
      CLEANM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    CLEANM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (IsPunct("*") || IsPunct("/")) {
      const BinaryOp op = lex_.Take().text == "*" ? BinaryOp::kMul : BinaryOp::kDiv;
      CLEANM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (IsPunct("-")) {
      lex_.Take();
      CLEANM_ASSIGN_OR_RETURN(ExprPtr child, ParseUnary());
      return Unary(UnaryOp::kNeg, std::move(child));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = lex_.Peek();
    switch (t.kind) {
      case TokKind::kNumber: {
        Token num = lex_.Take();
        if (num.is_int) return ConstInt(static_cast<int64_t>(num.number));
        return ConstDouble(num.number);
      }
      case TokKind::kString:
        return ConstString(lex_.Take().text);
      case TokKind::kIdent: {
        if (t.upper == "TRUE") {
          lex_.Take();
          return ConstBool(true);
        }
        if (t.upper == "FALSE") {
          lex_.Take();
          return ConstBool(false);
        }
        if (t.upper == "NULL") {
          lex_.Take();
          return Const(Value::Null());
        }
        Token ident = lex_.Take();
        // Function call?
        if (IsPunct("(")) {
          lex_.Take();
          std::vector<ExprPtr> args;
          if (!IsPunct(")")) {
            while (true) {
              CLEANM_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
              if (!IsPunct(",")) break;
              lex_.Take();
            }
          }
          CLEANM_RETURN_NOT_OK(ExpectPunct(")"));
          ExprPtr call = Call(ident.text, std::move(args));
          call->src_pos = ident.pos;
          return ParsePostfix(std::move(call));
        }
        return ParsePostfix(Var(ident.text));
      }
      case TokKind::kPunct:
        if (t.text == "(") {
          lex_.Take();
          CLEANM_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          CLEANM_RETURN_NOT_OK(ExpectPunct(")"));
          return ParsePostfix(std::move(inner));
        }
        return lex_.Error("unexpected token in expression");
      case TokKind::kEnd:
        return lex_.Error("unexpected end of input in expression");
    }
    return lex_.Error("unexpected token");
  }

  Result<ExprPtr> ParsePostfix(ExprPtr base) {
    while (IsPunct(".")) {
      lex_.Take();
      if (lex_.Peek().kind != TokKind::kIdent) return lex_.Error("expected field name");
      base = FieldAccess(std::move(base), lex_.Take().text);
    }
    return base;
  }

  Lexer lex_;
};

}  // namespace

Result<CleanMQuery> ParseCleanM(const std::string& query) {
  Parser parser(query);
  return parser.ParseQuery();
}

Result<ExprPtr> ParseCleanMExpr(const std::string& text) {
  Parser parser(text);
  return parser.ParseStandaloneExpr();
}

void LineColumnAt(const std::string& text, size_t offset, size_t* line,
                  size_t* column) {
  *line = 1;
  *column = 1;
  for (size_t i = 0; i < offset && i < text.size(); i++) {
    if (text[i] == '\n') {
      (*line)++;
      *column = 1;
    } else {
      (*column)++;
    }
  }
}

}  // namespace cleanm
