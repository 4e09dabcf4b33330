#include "moa/expr.h"

#include <charconv>
#include <system_error>

#include "base/str_util.h"

namespace mirror::moa {

namespace {

ExprPtr MakeExpr(Expr e) { return std::make_shared<const Expr>(std::move(e)); }

}  // namespace

ExprPtr Expr::Map(ExprPtr body, ExprPtr set) {
  Expr e{.op = Op::kMap};
  e.children = {std::move(body), std::move(set)};
  return MakeExpr(std::move(e));
}

ExprPtr Expr::Select(ExprPtr pred, ExprPtr set) {
  Expr e{.op = Op::kSelect};
  e.children = {std::move(pred), std::move(set)};
  return MakeExpr(std::move(e));
}

ExprPtr Expr::SemiJoin(ExprPtr left, ExprPtr right) {
  Expr e{.op = Op::kSemiJoin};
  e.children = {std::move(left), std::move(right)};
  return MakeExpr(std::move(e));
}

ExprPtr Expr::Agg(AggKind kind, ExprPtr arg) {
  Expr e{.op = Op::kAgg};
  e.agg = kind;
  e.children = {std::move(arg)};
  return MakeExpr(std::move(e));
}

ExprPtr Expr::GetBL(ExprPtr rep, std::string qvar, std::string statsvar) {
  Expr e{.op = Op::kGetBL};
  e.children = {std::move(rep)};
  e.qvar = std::move(qvar);
  e.statsvar = std::move(statsvar);
  return MakeExpr(std::move(e));
}

ExprPtr Expr::TopN(ExprPtr set, int64_t n) {
  Expr e{.op = Op::kTopN};
  e.children = {std::move(set)};
  e.n = n;
  return MakeExpr(std::move(e));
}

ExprPtr Expr::This() { return MakeExpr(Expr{.op = Op::kThis}); }

ExprPtr Expr::Field(ExprPtr base, std::string name) {
  Expr e{.op = Op::kField};
  e.children = {std::move(base)};
  e.name = std::move(name);
  return MakeExpr(std::move(e));
}

ExprPtr Expr::Var(std::string name) {
  Expr e{.op = Op::kVarRef};
  e.name = std::move(name);
  return MakeExpr(std::move(e));
}

ExprPtr Expr::Lit(monet::Value v) {
  Expr e{.op = Op::kLit};
  e.literal = std::move(v);
  return MakeExpr(std::move(e));
}

ExprPtr Expr::Cmp(CmpKind kind, ExprPtr lhs, ExprPtr rhs) {
  Expr e{.op = Op::kCmp};
  e.cmp = kind;
  e.children = {std::move(lhs), std::move(rhs)};
  return MakeExpr(std::move(e));
}

ExprPtr Expr::Arith(ArithKind kind, ExprPtr lhs, ExprPtr rhs) {
  Expr e{.op = Op::kArith};
  e.arith = kind;
  e.children = {std::move(lhs), std::move(rhs)};
  return MakeExpr(std::move(e));
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  Expr e{.op = Op::kAnd};
  e.children = {std::move(lhs), std::move(rhs)};
  return MakeExpr(std::move(e));
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  Expr e{.op = Op::kOr};
  e.children = {std::move(lhs), std::move(rhs)};
  return MakeExpr(std::move(e));
}

std::string Expr::ToString() const {
  switch (op) {
    case Op::kMap:
      return "map[" + children[0]->ToString() + "](" +
             children[1]->ToString() + ")";
    case Op::kSelect:
      return "select[" + children[0]->ToString() + "](" +
             children[1]->ToString() + ")";
    case Op::kSemiJoin:
      return "semijoin(" + children[0]->ToString() + ", " +
             children[1]->ToString() + ")";
    case Op::kAgg: {
      const char* name = "?";
      switch (agg) {
        case AggKind::kSum:
          name = "sum";
          break;
        case AggKind::kCount:
          name = "count";
          break;
        case AggKind::kMax:
          name = "max";
          break;
        case AggKind::kMin:
          name = "min";
          break;
        case AggKind::kAvg:
          name = "avg";
          break;
        case AggKind::kProd:
          name = "pand";
          break;
        case AggKind::kProbOr:
          name = "por";
          break;
      }
      return std::string(name) + "(" + children[0]->ToString() + ")";
    }
    case Op::kGetBL:
      return "getBL(" + children[0]->ToString() + ", " + qvar + ", " +
             statsvar + ")";
    case Op::kTopN:
      return base::StrFormat("topN(%s, %lld)",
                             children[0]->ToString().c_str(),
                             static_cast<long long>(n));
    case Op::kThis:
      return "THIS";
    case Op::kField:
      return children[0]->ToString() + "." + name;
    case Op::kVarRef:
      return name;
    case Op::kLit:
      switch (literal.type()) {
        case monet::ValueType::kInt:
          return base::StrFormat("%lld", static_cast<long long>(literal.i()));
        case monet::ValueType::kDbl:
          return base::ShortestDouble(literal.d());
        case monet::ValueType::kStr:
          return "'" + literal.s() + "'";
        default:
          return literal.ToString();
      }
    case Op::kCmp: {
      const char* sym = "?";
      switch (cmp) {
        case CmpKind::kEq:
          sym = "==";
          break;
        case CmpKind::kNeq:
          sym = "!=";
          break;
        case CmpKind::kLt:
          sym = "<";
          break;
        case CmpKind::kLe:
          sym = "<=";
          break;
        case CmpKind::kGt:
          sym = ">";
          break;
        case CmpKind::kGe:
          sym = ">=";
          break;
      }
      return children[0]->ToString() + " " + sym + " " +
             children[1]->ToString();
    }
    case Op::kArith: {
      const char* sym = "?";
      switch (arith) {
        case ArithKind::kAdd:
          sym = "+";
          break;
        case ArithKind::kSub:
          sym = "-";
          break;
        case ArithKind::kMul:
          sym = "*";
          break;
        case ArithKind::kDiv:
          sym = "/";
          break;
      }
      return "(" + children[0]->ToString() + " " + sym + " " +
             children[1]->ToString() + ")";
    }
    case Op::kAnd:
      return "(" + children[0]->ToString() + " and " +
             children[1]->ToString() + ")";
    case Op::kOr:
      return "(" + children[0]->ToString() + " or " +
             children[1]->ToString() + ")";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Recursive-descent parser.

namespace {

class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  base::Result<ExprPtr> Parse() {
    auto e = ParseOr();
    if (!e.ok()) return e;
    SkipSpace();
    Consume(';');
    SkipSpace();
    if (pos_ != text_.size()) {
      return base::Status::ParseError("trailing input after expression: '" +
                                      std::string(text_.substr(pos_)) + "'");
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  static bool IsIdentStart(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  }
  static bool IsIdentChar(char c) {
    return IsIdentStart(c) || (c >= '0' && c <= '9');
  }

  std::string PeekIdent() {
    SkipSpace();
    size_t p = pos_;
    if (p >= text_.size() || !IsIdentStart(text_[p])) return "";
    size_t start = p;
    while (p < text_.size() && IsIdentChar(text_[p])) ++p;
    return std::string(text_.substr(start, p - start));
  }

  std::string ConsumeIdent() {
    std::string ident = PeekIdent();
    SkipSpace();
    pos_ += ident.size();
    return ident;
  }

  base::Result<ExprPtr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    ExprPtr out = lhs.TakeValue();
    while (PeekIdent() == "or") {
      ConsumeIdent();
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      out = Expr::Or(out, rhs.TakeValue());
    }
    return out;
  }

  base::Result<ExprPtr> ParseAnd() {
    auto lhs = ParseCmp();
    if (!lhs.ok()) return lhs;
    ExprPtr out = lhs.TakeValue();
    while (PeekIdent() == "and") {
      ConsumeIdent();
      auto rhs = ParseCmp();
      if (!rhs.ok()) return rhs;
      out = Expr::And(out, rhs.TakeValue());
    }
    return out;
  }

  base::Result<ExprPtr> ParseCmp() {
    auto lhs = ParseAdd();
    if (!lhs.ok()) return lhs;
    SkipSpace();
    CmpKind kind;
    if (TryConsumeOp("==")) {
      kind = CmpKind::kEq;
    } else if (TryConsumeOp("!=")) {
      kind = CmpKind::kNeq;
    } else if (TryConsumeOp("<=")) {
      kind = CmpKind::kLe;
    } else if (TryConsumeOp(">=")) {
      kind = CmpKind::kGe;
    } else if (TryConsumeOp("<")) {
      kind = CmpKind::kLt;
    } else if (TryConsumeOp(">")) {
      kind = CmpKind::kGt;
    } else {
      return lhs;
    }
    auto rhs = ParseAdd();
    if (!rhs.ok()) return rhs;
    return Expr::Cmp(kind, lhs.TakeValue(), rhs.TakeValue());
  }

  bool TryConsumeOp(std::string_view op) {
    SkipSpace();
    if (text_.substr(pos_, op.size()) != op) return false;
    // Avoid consuming "<" of "<=" etc.: single-char ops must not be
    // followed by '=' when a two-char variant exists.
    if (op.size() == 1 && pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
      return false;
    }
    pos_ += op.size();
    return true;
  }

  base::Result<ExprPtr> ParseAdd() {
    auto lhs = ParseMul();
    if (!lhs.ok()) return lhs;
    ExprPtr out = lhs.TakeValue();
    while (true) {
      SkipSpace();
      if (Consume('+')) {
        auto rhs = ParseMul();
        if (!rhs.ok()) return rhs;
        out = Expr::Arith(ArithKind::kAdd, out, rhs.TakeValue());
      } else if (Peek('-')) {
        ++pos_;
        auto rhs = ParseMul();
        if (!rhs.ok()) return rhs;
        out = Expr::Arith(ArithKind::kSub, out, rhs.TakeValue());
      } else {
        return out;
      }
    }
  }

  base::Result<ExprPtr> ParseMul() {
    auto lhs = ParsePrimary();
    if (!lhs.ok()) return lhs;
    ExprPtr out = lhs.TakeValue();
    while (true) {
      if (Consume('*')) {
        auto rhs = ParsePrimary();
        if (!rhs.ok()) return rhs;
        out = Expr::Arith(ArithKind::kMul, out, rhs.TakeValue());
      } else if (Consume('/')) {
        auto rhs = ParsePrimary();
        if (!rhs.ok()) return rhs;
        out = Expr::Arith(ArithKind::kDiv, out, rhs.TakeValue());
      } else {
        return out;
      }
    }
  }

  base::Result<ExprPtr> ParseNumber() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool has_dot = false;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.')) {
      if (text_[pos_] == '.') has_dot = true;
      ++pos_;
    }
    // The whole token must parse: a lone '.', a second '.' or an int
    // literal past int64 is a ParseError, never a partial value.
    std::string_view num = text_.substr(start, pos_ - start);
    if (!num.empty() && num.front() == '+') num.remove_prefix(1);
    const char* first = num.data();
    const char* last = first + num.size();
    std::from_chars_result r{};
    double d = 0;
    int64_t i = 0;
    if (has_dot) {
      r = std::from_chars(first, last, d);
    } else {
      r = std::from_chars(first, last, i);
    }
    if (num.empty() || r.ec != std::errc() || r.ptr != last) {
      std::string token(text_.substr(start, pos_ - start));
      return base::Status::ParseError(base::StrFormat(
          "malformed number '%s' at offset %zu", token.c_str(), start));
    }
    return Expr::Lit(has_dot ? monet::Value::MakeDbl(d)
                             : monet::Value::MakeInt(i));
  }

  base::Result<ExprPtr> ParsePrimary() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return base::Status::ParseError("unexpected end of query");
    }
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      auto inner = ParseOr();
      if (!inner.ok()) return inner;
      if (!Consume(')')) {
        return base::Status::ParseError("expected ')'");
      }
      return inner;
    }
    if (c == '\'') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '\'') ++pos_;
      if (pos_ >= text_.size()) {
        return base::Status::ParseError("unterminated string literal");
      }
      std::string s(text_.substr(start, pos_ - start));
      ++pos_;
      return Expr::Lit(monet::Value::MakeStr(std::move(s)));
    }
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.') {
      return ParseNumber();
    }
    std::string ident = PeekIdent();
    if (ident.empty()) {
      return base::Status::ParseError(
          base::StrFormat("unexpected character '%c' at offset %zu", c, pos_));
    }
    ConsumeIdent();
    if (ident == "map" || ident == "select") {
      if (!Consume('[')) {
        return base::Status::ParseError("expected '[' after " + ident);
      }
      auto body = ParseOr();
      if (!body.ok()) return body;
      if (!Consume(']')) {
        return base::Status::ParseError("expected ']' closing " + ident);
      }
      if (!Consume('(')) {
        return base::Status::ParseError("expected '(' after " + ident + "[..]");
      }
      auto set = ParseOr();
      if (!set.ok()) return set;
      if (!Consume(')')) {
        return base::Status::ParseError("expected ')' closing " + ident);
      }
      return ident == "map" ? Expr::Map(body.TakeValue(), set.TakeValue())
                            : Expr::Select(body.TakeValue(), set.TakeValue());
    }
    if (ident == "semijoin") {
      if (!Consume('(')) {
        return base::Status::ParseError("expected '(' after semijoin");
      }
      auto left = ParseOr();
      if (!left.ok()) return left;
      if (!Consume(',')) {
        return base::Status::ParseError("expected ',' in semijoin");
      }
      auto right = ParseOr();
      if (!right.ok()) return right;
      if (!Consume(')')) {
        return base::Status::ParseError("expected ')' closing semijoin");
      }
      return Expr::SemiJoin(left.TakeValue(), right.TakeValue());
    }
    if (ident == "sum" || ident == "count" || ident == "max" ||
        ident == "min" || ident == "avg" || ident == "pand" ||
        ident == "por") {
      if (!Consume('(')) {
        return base::Status::ParseError("expected '(' after " + ident);
      }
      auto arg = ParseOr();
      if (!arg.ok()) return arg;
      if (!Consume(')')) {
        return base::Status::ParseError("expected ')' closing " + ident);
      }
      AggKind kind = AggKind::kSum;
      if (ident == "count") kind = AggKind::kCount;
      if (ident == "max") kind = AggKind::kMax;
      if (ident == "min") kind = AggKind::kMin;
      if (ident == "avg") kind = AggKind::kAvg;
      if (ident == "pand") kind = AggKind::kProd;
      if (ident == "por") kind = AggKind::kProbOr;
      return Expr::Agg(kind, arg.TakeValue());
    }
    if (ident == "getBL") {
      if (!Consume('(')) {
        return base::Status::ParseError("expected '(' after getBL");
      }
      auto rep = ParseOr();
      if (!rep.ok()) return rep;
      if (!Consume(',')) {
        return base::Status::ParseError("expected ',' after getBL rep arg");
      }
      std::string qvar = ConsumeIdent();
      if (qvar.empty()) {
        return base::Status::ParseError("expected query variable in getBL");
      }
      if (!Consume(',')) {
        return base::Status::ParseError("expected ',' after getBL query arg");
      }
      std::string statsvar = ConsumeIdent();
      if (statsvar.empty()) {
        return base::Status::ParseError("expected stats variable in getBL");
      }
      if (!Consume(')')) {
        return base::Status::ParseError("expected ')' closing getBL");
      }
      return Expr::GetBL(rep.TakeValue(), std::move(qvar),
                         std::move(statsvar));
    }
    if (ident == "topN") {
      if (!Consume('(')) {
        return base::Status::ParseError("expected '(' after topN");
      }
      auto set = ParseOr();
      if (!set.ok()) return set;
      if (!Consume(',')) {
        return base::Status::ParseError("expected ',' in topN");
      }
      auto n = ParseNumber();
      if (!n.ok()) return n;
      const monet::Value& count = n.value()->literal;
      if (count.type() != monet::ValueType::kInt || count.i() < 0) {
        return base::Status::ParseError(
            "topN count must be a non-negative int literal");
      }
      if (!Consume(')')) {
        return base::Status::ParseError("expected ')' closing topN");
      }
      return Expr::TopN(set.TakeValue(), count.i());
    }
    if (ident == "THIS") {
      ExprPtr out = Expr::This();
      while (Consume('.')) {
        std::string field = ConsumeIdent();
        if (field.empty()) {
          return base::Status::ParseError("expected field name after '.'");
        }
        out = Expr::Field(out, std::move(field));
      }
      return out;
    }
    // Named set or bound variable (optionally with field access).
    ExprPtr out = Expr::Var(ident);
    while (Consume('.')) {
      std::string field = ConsumeIdent();
      if (field.empty()) {
        return base::Status::ParseError("expected field name after '.'");
      }
      out = Expr::Field(out, std::move(field));
    }
    return out;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

base::Result<ExprPtr> ParseExpr(std::string_view text) {
  return ExprParser(text).Parse();
}

}  // namespace mirror::moa
