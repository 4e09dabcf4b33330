#include "moa/flatten.h"

#include <cmath>
#include <map>
#include <memory>

#include "base/str_util.h"

namespace mirror::moa {

namespace mil = monet::mil;
using monet::Bat;
using monet::BinOp;
using monet::CmpOp;
using monet::Column;
using monet::UnOp;
using monet::Value;

namespace {

/// The compile-time shape of a subexpression.
struct Compiled {
  enum class Kind { kScope, kBat, kScalar };
  Kind kind = Kind::kBat;
  // kScope: a stored set, possibly restricted to candidate oids.
  const FlatSet* set = nullptr;
  int candidates = -1;  // register of a BAT whose heads are surviving oids
  // kBat / kScalar: the value register.
  int reg = -1;
};

// A comparison of a subject (THIS or THIS.<field>) with a literal,
// normalized so the subject is on the left; `subject` is null when
// neither side is a literal.
struct LiteralCmp {
  const Expr* subject = nullptr;
  CmpOp cmp = CmpOp::kEq;
  const Value* literal = nullptr;
};

// One step of a conjunction: a conjunct compiled on its own (`pred`),
// or, when `pred` is null, a lower and an upper bound on one subject
// compiled as a single select.range.
struct ConjunctStep {
  ExprPtr pred;
  LiteralCmp lower;
  LiteralCmp upper;
};

class Compiler {
 public:
  Compiler(const Database* db, const QueryContext* ctx,
           const FlattenOptions& options)
      : db_(db), ctx_(ctx), options_(options) {}

  base::Result<mil::Program> Run(const ExprPtr& expr) {
    auto out = CompileNode(expr);
    if (!out.ok()) return out.status();
    Compiled c = out.TakeValue();
    int result = -1;
    switch (c.kind) {
      case Compiled::Kind::kScalar:
      case Compiled::Kind::kBat:
        result = c.reg;
        break;
      case Compiled::Kind::kScope: {
        // A bare set scan results in its oid identity BAT.
        auto base = BaseReg(c);
        if (!base.ok()) return base.status();
        result = EmitUnary(mil::OpCode::kMirror, base.value());
        break;
      }
    }
    prog_.set_result_reg(result);
    return std::move(prog_);
  }

 private:
  // -- Emission helpers ----------------------------------------------------

  // Appends `i` writing a fresh register; returns that register. Under
  // optimization an instruction identical to an earlier one (all MIL
  // operators are pure) returns the earlier register instead, so shared
  // column loads and semijoins are emitted once.
  int Emit(mil::Instr i) {
    if (options_.optimize) {
      for (const mil::Instr& prior : prog_.instrs()) {
        if (prior.SameOperation(i)) return prior.dst;
      }
    }
    i.dst = prog_.NewReg();
    return prog_.Emit(std::move(i));
  }

  int EmitLoad(const std::string& name) {
    mil::Instr i;
    i.op = mil::OpCode::kLoadNamed;
    i.name = name;
    return Emit(std::move(i));
  }

  int EmitConst(Bat bat) {
    mil::Instr i;
    i.op = mil::OpCode::kConstBat;
    i.const_bat = std::make_shared<const Bat>(std::move(bat));
    return Emit(std::move(i));
  }

  int EmitUnary(mil::OpCode op, int src) {
    mil::Instr i;
    i.op = op;
    i.src0 = src;
    return Emit(std::move(i));
  }

  int EmitBinary(mil::OpCode op, int src0, int src1) {
    mil::Instr i;
    i.op = op;
    i.src0 = src0;
    i.src1 = src1;
    return Emit(std::move(i));
  }

  int EmitSelectCmp(int src, CmpOp cmp, Value v) {
    mil::Instr i;
    i.op = mil::OpCode::kSelectCmp;
    i.src0 = src;
    i.cmp_op = cmp;
    i.imm0 = std::move(v);
    return Emit(std::move(i));
  }

  int EmitSelectRange(int src, const LiteralCmp& lower,
                      const LiteralCmp& upper) {
    mil::Instr i;
    i.op = mil::OpCode::kSelectRange;
    i.src0 = src;
    i.imm0 = *lower.literal;
    i.imm1 = *upper.literal;
    i.flag0 = lower.cmp == CmpOp::kGe;
    i.flag1 = upper.cmp == CmpOp::kLe;
    return Emit(std::move(i));
  }

  int EmitMapScalar(int src, BinOp op, Value v) {
    mil::Instr i;
    i.op = mil::OpCode::kMapBinaryScalar;
    i.src0 = src;
    i.bin_op = op;
    i.imm0 = std::move(v);
    return Emit(std::move(i));
  }

  int EmitMapBinary(int l, int r, BinOp op) {
    mil::Instr i;
    i.op = mil::OpCode::kMapBinary;
    i.src0 = l;
    i.src1 = r;
    i.bin_op = op;
    return Emit(std::move(i));
  }

  int EmitUnaryOp(int src, UnOp op) {
    mil::Instr i;
    i.op = mil::OpCode::kMapUnary;
    i.src0 = src;
    i.un_op = op;
    return Emit(std::move(i));
  }

  int EmitFill(int src, Value v) {
    mil::Instr i;
    i.op = mil::OpCode::kFillTail;
    i.src0 = src;
    i.imm0 = std::move(v);
    return Emit(std::move(i));
  }

  int EmitBelief(int tf, int df, int len, const ir::CollectionStats& stats,
                 const monet::BeliefParams& params) {
    mil::Instr i;
    i.op = mil::OpCode::kBelief;
    i.src0 = tf;
    i.src1 = df;
    i.src2 = len;
    i.num_docs = stats.num_docs;
    i.avg_doclen = stats.avg_doclen;
    i.belief = params;
    return Emit(std::move(i));
  }

  int EmitTopN(int src, int64_t n, bool descending = true) {
    mil::Instr i;
    i.op = mil::OpCode::kTopN;
    i.src0 = src;
    i.n = n;
    i.flag0 = descending;
    return Emit(std::move(i));
  }

  int EmitScalarFold(int src, monet::FoldOp op) {
    mil::Instr i;
    i.op = mil::OpCode::kScalarFold;
    i.src0 = src;
    i.fold_op = op;
    return Emit(std::move(i));
  }

  int EmitScalarBin(int src0, int src1, BinOp op) {
    mil::Instr i;
    i.op = mil::OpCode::kScalarBin;
    i.src0 = src0;
    i.src1 = src1;
    i.bin_op = op;
    return Emit(std::move(i));
  }

  int EmitScalarBinImm(int src0, BinOp op, Value v) {
    mil::Instr i;
    i.op = mil::OpCode::kScalarBin;
    i.src0 = src0;
    i.bin_op = op;
    i.imm0 = std::move(v);
    return Emit(std::move(i));
  }

  // A register holding a BAT whose heads enumerate the scope's oids.
  base::Result<int> BaseReg(const Compiled& scope) {
    if (scope.candidates >= 0) return scope.candidates;
    MIRROR_CHECK(scope.set != nullptr);
    for (const FieldBinding& f : scope.set->fields) {
      if (!f.bat_name.empty()) return EmitLoad(f.bat_name);
    }
    for (const auto& contrep : scope.set->contreps) {
      return EmitLoad(contrep->len_bat);
    }
    return base::Status::Unimplemented(
        "set '" + scope.set->name + "' has no loadable base column");
  }

  // -- Core compilation ----------------------------------------------------

  base::Result<Compiled> CompileNode(const ExprPtr& expr) {
    switch (expr->op) {
      case Expr::Op::kVarRef: {
        auto set = db_->GetSet(expr->name);
        if (!set.ok()) return set.status();
        return Compiled{.kind = Compiled::Kind::kScope, .set = set.value()};
      }
      case Expr::Op::kSelect:
        return CompileSelect(expr);
      case Expr::Op::kSemiJoin:
        return CompileSemiJoin(expr);
      case Expr::Op::kMap:
        return CompileMap(expr);
      case Expr::Op::kAgg:
        return CompileAgg(expr);
      case Expr::Op::kTopN: {
        auto inner = CompileNode(expr->children[0]);
        if (!inner.ok()) return inner;
        if (inner.value().kind != Compiled::Kind::kBat) {
          return base::Status::TypeError("topN needs a mapped set");
        }
        return Compiled{.reg = EmitTopN(inner.value().reg, expr->n)};
      }
      default:
        return base::Status::Unimplemented("cannot flatten: " +
                                           expr->ToString());
    }
  }

  base::Result<Compiled> CompileSelect(const ExprPtr& expr) {
    auto inner = CompileNode(expr->children[1]);
    if (!inner.ok()) return inner;
    Compiled base = inner.TakeValue();
    if (base.kind == Compiled::Kind::kBat) {
      // Selection over a mapped set: predicate on THIS.
      auto reg = CompileValuePred(expr->children[0], base.reg);
      if (!reg.ok()) return reg.status();
      return Compiled{.reg = reg.value()};
    }
    if (base.kind != Compiled::Kind::kScope) {
      return base::Status::TypeError("select over a scalar");
    }
    auto cand = CompilePred(expr->children[0], base);
    if (!cand.ok()) return cand.status();
    return Compiled{.kind = Compiled::Kind::kScope,
                    .set = base.set,
                    .candidates = cand.value()};
  }

  // Predicate over a mapped BAT (THIS is the value): each conjunct
  // filters the survivors of the previous one.
  base::Result<int> CompileValuePred(const ExprPtr& pred, int bat_reg) {
    if (pred->op == Expr::Op::kCmp) {
      LiteralCmp c = AsLiteralCmp(*pred);
      if (c.subject != nullptr && c.subject->op == Expr::Op::kThis) {
        return EmitSelectCmp(bat_reg, c.cmp, *c.literal);
      }
    }
    if (pred->op == Expr::Op::kAnd) {
      int reg = bat_reg;
      for (const ConjunctStep& step : PlanConjunction(pred, Expr::Op::kThis)) {
        if (step.pred == nullptr) {
          reg = EmitSelectRange(reg, step.lower, step.upper);
          continue;
        }
        auto next = CompileValuePred(step.pred, reg);
        if (!next.ok()) return next;
        reg = next.value();
      }
      return reg;
    }
    return base::Status::Unimplemented(
        "unsupported predicate over mapped set: " + pred->ToString());
  }

  static LiteralCmp AsLiteralCmp(const Expr& pred) {
    const ExprPtr& lhs = pred.children[0];
    const ExprPtr& rhs = pred.children[1];
    LiteralCmp c;
    if (rhs->op == Expr::Op::kLit) {
      c = {lhs.get(), ToCmpOp(pred.cmp), &rhs->literal};
    } else if (lhs->op == Expr::Op::kLit) {
      c = {rhs.get(), FlipCmp(ToCmpOp(pred.cmp)), &lhs->literal};
    }
    return c;
  }

  static void CollectConjuncts(const ExprPtr& pred,
                               std::vector<ExprPtr>* out) {
    if (pred->op != Expr::Op::kAnd) {
      out->push_back(pred);
      return;
    }
    CollectConjuncts(pred->children[0], out);
    CollectConjuncts(pred->children[1], out);
  }

  static bool IsLowerBound(CmpOp op) {
    return op == CmpOp::kGt || op == CmpOp::kGe;
  }

  static bool IsUpperBound(CmpOp op) {
    return op == CmpOp::kLt || op == CmpOp::kLe;
  }

  // Flattens nested `and`s into steps in conjunct order. Under
  // optimization the first lower bound (> or >=) and the first upper
  // bound (< or <=) against literals on each `subject_op` subject (THIS
  // over a mapped set, THIS.<field> over a stored one) pair into one range
  // step, placed where the earlier of the two stood. Every other conjunct
  // (a further bound, ==, !=, an `or`) stays a step of its own: selection
  // preserves tails, so the range equals the two chained selects.
  std::vector<ConjunctStep> PlanConjunction(const ExprPtr& pred,
                                            Expr::Op subject_op) const {
    std::vector<ExprPtr> leaves;
    CollectConjuncts(pred, &leaves);
    std::vector<LiteralCmp> cmps(leaves.size());
    struct FirstBounds {
      int lower = -1;
      int upper = -1;
    };
    std::map<std::string, FirstBounds> firsts;  // by subject text
    for (size_t k = 0; options_.optimize && k < leaves.size(); ++k) {
      if (leaves[k]->op != Expr::Op::kCmp) continue;
      cmps[k] = AsLiteralCmp(*leaves[k]);
      const Expr* subject = cmps[k].subject;
      if (subject == nullptr || subject->op != subject_op) continue;
      FirstBounds& f = firsts[subject->ToString()];
      const int at = static_cast<int>(k);
      if (IsLowerBound(cmps[k].cmp) && f.lower < 0) f.lower = at;
      if (IsUpperBound(cmps[k].cmp) && f.upper < 0) f.upper = at;
    }
    std::vector<int> partner(leaves.size(), -1);
    for (const auto& [subject, f] : firsts) {
      if (f.lower < 0 || f.upper < 0) continue;
      partner[static_cast<size_t>(f.lower)] = f.upper;
      partner[static_cast<size_t>(f.upper)] = f.lower;
    }
    std::vector<ConjunctStep> steps;
    for (size_t k = 0; k < leaves.size(); ++k) {
      const int p = partner[k];
      if (p < 0) {
        steps.push_back({leaves[k], {}, {}});
      } else if (p > static_cast<int>(k)) {  // the later bound is skipped
        const LiteralCmp& other = cmps[static_cast<size_t>(p)];
        const bool lower_first = IsLowerBound(cmps[k].cmp);
        steps.push_back({nullptr, lower_first ? cmps[k] : other,
                         lower_first ? other : cmps[k]});
      }
    }
    return steps;
  }

  static CmpOp ToCmpOp(CmpKind kind) {
    switch (kind) {
      case CmpKind::kEq:
        return CmpOp::kEq;
      case CmpKind::kNeq:
        return CmpOp::kNeq;
      case CmpKind::kLt:
        return CmpOp::kLt;
      case CmpKind::kLe:
        return CmpOp::kLe;
      case CmpKind::kGt:
        return CmpOp::kGt;
      case CmpKind::kGe:
        return CmpOp::kGe;
    }
    MIRROR_UNREACHABLE();
    return CmpOp::kEq;
  }

  static CmpOp FlipCmp(CmpOp op) {
    switch (op) {
      case CmpOp::kLt:
        return CmpOp::kGt;
      case CmpOp::kLe:
        return CmpOp::kGe;
      case CmpOp::kGt:
        return CmpOp::kLt;
      case CmpOp::kGe:
        return CmpOp::kLe;
      default:
        return op;  // symmetric
    }
  }

  // Predicate over a set scope; returns a candidates register.
  base::Result<int> CompilePred(const ExprPtr& pred, const Compiled& scope) {
    switch (pred->op) {
      case Expr::Op::kCmp: {
        LiteralCmp c = AsLiteralCmp(*pred);
        if (c.subject == nullptr || c.subject->op != Expr::Op::kField) {
          return base::Status::Unimplemented(
              "selection predicates must compare THIS.<field> with a "
              "literal: " +
              pred->ToString());
        }
        auto bat = LoadScopedField(*c.subject, scope);
        if (!bat.ok()) return bat.status();
        return EmitSelectCmp(bat.value(), c.cmp, *c.literal);
      }
      case Expr::Op::kAnd: {
        if (!options_.optimize) {
          // Independent evaluation of both sides, intersected.
          auto l = CompilePred(pred->children[0], scope);
          if (!l.ok()) return l;
          auto r = CompilePred(pred->children[1], scope);
          if (!r.ok()) return r;
          return EmitBinary(mil::OpCode::kSemiJoinHead, l.value(), r.value());
        }
        // Thread each step's candidates into the next (sequential
        // filtering): strictly fewer tuples than independent evaluation.
        Compiled threaded = scope;
        for (const ConjunctStep& step :
             PlanConjunction(pred, Expr::Op::kField)) {
          base::Result<int> cand = -1;
          if (step.pred != nullptr) {
            cand = CompilePred(step.pred, threaded);
          } else {
            auto bat = LoadScopedField(*step.lower.subject, threaded);
            if (!bat.ok()) return bat;
            cand = EmitSelectRange(bat.value(), step.lower, step.upper);
          }
          if (!cand.ok()) return cand;
          threaded.candidates = cand.value();
        }
        return threaded.candidates;
      }
      case Expr::Op::kOr: {
        auto l = CompilePred(pred->children[0], scope);
        if (!l.ok()) return l;
        auto r = CompilePred(pred->children[1], scope);
        if (!r.ok()) return r;
        // Union of candidates; AntiJoin the right side first so Concat
        // introduces no duplicate oids.
        int r_minus_l =
            EmitBinary(mil::OpCode::kAntiJoinHead, r.value(), l.value());
        return EmitBinary(mil::OpCode::kConcat, l.value(), r_minus_l);
      }
      default:
        return base::Status::Unimplemented("unsupported predicate: " +
                                           pred->ToString());
    }
  }

  // Loads THIS.<field> restricted to the scope's candidates.
  base::Result<int> LoadScopedField(const Expr& field_expr,
                                    const Compiled& scope) {
    if (field_expr.children[0]->op != Expr::Op::kThis) {
      return base::Status::Unimplemented(
          "only THIS.<field> references are supported");
    }
    MIRROR_CHECK(scope.set != nullptr);
    const FieldBinding* binding = scope.set->FindField(field_expr.name);
    if (binding == nullptr || binding->bat_name.empty()) {
      return base::Status::NotFound(
          "no atomic field '" + field_expr.name + "' in " + scope.set->name);
    }
    int reg = EmitLoad(binding->bat_name);
    if (scope.candidates >= 0) {
      reg = EmitBinary(mil::OpCode::kSemiJoinHead, reg, scope.candidates);
    }
    return reg;
  }

  base::Result<Compiled> CompileSemiJoin(const ExprPtr& expr) {
    auto left = CompileNode(expr->children[0]);
    if (!left.ok()) return left;
    auto right = CompileNode(expr->children[1]);
    if (!right.ok()) return right;
    int right_reg = -1;
    if (right.value().kind == Compiled::Kind::kScope) {
      auto base = BaseReg(right.value());
      if (!base.ok()) return base.status();
      right_reg = base.value();
    } else if (right.value().kind == Compiled::Kind::kBat) {
      right_reg = right.value().reg;
    } else {
      return base::Status::TypeError("semijoin's right side must be a set");
    }
    if (left.value().kind == Compiled::Kind::kBat) {
      // Mapped left side: filter the result BAT by oid membership.
      return Compiled{.reg = EmitBinary(mil::OpCode::kSemiJoinHead,
                                        left.value().reg, right_reg)};
    }
    if (left.value().kind != Compiled::Kind::kScope) {
      return base::Status::TypeError("semijoin's left side must be a set");
    }
    auto left_base = BaseReg(left.value());
    if (!left_base.ok()) return left_base.status();
    return Compiled{
        .kind = Compiled::Kind::kScope,
        .set = left.value().set,
        .candidates = EmitBinary(mil::OpCode::kSemiJoinHead,
                                 left_base.value(), right_reg)};
  }

  base::Result<Compiled> CompileMap(const ExprPtr& expr) {
    const ExprPtr& body = expr->children[0];
    const ExprPtr& source = expr->children[1];

    // Fused ranking pattern: map[AGG(THIS)](map[getBL(...)](X)).
    if (body->op == Expr::Op::kAgg &&
        body->children[0]->op == Expr::Op::kThis &&
        source->op == Expr::Op::kMap &&
        source->children[0]->op == Expr::Op::kGetBL) {
      auto scope = CompileNode(source->children[1]);
      if (!scope.ok()) return scope;
      if (scope.value().kind != Compiled::Kind::kScope) {
        return base::Status::TypeError("getBL needs a stored set");
      }
      return CompileGetBLAggregate(body->agg, source->children[0],
                                   scope.value());
    }

    auto inner = CompileNode(source);
    if (!inner.ok()) return inner;
    Compiled base = inner.TakeValue();

    if (body->op == Expr::Op::kGetBL) {
      if (base.kind != Compiled::Kind::kScope) {
        return base::Status::TypeError("getBL needs a stored set");
      }
      auto evidence = CompileGetBLEvidence(body, base, /*with_weights=*/false);
      if (!evidence.ok()) return evidence.status();
      return Compiled{.reg = evidence.value().weighted_beliefs_by_doc};
    }

    auto reg = CompileMapBody(body, base);
    if (!reg.ok()) return reg.status();
    return Compiled{.reg = reg.value()};
  }

  // Scalar map body over a compiled source: a stored-set scope or an
  // already-mapped BAT.
  base::Result<int> CompileMapBody(const ExprPtr& body, const Compiled& base) {
    if (base.kind == Compiled::Kind::kScope) {
      return CompileScalarMap(body, base);
    }
    if (base.kind == Compiled::Kind::kBat) {
      return CompileScalarMapOverBat(body, base.reg);
    }
    return base::Status::TypeError("map over a scalar");
  }

  // Scalar map body over a stored-set scope.
  base::Result<int> CompileScalarMap(const ExprPtr& body,
                                     const Compiled& scope) {
    switch (body->op) {
      case Expr::Op::kField:
        return LoadScopedField(*body, scope);
      case Expr::Op::kThis: {
        auto base = BaseReg(scope);
        if (!base.ok()) return base;
        return EmitUnary(mil::OpCode::kMirror, base.value());
      }
      case Expr::Op::kLit: {
        auto base = BaseReg(scope);
        if (!base.ok()) return base;
        return EmitFill(base.value(), body->literal);
      }
      case Expr::Op::kArith: {
        const ExprPtr& lhs = body->children[0];
        const ExprPtr& rhs = body->children[1];
        BinOp op = ToBinOp(body->arith);
        if (rhs->op == Expr::Op::kLit) {
          auto l = CompileScalarMap(lhs, scope);
          if (!l.ok()) return l;
          return EmitMapScalar(l.value(), op, rhs->literal);
        }
        if (lhs->op == Expr::Op::kLit) {
          auto r = CompileScalarMap(rhs, scope);
          if (!r.ok()) return r;
          // lit (op) x: addition/multiplication commute; subtraction
          // negates; division is not supported in this position.
          if (body->arith == ArithKind::kAdd ||
              body->arith == ArithKind::kMul) {
            return EmitMapScalar(r.value(), op, lhs->literal);
          }
          if (body->arith == ArithKind::kSub) {
            int t = EmitMapScalar(r.value(), BinOp::kSub, lhs->literal);
            return EmitUnaryOp(t, UnOp::kNeg);
          }
          return base::Status::Unimplemented(
              "literal / expression is not supported in map bodies");
        }
        auto l = CompileScalarMap(lhs, scope);
        if (!l.ok()) return l;
        auto r = CompileScalarMap(rhs, scope);
        if (!r.ok()) return r;
        return EmitMapBinary(l.value(), r.value(), op);
      }
      default:
        return base::Status::Unimplemented("unsupported map body: " +
                                           body->ToString());
    }
  }

  // Scalar map body where THIS is the tail of an already-mapped BAT.
  base::Result<int> CompileScalarMapOverBat(const ExprPtr& body, int bat) {
    switch (body->op) {
      case Expr::Op::kThis:
        return bat;
      case Expr::Op::kArith: {
        const ExprPtr& lhs = body->children[0];
        const ExprPtr& rhs = body->children[1];
        BinOp op = ToBinOp(body->arith);
        if (rhs->op == Expr::Op::kLit) {
          auto l = CompileScalarMapOverBat(lhs, bat);
          if (!l.ok()) return l;
          return EmitMapScalar(l.value(), op, rhs->literal);
        }
        if (lhs->op == Expr::Op::kLit &&
            (body->arith == ArithKind::kAdd ||
             body->arith == ArithKind::kMul)) {
          auto r = CompileScalarMapOverBat(rhs, bat);
          if (!r.ok()) return r;
          return EmitMapScalar(r.value(), op, lhs->literal);
        }
        auto l = CompileScalarMapOverBat(lhs, bat);
        if (!l.ok()) return l;
        auto r = CompileScalarMapOverBat(rhs, bat);
        if (!r.ok()) return r;
        return EmitMapBinary(l.value(), r.value(), op);
      }
      default:
        return base::Status::Unimplemented(
            "unsupported map body over mapped set: " + body->ToString());
    }
  }

  static BinOp ToBinOp(ArithKind kind) {
    switch (kind) {
      case ArithKind::kAdd:
        return BinOp::kAdd;
      case ArithKind::kSub:
        return BinOp::kSub;
      case ArithKind::kMul:
        return BinOp::kMul;
      case ArithKind::kDiv:
        return BinOp::kDiv;
    }
    MIRROR_UNREACHABLE();
    return BinOp::kAdd;
  }

  // -- getBL ----------------------------------------------------------------

  struct GetBLEvidence {
    int weighted_beliefs_by_doc = -1;  // (doc -> w*bel), present terms only
    int weights_by_doc = -1;           // (doc -> w), aligned, if emitted
    const ContRepField* contrep = nullptr;
    ResolvedQuery query;
  };

  // Resolves getBL's CONTREP field in the scope's set and its query
  // variable's binding into `out->contrep` and `out->query`.
  base::Status ResolveGetBL(const ExprPtr& getbl, const Compiled& scope,
                            GetBLEvidence* out) const {
    const ExprPtr& rep = getbl->children[0];
    if (rep->op != Expr::Op::kField ||
        rep->children[0]->op != Expr::Op::kThis) {
      return base::Status::Unimplemented(
          "getBL's first argument must be THIS.<contrep field>");
    }
    MIRROR_CHECK(scope.set != nullptr);
    out->contrep = scope.set->FindContRep(rep->name);
    if (out->contrep == nullptr) {
      return base::Status::NotFound("no CONTREP field '" + rep->name +
                                    "' in " + scope.set->name);
    }
    const std::vector<WeightedTerm>* binding = ctx_->Find(getbl->qvar);
    if (binding == nullptr) {
      return base::Status::NotFound("unbound query variable: " + getbl->qvar);
    }
    out->query = ResolveQuery(*binding, out->contrep->index.vocab());
    return base::Status::Ok();
  }

  // Emits the query's evidence over the scope's postings. Under
  // optimization `weights_by_doc` is emitted only `with_weights` (the
  // sum/avg scores read it); the un-optimized translation, E2's
  // baseline, always emits it.
  base::Result<GetBLEvidence> CompileGetBLEvidence(const ExprPtr& getbl,
                                                   const Compiled& scope,
                                                   bool with_weights) {
    GetBLEvidence out;
    MIRROR_RETURN_IF_ERROR(ResolveGetBL(getbl, scope, &out));
    const ContRepField* contrep = out.contrep;

    // Constant query BATs.
    std::vector<int64_t> q_terms;
    std::vector<double> q_weights;
    for (const auto& [term, w] : out.query.present) {
      q_terms.push_back(term);
      q_weights.push_back(w);
    }
    int qb = EmitConst(Bat::DenseInts(q_terms));
    int qw = EmitConst(Bat(Column::MakeInts(q_terms),
                           Column::MakeDbls(q_weights)));

    int term = EmitLoad(contrep->term_bat);
    int tf = EmitLoad(contrep->tf_bat);
    int doc = EmitLoad(contrep->doc_bat);
    int df = EmitLoad(contrep->df_bat);
    int len = EmitLoad(contrep->len_bat);

    const ir::CollectionStats& stats = contrep->index.stats();
    const monet::BeliefParams& params = contrep->network->params();

    if (options_.optimize) {
      // Inverted evaluation: restrict the postings BEFORE computing
      // beliefs — first by query term, then by candidate documents.
      int keep = EmitBinary(mil::OpCode::kSemiJoinTail, term, qb);
      if (scope.candidates >= 0) {
        int keep_mirror = EmitUnary(mil::OpCode::kMirror, keep);
        int pd = EmitBinary(mil::OpCode::kJoin, keep_mirror, doc);
        int cand_rev = EmitUnary(mil::OpCode::kReverse, scope.candidates);
        keep = EmitBinary(mil::OpCode::kSemiJoinTail, pd, cand_rev);
      }
      int tf_k = EmitBinary(mil::OpCode::kSemiJoinHead, tf, keep);
      int term_k = EmitBinary(mil::OpCode::kSemiJoinHead, term, keep);
      int doc_k = EmitBinary(mil::OpCode::kSemiJoinHead, doc, keep);
      int df_k = EmitBinary(mil::OpCode::kJoin, term_k, df);
      int len_k = EmitBinary(mil::OpCode::kJoin, doc_k, len);
      int bel = EmitBelief(tf_k, df_k, len_k, stats, params);
      int w_k = EmitBinary(mil::OpCode::kJoin, term_k, qw);
      int wbel = EmitMapBinary(bel, w_k, BinOp::kMul);
      int docr = EmitUnary(mil::OpCode::kReverse, doc_k);
      out.weighted_beliefs_by_doc =
          EmitBinary(mil::OpCode::kJoin, docr, wbel);
      if (with_weights) {
        out.weights_by_doc = EmitBinary(mil::OpCode::kJoin, docr, w_k);
      }
      return out;
    }

    // Un-optimized translation: beliefs for every posting, filter after.
    int df_p = EmitBinary(mil::OpCode::kJoin, term, df);
    int len_p = EmitBinary(mil::OpCode::kJoin, doc, len);
    int bel_all = EmitBelief(tf, df_p, len_p, stats, params);
    int keep = EmitBinary(mil::OpCode::kSemiJoinTail, term, qb);
    int bel_k = EmitBinary(mil::OpCode::kSemiJoinHead, bel_all, keep);
    int term_k = EmitBinary(mil::OpCode::kSemiJoinHead, term, keep);
    int doc_k = EmitBinary(mil::OpCode::kSemiJoinHead, doc, keep);
    int w_k = EmitBinary(mil::OpCode::kJoin, term_k, qw);
    int wbel = EmitMapBinary(bel_k, w_k, BinOp::kMul);
    int docr = EmitUnary(mil::OpCode::kReverse, doc_k);
    int wbel_d = EmitBinary(mil::OpCode::kJoin, docr, wbel);
    int w_d = EmitBinary(mil::OpCode::kJoin, docr, w_k);
    if (scope.candidates >= 0) {
      // Candidate restriction applied after the content computation.
      wbel_d =
          EmitBinary(mil::OpCode::kSemiJoinHead, wbel_d, scope.candidates);
      w_d = EmitBinary(mil::OpCode::kSemiJoinHead, w_d, scope.candidates);
    }
    out.weighted_beliefs_by_doc = wbel_d;
    out.weights_by_doc = w_d;
    return out;
  }

  base::Result<Compiled> CompileGetBLAggregate(AggKind agg,
                                               const ExprPtr& getbl,
                                               const Compiled& scope) {
    if (agg == AggKind::kCount) {
      // count(getBL(...)) is the number of distinct query terms, for
      // every element (duplicates merge at resolution, see ResolveQuery).
      GetBLEvidence resolved;
      MIRROR_RETURN_IF_ERROR(ResolveGetBL(getbl, scope, &resolved));
      auto base = BaseReg(scope);
      if (!base.ok()) return base.status();
      return Compiled{.reg = EmitFill(
                          base.value(),
                          Value::MakeInt(resolved.query.term_count))};
    }
    if (agg != AggKind::kSum && agg != AggKind::kAvg &&
        agg != AggKind::kMax && agg != AggKind::kProd &&
        agg != AggKind::kProbOr) {
      return base::Status::Unimplemented(
          "min over getBL is not flattened; use the naive engine");
    }
    auto evidence = CompileGetBLEvidence(
        getbl, scope,
        /*with_weights=*/agg == AggKind::kSum || agg == AggKind::kAvg);
    if (!evidence.ok()) return evidence.status();
    const GetBLEvidence& ev = evidence.value();
    double alpha = ev.contrep->network->params().alpha;
    double total_weight = ev.query.total_weight;
    double term_count = static_cast<double>(ev.query.term_count);
    auto base = BaseReg(scope);
    if (!base.ok()) return base.status();

    // Completes a per-candidate aggregate `agg_reg` into a total map:
    // documents without evidence get the constant `no_evidence`.
    auto totalize = [&](int agg_reg, double no_evidence) {
      int miss = EmitBinary(mil::OpCode::kAntiJoinHead, base.value(),
                            agg_reg);
      int fill = EmitFill(miss, Value::MakeDbl(no_evidence));
      return EmitBinary(mil::OpCode::kConcat, agg_reg, fill);
    };
    Compiled c;
    c.kind = Compiled::Kind::kBat;

    if (agg == AggKind::kSum || agg == AggKind::kAvg) {
      // score = sum(w*bel) - alpha*sum(w_present) + alpha*W per document;
      // documents without evidence score alpha*W. avg divides by |q|.
      int s = EmitUnary(mil::OpCode::kSumPerHead, ev.weighted_beliefs_by_doc);
      int sw = EmitUnary(mil::OpCode::kSumPerHead, ev.weights_by_doc);
      int swa = EmitMapScalar(sw, BinOp::kMul, Value::MakeDbl(alpha));
      int s2 = EmitMapBinary(s, swa, BinOp::kSub);
      int s3 = EmitMapScalar(s2, BinOp::kAdd,
                             Value::MakeDbl(alpha * total_weight));
      c.reg = totalize(s3, alpha * total_weight);
      if (agg == AggKind::kAvg) {
        c.reg = EmitMapScalar(c.reg, BinOp::kDiv,
                              Value::MakeDbl(term_count));
      }
      return c;
    }

    if (agg == AggKind::kMax) {
      // Beliefs never fall below alpha, so absent terms (contributing
      // alpha) can only win when nothing is present at all — which the
      // fill handles. Restricted to unweighted queries: with weights the
      // absent terms' contributions (alpha * w) are document-dependent.
      MIRROR_RETURN_IF_ERROR(RequireUnweighted(ev, "max"));
      int m = EmitUnary(mil::OpCode::kMaxPerHead,
                        ev.weighted_beliefs_by_doc);
      c.reg = totalize(m, alpha);
      return c;
    }

    // Probabilistic AND / OR (InQuery #and, #or), unweighted:
    //   pand = prod(bel_present) * alpha^(missing)
    //   por  = 1 - prod(1 - bel_present) * (1 - alpha)^(missing)
    // with missing = |q| - hits per document.
    MIRROR_RETURN_IF_ERROR(
        RequireUnweighted(ev, agg == AggKind::kProd ? "pand" : "por"));
    if (alpha <= 0.0 || alpha >= 1.0) {
      return base::Status::InvalidArgument(
          "pand/por need a default belief strictly inside (0,1)");
    }
    int hits = EmitUnary(mil::OpCode::kCountPerHead,
                         ev.weighted_beliefs_by_doc);
    int neg_hits = EmitMapScalar(hits, BinOp::kMul, Value::MakeInt(-1));
    int missing = EmitMapScalar(neg_hits, BinOp::kAdd,
                                Value::MakeDbl(term_count));
    if (agg == AggKind::kProd) {
      int p = EmitUnary(mil::OpCode::kProdPerHead,
                        ev.weighted_beliefs_by_doc);
      int log_pow = EmitMapScalar(missing, BinOp::kMul,
                                  Value::MakeDbl(std::log(alpha)));
      int pow = EmitUnaryOp(log_pow, UnOp::kExp);
      int combined = EmitMapBinary(p, pow, BinOp::kMul);
      c.reg = totalize(combined, std::pow(alpha, term_count));
      return c;
    }
    int compl_bel = EmitUnaryOp(ev.weighted_beliefs_by_doc, UnOp::kOneMinus);
    int pc = EmitUnary(mil::OpCode::kProdPerHead, compl_bel);
    int log_pow = EmitMapScalar(missing, BinOp::kMul,
                                Value::MakeDbl(std::log(1.0 - alpha)));
    int pow = EmitUnaryOp(log_pow, UnOp::kExp);
    int combined = EmitMapBinary(pc, pow, BinOp::kMul);
    int por = EmitUnaryOp(combined, UnOp::kOneMinus);
    c.reg = totalize(por, 1.0 - std::pow(1.0 - alpha, term_count));
    return c;
  }

  static base::Status RequireUnweighted(const GetBLEvidence& ev,
                                        const char* what) {
    for (const auto& [term, weight] : ev.query.present) {
      if (weight != 1.0) {
        return base::Status::Unimplemented(
            std::string(what) +
            " over getBL is only flattened for unweighted queries");
      }
    }
    return base::Status::Ok();
  }

  base::Result<Compiled> CompileAgg(const ExprPtr& expr) {
    if (options_.optimize && expr->agg == AggKind::kSum &&
        IsMapOfSumOrDifference(*expr->children[0])) {
      return CompileSplitSum(*expr->children[0]);
    }
    auto inner = CompileNode(expr->children[0]);
    if (!inner.ok()) return inner;
    Compiled base = inner.TakeValue();
    Compiled c;
    c.kind = Compiled::Kind::kScalar;
    if (expr->agg == AggKind::kCount) {
      int src = -1;
      if (base.kind == Compiled::Kind::kBat) {
        src = base.reg;
      } else if (base.kind == Compiled::Kind::kScope) {
        auto b = BaseReg(base);
        if (!b.ok()) return b.status();
        src = b.value();
      } else {
        return base::Status::TypeError("count over a scalar");
      }
      c.reg = EmitUnary(mil::OpCode::kScalarCount, src);
      return c;
    }
    if (expr->agg == AggKind::kSum && base.kind == Compiled::Kind::kBat) {
      c.reg = EmitUnary(mil::OpCode::kScalarSum, base.reg);
      return c;
    }
    if (expr->agg == AggKind::kAvg && base.kind == Compiled::Kind::kBat) {
      // avg = sum / count, fused over the candidate view at execution
      // (both aggregates read the same unmaterialized register). The
      // naive oracle defines avg of the empty set as 0, so divide by
      // max(count, 1): sum is 0 there and the quotient matches.
      int sum = EmitUnary(mil::OpCode::kScalarSum, base.reg);
      int count = EmitUnary(mil::OpCode::kScalarCount, base.reg);
      int denom = EmitScalarBinImm(count, BinOp::kMax, Value::MakeDbl(1));
      c.reg = EmitScalarBin(sum, denom, BinOp::kDiv);
      return c;
    }
    if ((expr->agg == AggKind::kMax || expr->agg == AggKind::kMin) &&
        base.kind == Compiled::Kind::kBat) {
      const bool max = expr->agg == AggKind::kMax;
      if (options_.optimize) {
        // One scalar.fold reads the column once, fuses over candidate
        // views and is the form the shard engine merges across shards.
        // Its empty value is 0, the naive oracle's extremum of the empty
        // set.
        c.reg = EmitScalarFold(base.reg,
                               max ? monet::FoldOp::kMax : monet::FoldOp::kMin);
        return c;
      }
      // The un-optimized spelling: max = sum(topN(1, descending)), min
      // the ascending mirror. The bounded top-1 selection keeps the
      // extremum's single row and the scalar sum of a one-row BAT reads
      // it out; topN(1) of the empty set is empty, whose sum is 0.
      int one = EmitTopN(base.reg, 1, max);
      c.reg = EmitUnary(mil::OpCode::kScalarSum, one);
      return c;
    }
    return base::Status::Unimplemented(
        "only sum/count/avg/max/min scalar aggregates are flattened");
  }

  // map[a + b](X) or map[a - b](X) where neither operand is a literal:
  // the body that compiles to one multiplex map.bin.
  static bool IsMapOfSumOrDifference(const Expr& expr) {
    if (expr.op != Expr::Op::kMap) return false;
    const Expr& body = *expr.children[0];
    return body.op == Expr::Op::kArith &&
           (body.arith == ArithKind::kAdd || body.arith == ArithKind::kSub) &&
           body.children[0]->op != Expr::Op::kLit &&
           body.children[1]->op != Expr::Op::kLit;
  }

  // sum(map[a ± b](X)) = sum(map[a](X)) ± sum(map[b](X)): two scalar.sum
  // and one scalar.bin instead of a multiplex map.bin, which would force
  // both inputs to materialize, while the two sums run fused over the
  // candidate views. One level only: the operands compile as ordinary
  // map bodies. Heads are positionally aligned by construction, and int
  // sums widen to double either way.
  base::Result<Compiled> CompileSplitSum(const Expr& map) {
    auto inner = CompileNode(map.children[1]);
    if (!inner.ok()) return inner;
    const Expr& body = *map.children[0];
    auto l = CompileMapBody(body.children[0], inner.value());
    if (!l.ok()) return l.status();
    auto r = CompileMapBody(body.children[1], inner.value());
    if (!r.ok()) return r.status();
    int sum_l = EmitUnary(mil::OpCode::kScalarSum, l.value());
    int sum_r = EmitUnary(mil::OpCode::kScalarSum, r.value());
    return Compiled{.kind = Compiled::Kind::kScalar,
                    .reg = EmitScalarBin(sum_l, sum_r, ToBinOp(body.arith))};
  }

  const Database* db_;
  const QueryContext* ctx_;
  FlattenOptions options_;
  mil::Program prog_;
};

}  // namespace

base::Result<mil::Program> Flattener::Compile(const ExprPtr& expr) const {
  return Compiler(db_, ctx_, options_).Run(expr);
}

}  // namespace mirror::moa
