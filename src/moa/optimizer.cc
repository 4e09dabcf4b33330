#include "moa/optimizer.h"

#include <string>
#include <unordered_map>
#include <vector>

#include "base/str_util.h"

namespace mirror::moa {

namespace mil = monet::mil;

namespace {

/// Substitutes every THIS in `body` with `replacement` (used for map-map
/// fusion: the inner map's body becomes the outer THIS).
ExprPtr SubstituteThis(const ExprPtr& body, const ExprPtr& replacement) {
  if (body->op == Expr::Op::kThis) return replacement;
  if (body->children.empty()) return body;
  Expr copy = *body;
  for (ExprPtr& child : copy.children) {
    child = SubstituteThis(child, replacement);
  }
  return std::make_shared<const Expr>(std::move(copy));
}

/// True if the body is a pure scalar computation (safe to substitute).
bool IsScalarBody(const ExprPtr& body) {
  switch (body->op) {
    case Expr::Op::kThis:
    case Expr::Op::kLit:
      return true;
    case Expr::Op::kField:
      return body->children[0]->op == Expr::Op::kThis;
    case Expr::Op::kArith:
    case Expr::Op::kCmp:
    case Expr::Op::kAnd:
    case Expr::Op::kOr:
      return IsScalarBody(body->children[0]) &&
             IsScalarBody(body->children[1]);
    default:
      return false;
  }
}

}  // namespace

ExprPtr RewriteLogical(const ExprPtr& expr, OptimizerReport* report) {
  // Bottom-up: rewrite children first.
  Expr copy = *expr;
  bool changed = false;
  for (ExprPtr& child : copy.children) {
    ExprPtr rewritten = RewriteLogical(child, report);
    if (rewritten != child) {
      child = rewritten;
      changed = true;
    }
  }
  ExprPtr node =
      changed ? std::make_shared<const Expr>(std::move(copy)) : expr;

  // select[p](select[q](X)) => select[q and p](X).
  if (node->op == Expr::Op::kSelect &&
      node->children[1]->op == Expr::Op::kSelect) {
    const ExprPtr& outer_pred = node->children[0];
    const ExprPtr& inner = node->children[1];
    ExprPtr fused_pred = Expr::And(inner->children[0], outer_pred);
    if (report != nullptr) report->select_fusions++;
    return RewriteLogical(Expr::Select(fused_pred, inner->children[1]),
                          report);
  }

  // map[g](map[f](X)) => map[g{THIS:=f}](X) for scalar bodies.
  if (node->op == Expr::Op::kMap &&
      node->children[1]->op == Expr::Op::kMap) {
    const ExprPtr& g = node->children[0];
    const ExprPtr& inner = node->children[1];
    const ExprPtr& f = inner->children[0];
    if (IsScalarBody(g) && IsScalarBody(f)) {
      if (report != nullptr) report->map_fusions++;
      return RewriteLogical(
          Expr::Map(SubstituteThis(g, f), inner->children[1]), report);
    }
  }
  return node;
}

namespace {

std::string InstrKey(const mil::Instr& i) {
  std::string key = base::StrFormat(
      "%d|%d|%d|%d|%d|%d|%d|%lld|%lld|%d|%d|%d|%lld|%g|%g|%g|%g|",
      static_cast<int>(i.op), i.src0, i.src1, i.src2,
      static_cast<int>(i.flag0), static_cast<int>(i.flag1),
      static_cast<int>(i.bin_op), static_cast<long long>(i.n),
      static_cast<long long>(i.n2), static_cast<int>(i.un_op),
      static_cast<int>(i.cmp_op), static_cast<int>(i.fold_op),
      static_cast<long long>(i.num_docs), i.avg_doclen, i.belief.alpha,
      i.belief.k_tf, i.belief.k_len);
  key += i.name;
  key += "|";
  key += i.imm0.type() == monet::ValueType::kVoid ? "" : i.imm0.ToString();
  key += "|";
  key += i.imm1.type() == monet::ValueType::kVoid ? "" : i.imm1.ToString();
  key += "|";
  key += base::StrFormat("%p", static_cast<const void*>(i.const_bat.get()));
  return key;
}

// How many times each register is read (sources plus the result).
std::vector<int> CountRegisterUses(const mil::Program& program) {
  std::vector<int> uses(static_cast<size_t>(program.num_regs()), 0);
  for (const mil::Instr& i : program.instrs()) {
    for (int src : {i.src0, i.src1, i.src2}) {
      if (src >= 0) ++uses[static_cast<size_t>(src)];
    }
  }
  if (program.result_reg() >= 0) {
    ++uses[static_cast<size_t>(program.result_reg())];
  }
  return uses;
}

/// Pushes scalar sums through multiplex add/sub: when a `scalar.sum`'s
/// source is a `map.bin(x, y, add|sub)` with no other consumer, the sum
/// distributes over the arithmetic —
///   sum(x + y) = sum(x) + sum(y),  sum(x - y) = sum(x) - sum(y)
/// — so the rewrite emits two scalar.sum instructions and one scalar.bin
/// combining them. The multiplex map was a pipeline breaker that forced
/// both inputs to materialize; after the rewrite the sums run fused over
/// the candidate views and the map itself dies in DCE. (Heads are
/// positionally aligned by construction, so pairing is irrelevant to the
/// total; int sums widen to double either way.)
void FuseScalarAggregates(mil::Program* program, OptimizerReport* report) {
  std::vector<int> uses = CountRegisterUses(*program);
  std::vector<int> producer(static_cast<size_t>(program->num_regs()), -1);
  const std::vector<mil::Instr>& instrs = program->instrs();
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    int dst = instrs[idx].dst;
    if (dst < 0 || producer[static_cast<size_t>(dst)] != -1) return;  // not SSA
    producer[static_cast<size_t>(dst)] = static_cast<int>(idx);
  }
  mil::Program rewritten;
  while (rewritten.num_regs() < program->num_regs()) rewritten.NewReg();
  bool changed = false;
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const mil::Instr& instr = instrs[idx];
    if (instr.op == mil::OpCode::kScalarSum && instr.src0 >= 0 &&
        uses[static_cast<size_t>(instr.src0)] == 1) {
      int p = producer[static_cast<size_t>(instr.src0)];
      if (p >= 0) {
        const mil::Instr& map = instrs[static_cast<size_t>(p)];
        if (map.op == mil::OpCode::kMapBinary &&
            (map.bin_op == monet::BinOp::kAdd ||
             map.bin_op == monet::BinOp::kSub)) {
          mil::Instr sum_l;
          sum_l.op = mil::OpCode::kScalarSum;
          sum_l.src0 = map.src0;
          sum_l.dst = rewritten.NewReg();
          int l = rewritten.Emit(std::move(sum_l));
          mil::Instr sum_r;
          sum_r.op = mil::OpCode::kScalarSum;
          sum_r.src0 = map.src1;
          sum_r.dst = rewritten.NewReg();
          int r = rewritten.Emit(std::move(sum_r));
          mil::Instr combine;
          combine.op = mil::OpCode::kScalarBin;
          combine.src0 = l;
          combine.src1 = r;
          combine.bin_op = map.bin_op;
          combine.dst = instr.dst;
          rewritten.Emit(std::move(combine));
          if (report != nullptr) report->agg_fusions++;
          changed = true;
          continue;  // the orphaned map.bin is left for DCE
        }
      }
    }
    rewritten.Emit(instr);
  }
  if (!changed) return;
  rewritten.set_result_reg(program->result_reg());
  *program = std::move(rewritten);
}

/// Rewrites the scalar-extremum detour `scalar.sum(topn(x, 1))` into the
/// dedicated `scalar.fold(x, max|min)` instruction when the topn has no
/// other consumer: the fold reads the column once instead of running a
/// bounded sort plus a one-row sum, fuses over candidate views like the
/// other scalar aggregates, and is the form the shard engine merges
/// across shards with the same combinator. Empty inputs agree by
/// construction (topn(1) of nothing sums to 0; the fold's empty value is
/// 0). The orphaned topn is left for DCE.
void RewriteScalarFolds(mil::Program* program, OptimizerReport* report) {
  std::vector<int> uses = CountRegisterUses(*program);
  std::vector<int> producer(static_cast<size_t>(program->num_regs()), -1);
  const std::vector<mil::Instr>& instrs = program->instrs();
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    int dst = instrs[idx].dst;
    if (dst < 0 || producer[static_cast<size_t>(dst)] != -1) return;  // not SSA
    producer[static_cast<size_t>(dst)] = static_cast<int>(idx);
  }
  mil::Program rewritten;
  while (rewritten.num_regs() < program->num_regs()) rewritten.NewReg();
  bool changed = false;
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    mil::Instr copy = instrs[idx];
    if (copy.op == mil::OpCode::kScalarSum && copy.src0 >= 0 &&
        uses[static_cast<size_t>(copy.src0)] == 1) {
      int p = producer[static_cast<size_t>(copy.src0)];
      if (p >= 0) {
        const mil::Instr& top = instrs[static_cast<size_t>(p)];
        if (top.op == mil::OpCode::kTopN && top.n == 1) {
          copy.op = mil::OpCode::kScalarFold;
          copy.src0 = top.src0;
          copy.fold_op =
              top.flag0 ? monet::FoldOp::kMax : monet::FoldOp::kMin;
          if (report != nullptr) report->fold_rewrites++;
          changed = true;
        }
      }
    }
    rewritten.Emit(std::move(copy));
  }
  if (!changed) return;
  rewritten.set_result_reg(program->result_reg());
  *program = std::move(rewritten);
}

}  // namespace

void OptimizeMil(mil::Program* program, OptimizerReport* report) {
  FuseScalarAggregates(program, report);
  RewriteScalarFolds(program, report);

  // Common subexpression elimination over the straight-line program:
  // instructions with identical opcode and operands compute the same BAT
  // (all kernel ops are pure), so later copies are redirected to the
  // first register.
  std::unordered_map<std::string, int> seen;  // key -> canonical reg
  std::unordered_map<int, int> alias;         // reg -> canonical reg
  mil::Program rewritten;
  while (rewritten.num_regs() < program->num_regs()) rewritten.NewReg();
  size_t removed = 0;
  for (const mil::Instr& instr : program->instrs()) {
    mil::Instr copy = instr;
    auto resolve = [&](int reg) {
      auto it = alias.find(reg);
      return it == alias.end() ? reg : it->second;
    };
    copy.src0 = copy.src0 >= 0 ? resolve(copy.src0) : copy.src0;
    copy.src1 = copy.src1 >= 0 ? resolve(copy.src1) : copy.src1;
    copy.src2 = copy.src2 >= 0 ? resolve(copy.src2) : copy.src2;
    std::string key = InstrKey(copy);
    auto it = seen.find(key);
    if (it != seen.end()) {
      alias[copy.dst] = it->second;
      ++removed;
      continue;
    }
    seen.emplace(std::move(key), copy.dst);
    rewritten.Emit(std::move(copy));
  }
  int result = program->result_reg();
  auto it = alias.find(result);
  rewritten.set_result_reg(it == alias.end() ? result : it->second);
  if (report != nullptr) report->cse_removed += removed;

  size_t dce = rewritten.EliminateDeadCode();
  if (report != nullptr) report->dce_removed += dce;
  *program = std::move(rewritten);
}

}  // namespace mirror::moa
