#include "moa/optimizer.h"

#include <string>
#include <unordered_map>
#include <vector>

#include "base/str_util.h"
#include "monet/exec.h"
#include "monet/recycler.h"

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

bool IsLowerBoundCmp(monet::CmpOp op) {
  return op == monet::CmpOp::kGe || op == monet::CmpOp::kGt;
}

bool IsUpperBoundCmp(monet::CmpOp op) {
  return op == monet::CmpOp::kLe || op == monet::CmpOp::kLt;
}

/// Fuses `select.cmp(select.cmp(X, lower), upper)` (either bound order)
/// into one `select.range(X, lo, hi)` when the inner select has no other
/// consumer. Selection preserves tails, so restricting the outer predicate
/// over the inner's survivors equals the conjunction over X; the fused
/// instruction scans once, and the engine's candidate pipeline then emits
/// a single candidate list for the pair. The orphaned inner select is left
/// for DCE.
void FuseSelectRanges(mil::Program* program, OptimizerReport* report) {
  std::vector<int> uses = CountRegisterUses(*program);
  // Producer index per register (straight-line SSA).
  std::vector<int> producer(static_cast<size_t>(program->num_regs()), -1);
  const std::vector<mil::Instr>& instrs = program->instrs();
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    int dst = instrs[idx].dst;
    if (dst < 0 || producer[static_cast<size_t>(dst)] != -1) return;  // not SSA
    producer[static_cast<size_t>(dst)] = static_cast<int>(idx);
  }
  mil::Program rewritten;
  while (rewritten.num_regs() < program->num_regs()) rewritten.NewReg();
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    mil::Instr copy = instrs[idx];
    if (copy.op == mil::OpCode::kSelectCmp && copy.src0 >= 0 &&
        (IsLowerBoundCmp(copy.cmp_op) || IsUpperBoundCmp(copy.cmp_op))) {
      int p = producer[static_cast<size_t>(copy.src0)];
      if (p >= 0 && uses[static_cast<size_t>(copy.src0)] == 1) {
        const mil::Instr& inner = instrs[static_cast<size_t>(p)];
        bool complementary =
            inner.op == mil::OpCode::kSelectCmp &&
            ((IsLowerBoundCmp(inner.cmp_op) && IsUpperBoundCmp(copy.cmp_op)) ||
             (IsUpperBoundCmp(inner.cmp_op) && IsLowerBoundCmp(copy.cmp_op)));
        if (complementary) {
          // One of the two bounds is `copy` itself: read both into locals
          // before any field of `copy` is overwritten.
          const mil::Instr& lower_i =
              IsLowerBoundCmp(inner.cmp_op) ? inner : copy;
          const mil::Instr& upper_i =
              IsLowerBoundCmp(inner.cmp_op) ? copy : inner;
          monet::Value lo = lower_i.imm0;
          monet::Value hi = upper_i.imm0;
          const bool lo_incl = lower_i.cmp_op == monet::CmpOp::kGe;
          const bool hi_incl = upper_i.cmp_op == monet::CmpOp::kLe;
          copy.op = mil::OpCode::kSelectRange;
          copy.src0 = inner.src0;
          copy.imm0 = std::move(lo);
          copy.imm1 = std::move(hi);
          copy.flag0 = lo_incl;
          copy.flag1 = hi_incl;
          copy.cmp_op = monet::CmpOp::kEq;
          if (report != nullptr) report->range_fusions++;
        }
      }
    }
    rewritten.Emit(std::move(copy));
  }
  rewritten.set_result_reg(program->result_reg());
  *program = std::move(rewritten);
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

/// Counts select→select/semijoin/slice chain links: each is one tuple
/// copy the candidate-vector engine avoids relative to the materializing
/// interpreter. (mil::IsCandidatePipelineOp is the engine's own notion of
/// the candidate family.)
int CountCandidateChainLinks(const mil::Program& program) {
  std::vector<mil::OpCode> producer_op(
      static_cast<size_t>(program.num_regs()), mil::OpCode::kLoadNamed);
  std::vector<bool> produced(static_cast<size_t>(program.num_regs()), false);
  int links = 0;
  for (const mil::Instr& i : program.instrs()) {
    if (mil::IsCandidatePipelineOp(i.op) && i.src0 >= 0 &&
        produced[static_cast<size_t>(i.src0)] &&
        mil::IsCandidatePipelineOp(
            producer_op[static_cast<size_t>(i.src0)])) {
      ++links;
    }
    if (i.dst >= 0) {
      produced[static_cast<size_t>(i.dst)] = true;
      producer_op[static_cast<size_t>(i.dst)] = i.op;
    }
  }
  return links;
}

/// Counts the instructions the shard-parallel engine will fan out
/// shard-locally: a register is "shardable" when it is fed by a load (of
/// what would be a sharded name) or by a shard-preserving operator over a
/// shardable source, and every shard-local-class instruction consuming a
/// shardable src0 counts — the unary family verbatim
/// (mil::IsShardLocalUnaryOp, the engine's own notion), plus semijoins,
/// join probes, topN partials and scalar-fold partials, whose side
/// conditions the engine re-checks per register at run time.
int CountShardFanouts(const mil::Program& program) {
  std::vector<bool> shardable(static_cast<size_t>(program.num_regs()), false);
  int fanouts = 0;
  for (const mil::Instr& i : program.instrs()) {
    bool src_sharded =
        i.src0 >= 0 && shardable[static_cast<size_t>(i.src0)];
    bool out_sharded = false;
    if (i.op == mil::OpCode::kLoadNamed) {
      out_sharded = true;
    } else if (src_sharded) {
      switch (i.op) {
        case mil::OpCode::kSemiJoinHead:
        case mil::OpCode::kAntiJoinHead:
        case mil::OpCode::kSemiJoinTail:
        case mil::OpCode::kJoin:
          ++fanouts;
          out_sharded = true;
          break;
        case mil::OpCode::kTopN:
        case mil::OpCode::kScalarSum:
        case mil::OpCode::kScalarCount:
        case mil::OpCode::kScalarFold:
          // Fan out per shard, then merge: the dst is global.
          ++fanouts;
          break;
        default:
          if (mil::IsShardLocalUnaryOp(i.op)) {
            ++fanouts;
            out_sharded = true;
          }
          break;
      }
    }
    if (i.dst >= 0) shardable[static_cast<size_t>(i.dst)] = out_sharded;
  }
  return fanouts;
}

/// Counts join inputs produced by candidate-pipeline operators: each is
/// one Materialize() the radix join engine avoids by probing (src0) or
/// building (src1) directly over the candidate view.
int CountJoinInputFusions(const mil::Program& program) {
  std::vector<bool> is_candidate(static_cast<size_t>(program.num_regs()),
                                 false);
  int fusions = 0;
  for (const mil::Instr& i : program.instrs()) {
    if (i.op == mil::OpCode::kJoin) {
      for (int src : {i.src0, i.src1}) {
        if (src >= 0 && is_candidate[static_cast<size_t>(src)]) ++fusions;
      }
    }
    if (i.dst >= 0) {
      is_candidate[static_cast<size_t>(i.dst)] =
          mil::IsCandidatePipelineOp(i.op);
    }
  }
  return fusions;
}

/// Counts selects the recycler can key: their input register's sole
/// writer is a kLoadNamed and the predicate normalizes to an interval in
/// double space (the same SelectPredicate::FromInstr the engine uses, so
/// the diagnostic and the runtime agree on eligibility).
int CountRecycleEligibleSelects(const mil::Program& program) {
  const size_t num_regs = static_cast<size_t>(program.num_regs());
  std::vector<int> writers(num_regs, 0);
  std::vector<std::string> load_name(num_regs);
  for (const mil::Instr& i : program.instrs()) {
    if (i.dst >= 0 && i.dst < static_cast<int>(num_regs)) {
      ++writers[static_cast<size_t>(i.dst)];
      load_name[static_cast<size_t>(i.dst)] =
          i.op == mil::OpCode::kLoadNamed ? i.name : std::string();
    }
  }
  int eligible = 0;
  for (const mil::Instr& i : program.instrs()) {
    if (i.src0 < 0 || i.src0 >= static_cast<int>(num_regs)) continue;
    const size_t src = static_cast<size_t>(i.src0);
    if (writers[src] != 1 || load_name[src].empty()) continue;
    monet::SelectPredicate pred;
    if (monet::SelectPredicate::FromInstr(i, load_name[src], &pred)) {
      ++eligible;
    }
  }
  return eligible;
}

}  // namespace

void OptimizeMil(mil::Program* program, OptimizerReport* report) {
  FuseSelectRanges(program, report);
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
  if (report != nullptr) {
    report->candidate_chain_links += CountCandidateChainLinks(rewritten);
    report->join_input_fusions += CountJoinInputFusions(rewritten);
    report->shard_fanouts += CountShardFanouts(rewritten);
    report->recycle_eligible_selects += CountRecycleEligibleSelects(rewritten);
  }
  *program = std::move(rewritten);
}

}  // namespace mirror::moa
