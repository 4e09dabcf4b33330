#include "monet/mil.h"

#include <bit>
#include <cstdint>
#include <variant>

#include "base/str_util.h"

namespace mirror::monet::mil {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadNamed:
      return "load";
    case OpCode::kConstBat:
      return "const";
    case OpCode::kSelectEq:
      return "select.eq";
    case OpCode::kSelectNeq:
      return "select.neq";
    case OpCode::kSelectCmp:
      return "select.cmp";
    case OpCode::kSelectRange:
      return "select.range";
    case OpCode::kJoin:
      return "join";
    case OpCode::kSemiJoinHead:
      return "semijoin";
    case OpCode::kAntiJoinHead:
      return "antijoin";
    case OpCode::kSemiJoinTail:
      return "semijoin.tail";
    case OpCode::kReverse:
      return "reverse";
    case OpCode::kMirror:
      return "mirror";
    case OpCode::kMark:
      return "mark";
    case OpCode::kSortTail:
      return "sort";
    case OpCode::kTopN:
      return "topn";
    case OpCode::kUniqueTail:
      return "unique.tail";
    case OpCode::kUniqueHead:
      return "unique.head";
    case OpCode::kSlice:
      return "slice";
    case OpCode::kConcat:
      return "concat";
    case OpCode::kSumPerHead:
      return "sum.per.head";
    case OpCode::kCountPerHead:
      return "count.per.head";
    case OpCode::kMaxPerHead:
      return "max.per.head";
    case OpCode::kMinPerHead:
      return "min.per.head";
    case OpCode::kAvgPerHead:
      return "avg.per.head";
    case OpCode::kProdPerHead:
      return "prod.per.head";
    case OpCode::kProbOrPerHead:
      return "probor.per.head";
    case OpCode::kCountPerTailValue:
      return "histogram";
    case OpCode::kMapBinary:
      return "map.bin";
    case OpCode::kMapBinaryScalar:
      return "map.bin.scalar";
    case OpCode::kMapUnary:
      return "map.un";
    case OpCode::kFillTail:
      return "fill";
    case OpCode::kBelief:
      return "belief";
    case OpCode::kScalarSum:
      return "scalar.sum";
    case OpCode::kScalarCount:
      return "scalar.count";
    case OpCode::kScalarBin:
      return "scalar.bin";
    case OpCode::kScalarFold:
      return "scalar.fold";
  }
  return "?";
}

const char* FoldOpName(FoldOp op) {
  switch (op) {
    case FoldOp::kMax:
      return "max";
    case FoldOp::kMin:
      return "min";
    case FoldOp::kProd:
      return "prod";
    case FoldOp::kPor:
      return "por";
  }
  return "?";
}

namespace {

const char* CmpOpSymbol(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNeq:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kMax:
      return "max";
    case BinOp::kMin:
      return "min";
    case BinOp::kPow:
      return "pow";
  }
  return "?";
}

const char* UnOpName(UnOp op) {
  switch (op) {
    case UnOp::kLog:
      return "log";
    case UnOp::kLog1p:
      return "log1p";
    case UnOp::kExp:
      return "exp";
    case UnOp::kSqrt:
      return "sqrt";
    case UnOp::kNeg:
      return "neg";
    case UnOp::kAbs:
      return "abs";
    case UnOp::kOneMinus:
      return "oneminus";
  }
  return "?";
}

}  // namespace

std::optional<AggKind> PerHeadAggKind(OpCode op) {
  switch (op) {
    case OpCode::kSumPerHead:
      return AggKind::kSum;
    case OpCode::kCountPerHead:
      return AggKind::kCount;
    case OpCode::kMaxPerHead:
      return AggKind::kMax;
    case OpCode::kMinPerHead:
      return AggKind::kMin;
    case OpCode::kAvgPerHead:
      return AggKind::kAvg;
    case OpCode::kProdPerHead:
      return AggKind::kProd;
    case OpCode::kProbOrPerHead:
      return AggKind::kProbOr;
    default:
      return std::nullopt;
  }
}

std::string Instr::ToString() const {
  std::string out = base::StrFormat("r%d := %s(", dst, OpCodeName(op));
  bool first = true;
  auto append = [&](const std::string& piece) {
    if (!first) out += ", ";
    first = false;
    out += piece;
  };
  if (op == OpCode::kLoadNamed) append("\"" + name + "\"");
  if (op == OpCode::kConstBat && const_bat != nullptr) {
    append(base::StrFormat("#%zu rows", const_bat->size()));
  }
  if (src0 >= 0) append(base::StrFormat("r%d", src0));
  if (src1 >= 0) append(base::StrFormat("r%d", src1));
  if (src2 >= 0) append(base::StrFormat("r%d", src2));
  switch (op) {
    case OpCode::kSelectEq:
    case OpCode::kSelectNeq:
    case OpCode::kFillTail:
      append(imm0.ToString());
      break;
    case OpCode::kSelectCmp:
      append(CmpOpSymbol(cmp_op));
      append(imm0.ToString());
      break;
    case OpCode::kSelectRange:
      // Interval notation: [ ] inclusive bounds, ( ) exclusive ones.
      append(std::string(flag0 ? "[" : "(") + imm0.ToString());
      append(imm1.ToString() + (flag1 ? "]" : ")"));
      break;
    case OpCode::kMapBinary:
      append(BinOpName(bin_op));
      break;
    case OpCode::kMapBinaryScalar:
      append(BinOpName(bin_op));
      append(imm0.ToString());
      break;
    case OpCode::kMapUnary:
      append(UnOpName(un_op));
      break;
    case OpCode::kScalarBin:
      append(BinOpName(bin_op));
      if (src1 < 0) append(imm0.ToString());
      break;
    case OpCode::kTopN:
    case OpCode::kMark:
      append(base::StrFormat("%lld", static_cast<long long>(n)));
      break;
    case OpCode::kScalarFold:
      append(FoldOpName(fold_op));
      break;
    case OpCode::kSlice:
      append(base::StrFormat("%lld", static_cast<long long>(n)));
      append(base::StrFormat("%lld", static_cast<long long>(n2)));
      break;
    default:
      break;
  }
  out += ")";
  return out;
}

namespace {

bool SameImmediate(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDbl) {
    return std::bit_cast<uint64_t>(a.d()) == std::bit_cast<uint64_t>(b.d());
  }
  return a == b;
}

}  // namespace

bool Instr::SameOperation(const Instr& o) const {
  return op == o.op && src0 == o.src0 && src1 == o.src1 && src2 == o.src2 &&
         SameImmediate(imm0, o.imm0) && SameImmediate(imm1, o.imm1) &&
         flag0 == o.flag0 && flag1 == o.flag1 && n == o.n && n2 == o.n2 &&
         bin_op == o.bin_op && un_op == o.un_op && cmp_op == o.cmp_op &&
         fold_op == o.fold_op && name == o.name && const_bat == o.const_bat &&
         belief.alpha == o.belief.alpha && belief.k_tf == o.belief.k_tf &&
         belief.k_len == o.belief.k_len && num_docs == o.num_docs &&
         avg_doclen == o.avg_doclen;
}

int Program::Emit(Instr instr) {
  MIRROR_CHECK_GE(instr.dst, 0);
  MIRROR_CHECK_LT(instr.dst, num_regs_);
  instrs_.push_back(std::move(instr));
  return instrs_.back().dst;
}

size_t Program::KernelOpCount() const {
  size_t count = 0;
  for (const Instr& i : instrs_) {
    if (i.op != OpCode::kLoadNamed && i.op != OpCode::kConstBat) ++count;
  }
  return count;
}

std::string Program::ToString() const {
  std::string out;
  for (const Instr& i : instrs_) {
    out += "  " + i.ToString() + "\n";
  }
  out += base::StrFormat("  return r%d\n", result_reg_);
  return out;
}

base::Result<RunResult> Executor::Run(const Program& program) const {
  using Reg = std::variant<std::monostate, BatPtr, double>;
  std::vector<Reg> regs(static_cast<size_t>(program.num_regs()));

  auto bat_at = [&](int reg) -> const Bat& {
    MIRROR_CHECK_GE(reg, 0);
    const Reg& r = regs[static_cast<size_t>(reg)];
    MIRROR_CHECK(std::holds_alternative<BatPtr>(r))
        << "register r" << reg << " does not hold a BAT";
    return *std::get<BatPtr>(r);
  };
  auto put_bat = [&](int reg, Bat bat) {
    regs[static_cast<size_t>(reg)] = std::make_shared<const Bat>(std::move(bat));
  };
  auto scalar_at = [&](int reg) -> double {
    MIRROR_CHECK_GE(reg, 0);
    const Reg& r = regs[static_cast<size_t>(reg)];
    MIRROR_CHECK(std::holds_alternative<double>(r))
        << "register r" << reg << " does not hold a scalar";
    return std::get<double>(r);
  };

  for (const Instr& i : program.instrs()) {
    switch (i.op) {
      case OpCode::kLoadNamed: {
        if (catalog_ == nullptr) {
          return base::Status::Internal("no catalog bound for load: " + i.name);
        }
        auto bat = catalog_->Get(i.name);
        if (!bat.ok()) return bat.status();
        regs[static_cast<size_t>(i.dst)] = bat.TakeValue();
        break;
      }
      case OpCode::kConstBat:
        MIRROR_CHECK(i.const_bat != nullptr);
        regs[static_cast<size_t>(i.dst)] = i.const_bat;
        break;
      case OpCode::kSelectEq:
        put_bat(i.dst, SelectEq(bat_at(i.src0), i.imm0));
        break;
      case OpCode::kSelectNeq:
        put_bat(i.dst, SelectNeq(bat_at(i.src0), i.imm0));
        break;
      case OpCode::kSelectCmp:
        put_bat(i.dst, SelectCmp(bat_at(i.src0), i.cmp_op, i.imm0));
        break;
      case OpCode::kSelectRange:
        put_bat(i.dst, SelectRange(bat_at(i.src0), i.imm0, i.imm1, i.flag0,
                                   i.flag1));
        break;
      case OpCode::kJoin:
        // The sequential interpreter keeps the pre-radix join: it stays
        // a code-path-independent oracle against the engine's radix
        // pipeline in the fuzz suite.
        put_bat(i.dst, JoinLegacy(bat_at(i.src0), bat_at(i.src1)));
        break;
      case OpCode::kSemiJoinHead:
        put_bat(i.dst, SemiJoinHead(bat_at(i.src0), bat_at(i.src1)));
        break;
      case OpCode::kAntiJoinHead:
        put_bat(i.dst, AntiJoinHead(bat_at(i.src0), bat_at(i.src1)));
        break;
      case OpCode::kSemiJoinTail:
        put_bat(i.dst, SemiJoinTail(bat_at(i.src0), bat_at(i.src1)));
        break;
      case OpCode::kReverse:
        put_bat(i.dst, Reverse(bat_at(i.src0)));
        break;
      case OpCode::kMirror:
        put_bat(i.dst, Mirror(bat_at(i.src0)));
        break;
      case OpCode::kMark:
        put_bat(i.dst, Mark(bat_at(i.src0), static_cast<Oid>(i.n)));
        break;
      case OpCode::kSortTail:
        put_bat(i.dst, SortByTail(bat_at(i.src0), i.flag0));
        break;
      case OpCode::kTopN:
        put_bat(i.dst, TopNByTail(bat_at(i.src0), static_cast<size_t>(i.n),
                                  i.flag0));
        break;
      case OpCode::kUniqueTail:
        put_bat(i.dst, UniqueTail(bat_at(i.src0)));
        break;
      case OpCode::kUniqueHead:
        put_bat(i.dst, UniqueHead(bat_at(i.src0)));
        break;
      case OpCode::kSlice:
        put_bat(i.dst, Slice(bat_at(i.src0), static_cast<size_t>(i.n),
                             static_cast<size_t>(i.n2)));
        break;
      case OpCode::kConcat:
        put_bat(i.dst, Concat(bat_at(i.src0), bat_at(i.src1)));
        break;
      case OpCode::kSumPerHead:
      case OpCode::kCountPerHead:
      case OpCode::kMaxPerHead:
      case OpCode::kMinPerHead:
      case OpCode::kAvgPerHead:
      case OpCode::kProdPerHead:
      case OpCode::kProbOrPerHead:
        put_bat(i.dst, AggregatePerHead(bat_at(i.src0), nullptr,
                                        *PerHeadAggKind(i.op)));
        break;
      case OpCode::kCountPerTailValue:
        put_bat(i.dst, CountPerTailValue(bat_at(i.src0)));
        break;
      case OpCode::kMapBinary:
        put_bat(i.dst, MapBinary(bat_at(i.src0), bat_at(i.src1), i.bin_op));
        break;
      case OpCode::kMapBinaryScalar:
        put_bat(i.dst, MapBinaryScalar(bat_at(i.src0), i.imm0, i.bin_op));
        break;
      case OpCode::kMapUnary:
        put_bat(i.dst, MapUnary(bat_at(i.src0), i.un_op));
        break;
      case OpCode::kFillTail:
        put_bat(i.dst, FillTail(bat_at(i.src0), i.imm0));
        break;
      case OpCode::kBelief:
        put_bat(i.dst,
                BeliefTfIdf(bat_at(i.src0), bat_at(i.src1), bat_at(i.src2),
                            i.num_docs, i.avg_doclen, i.belief));
        break;
      case OpCode::kScalarSum:
        regs[static_cast<size_t>(i.dst)] = ScalarSum(bat_at(i.src0));
        break;
      case OpCode::kScalarCount:
        regs[static_cast<size_t>(i.dst)] =
            static_cast<double>(ScalarCount(bat_at(i.src0)));
        break;
      case OpCode::kScalarFold:
        regs[static_cast<size_t>(i.dst)] =
            ScalarFold(bat_at(i.src0), i.fold_op);
        break;
      case OpCode::kScalarBin:
        regs[static_cast<size_t>(i.dst)] = ApplyScalarBin(
            scalar_at(i.src0),
            i.src1 >= 0 ? scalar_at(i.src1) : i.imm0.AsDouble(), i.bin_op);
        break;
    }
  }

  if (program.result_reg() < 0) {
    return base::Status::Internal("program has no result register");
  }
  const Reg& result = regs[static_cast<size_t>(program.result_reg())];
  RunResult out;
  if (std::holds_alternative<BatPtr>(result)) {
    out.bat = std::get<BatPtr>(result);
  } else if (std::holds_alternative<double>(result)) {
    out.scalar = std::get<double>(result);
    out.is_scalar = true;
  } else {
    return base::Status::Internal("result register was never written");
  }
  return out;
}

}  // namespace mirror::monet::mil
