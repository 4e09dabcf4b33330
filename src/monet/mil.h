#ifndef MIRROR_MONET_MIL_H_
#define MIRROR_MONET_MIL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "monet/bat_ops.h"
#include "monet/catalog.h"
#include "monet/prob_ops.h"

namespace mirror::monet::mil {

/// Opcodes of the physical plan language ("MIL"): a thin sequential IR over
/// the BAT kernel. Moa's flattener emits the final MIL program (no pass
/// rewrites it afterwards); the engines and the op-count reports of
/// experiments E1/E2 operate on this representation.
enum class OpCode {
  kLoadNamed,          // dst = catalog[name]
  kConstBat,           // dst = embedded literal BAT
  kSelectEq,           // dst = SelectEq(src0, imm0)
  kSelectNeq,          // dst = SelectNeq(src0, imm0)
  kSelectCmp,          // dst = SelectCmp(src0, cmp_op, imm0)
  kSelectRange,        // dst = SelectRange(src0, imm0, imm1, flag0, flag1)
  kJoin,               // dst = Join(src0, src1)
  kSemiJoinHead,       // dst = SemiJoinHead(src0, src1)
  kAntiJoinHead,       // dst = AntiJoinHead(src0, src1)
  kSemiJoinTail,       // dst = SemiJoinTail(src0, src1)
  kReverse,            // dst = Reverse(src0)
  kMirror,             // dst = Mirror(src0)
  kMark,               // dst = Mark(src0, n)
  kSortTail,           // dst = SortByTail(src0, flag0=ascending)
  kTopN,               // dst = TopNByTail(src0, n, flag0=descending)
  kUniqueTail,         // dst = UniqueTail(src0)
  kUniqueHead,         // dst = UniqueHead(src0)
  kSlice,              // dst = Slice(src0, n, n2)
  kConcat,             // dst = Concat(src0, src1)
  // The per-head aggregates: dst = AggregatePerHead(src0, AggKind), the
  // kind given by PerHeadAggKind below.
  kSumPerHead,         // kSum
  kCountPerHead,       // kCount
  kMaxPerHead,         // kMax
  kMinPerHead,         // kMin
  kAvgPerHead,         // kAvg
  kProdPerHead,        // kProd
  kProbOrPerHead,      // kProbOr
  kCountPerTailValue,  // dst = CountPerTailValue(src0)
  kMapBinary,          // dst = MapBinary(src0, src1, bin_op)
  kMapBinaryScalar,    // dst = MapBinaryScalar(src0, imm0, bin_op)
  kMapUnary,           // dst = MapUnary(src0, un_op)
  kFillTail,           // dst = FillTail(src0, imm0)
  kBelief,             // dst = BeliefTfIdf(src0, src1, src2, params)
  kScalarSum,          // dst(scalar) = ScalarSum(src0)
  kScalarCount,        // dst(scalar) = ScalarCount(src0)
  kScalarBin,          // dst(scalar) = src0 bin_op (src1 >= 0 ? src1 : imm0)
  kScalarFold,         // dst(scalar) = ScalarFold(src0, fold_op)
};

/// Stable mnemonic ("join", "select.eq", ...).
const char* OpCodeName(OpCode op);

/// Stable mnemonic for a scalar fold combinator ("max", "por", ...).
const char* FoldOpName(FoldOp op);

/// The aggregate a per-head opcode computes; nullopt for every other
/// opcode. The single opcode -> AggKind map of the Executor and the
/// engine.
std::optional<AggKind> PerHeadAggKind(OpCode op);

/// One MIL instruction. Fields beyond `op`, `dst` and the `src*` registers
/// are operand payloads whose meaning depends on the opcode (see OpCode
/// comments).
struct Instr {
  OpCode op;
  int dst = -1;
  int src0 = -1;
  int src1 = -1;
  int src2 = -1;
  Value imm0;
  Value imm1;
  bool flag0 = false;
  bool flag1 = false;
  int64_t n = 0;
  int64_t n2 = 0;
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kLog;
  CmpOp cmp_op = CmpOp::kEq;
  FoldOp fold_op = FoldOp::kMax;  // kScalarFold
  std::string name;              // kLoadNamed
  BatPtr const_bat;              // kConstBat
  BeliefParams belief;           // kBelief tuning
  int64_t num_docs = 0;          // kBelief
  double avg_doclen = 0.0;       // kBelief

  /// Renders e.g. "r3 := join(r1, r2)".
  std::string ToString() const;

  /// True when `o` computes the same value: every field but `dst` is
  /// equal. Immediates must have the same type and, for dbl, the same
  /// bits (int 1 is not dbl 1.0, 1.0000001 is not 1.0000002); constant
  /// BATs compare by identity. All MIL operators are pure, so such an
  /// instruction can reuse the earlier one's register.
  bool SameOperation(const Instr& o) const;

  /// What a select.eq/neq/cmp/range instruction keeps over a tail of
  /// type `tail`, normalized once: the interval the engine's kernel, zone
  /// pruning and recycler all read.
  SelectInterval Interval(ValueType tail) const;
};

/// A straight-line MIL program: SSA-ish register code whose final value is
/// `result_reg`. Registers hold either a BAT or a scalar double.
class Program {
 public:
  /// Allocates a fresh register.
  int NewReg() { return num_regs_++; }

  /// Appends an instruction; returns its dst register for chaining.
  int Emit(Instr instr);

  const std::vector<Instr>& instrs() const { return instrs_; }
  int num_regs() const { return num_regs_; }
  int result_reg() const { return result_reg_; }
  void set_result_reg(int reg) { result_reg_ = reg; }

  /// Number of kernel-operator instructions (excludes loads/constants):
  /// the "BAT operations" metric of experiments E1/E2.
  size_t KernelOpCount() const;

  /// Full disassembly listing.
  std::string ToString() const;

 private:
  std::vector<Instr> instrs_;
  int num_regs_ = 0;
  int result_reg_ = -1;
};

/// Result of executing a MIL program: either a BAT or a scalar.
struct RunResult {
  BatPtr bat;          // set when the result register held a BAT
  double scalar = 0;   // set when the result register held a scalar
  bool is_scalar = false;
};

/// Executes MIL programs against a catalog. Stateless between runs.
class Executor {
 public:
  /// The catalog must outlive the executor. May be null if the program
  /// uses no kLoadNamed.
  explicit Executor(const Catalog* catalog) : catalog_(catalog) {}

  /// Runs `program` and returns its result register's value.
  base::Result<RunResult> Run(const Program& program) const;

 private:
  const Catalog* catalog_;
};

}  // namespace mirror::monet::mil

#endif  // MIRROR_MONET_MIL_H_
