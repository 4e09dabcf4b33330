#ifndef MIRROR_MONET_BAT_H_
#define MIRROR_MONET_BAT_H_

#include <string>
#include <utility>
#include <vector>

#include "monet/column.h"

namespace mirror::monet {

/// Binary Association Table: the sole data structure of the physical
/// model (paper §2: "Monet supports a binary relational data model").
/// A BAT is an ordered sequence of (head, tail) pairs; both halves are
/// typed columns of equal length. All kernel operators consume and
/// produce BATs, column-at-a-time.
class Bat {
 public:
  /// Constructs a BAT from two equal-length columns.
  Bat(Column head, Column tail)
      : head_(std::move(head)), tail_(std::move(tail)) {
    MIRROR_CHECK_EQ(head_.size(), tail_.size());
  }

  /// Convenience factories for the common void-headed case.
  static Bat DenseInts(std::vector<int64_t> tail, Oid base = 0);
  static Bat DenseDbls(std::vector<double> tail, Oid base = 0);
  static Bat DenseStrs(const std::vector<std::string>& tail, Oid base = 0);
  static Bat DenseOids(std::vector<Oid> tail, Oid base = 0);
  /// The empty BAT with the given column types.
  static Bat Empty(ValueType head_type, ValueType tail_type);

  const Column& head() const { return head_; }
  const Column& tail() const { return tail_; }
  size_t size() const { return head_.size(); }
  bool empty() const { return size() == 0; }

  /// Rows [lo, lo+count) as views of both columns (Column::View).
  Bat View(size_t lo, size_t count) const {
    return Bat(head_.View(lo, count), tail_.View(lo, count));
  }

  /// Boxed row access (primarily for tests and debugging).
  std::pair<Value, Value> Row(size_t i) const {
    return {head_.ValueAt(i), tail_.ValueAt(i)};
  }

  /// Human-readable rendering of up to `max_rows` rows.
  std::string DebugString(size_t max_rows = 16) const;

 private:
  Column head_;
  Column tail_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_BAT_H_
