#ifndef MIRROR_MONET_COLUMN_H_
#define MIRROR_MONET_COLUMN_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "monet/string_heap.h"
#include "monet/value.h"

namespace mirror::monet {

/// A typed, immutable column of values: one half of a BAT.
///
/// Representation notes (following MonetDB):
///  - `kVoid` columns are virtual: a dense oid sequence [base, base+n) that
///    occupies no per-row storage. BAT heads are void in the common case.
///  - `kStr` columns store 4-byte offsets into a shared, interned
///    `StringHeap`; equal strings have equal offsets within one heap.
///  - Rows live in one shared, immutable buffer: a column is a pointer to
///    its first element plus the buffer's owner (MonetDB's heap base and
///    position shift). Copies and `View`s share the buffer; a view pins
///    the whole buffer, not only its own rows.
class Column {
 public:
  /// Virtual dense oid sequence [base, base+n).
  static Column MakeVoid(Oid base, size_t n);
  /// Materialized oid column. The numeric and offset factories adopt the
  /// moved-in vector as the column's buffer without copying it.
  static Column MakeOids(std::vector<Oid> v);
  static Column MakeInts(std::vector<int64_t> v);
  static Column MakeDbls(std::vector<double> v);
  /// String column over a fresh private heap.
  static Column MakeStrs(const std::vector<std::string>& v);
  /// String column sharing an existing heap (the common case for operator
  /// outputs, which never create new strings).
  static Column MakeStrsShared(std::shared_ptr<StringHeap> heap,
                               std::vector<uint32_t> offsets);

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  bool is_void() const { return type_ == ValueType::kVoid; }
  Oid void_base() const { return void_base_; }

  /// Element accessors; the type must match (void counts as oid).
  Oid OidAt(size_t i) const {
    if (type_ == ValueType::kVoid) return void_base_ + i;
    return Data<Oid>()[i];
  }
  int64_t IntAt(size_t i) const { return Data<int64_t>()[i]; }
  double DblAt(size_t i) const { return Data<double>()[i]; }
  std::string_view StrAt(size_t i) const { return heap_->At(StrOffsetAt(i)); }
  uint32_t StrOffsetAt(size_t i) const { return Data<uint32_t>()[i]; }

  /// Numeric view of element i: int and dbl columns only.
  double NumAt(size_t i) const {
    return type_ == ValueType::kInt ? static_cast<double>(IntAt(i))
                                    : DblAt(i);
  }

  /// Boxes element i (void yields an oid Value).
  Value ValueAt(size_t i) const;

  /// Raw storage access for kernel operators; empty unless the column has
  /// that type (void columns have no oid storage).
  std::span<const Oid> oids() const { return Rows<Oid>(ValueType::kOid); }
  std::span<const int64_t> ints() const {
    return Rows<int64_t>(ValueType::kInt);
  }
  std::span<const double> dbls() const { return Rows<double>(ValueType::kDbl); }
  std::span<const uint32_t> str_offsets() const {
    return Rows<uint32_t>(ValueType::kStr);
  }
  const std::shared_ptr<StringHeap>& heap() const { return heap_; }

  /// Rows [lo, lo+count) sharing this column's buffer (and heap); a void
  /// view stays void with its base shifted. Allocates no row storage.
  Column View(size_t lo, size_t count) const;

  /// Returns this column with void replaced by materialized oids (other
  /// types are returned unchanged, sharing the buffer).
  Column Materialized() const;

  /// Gathers `positions` into a new column of the same type (void heads
  /// materialize to oids). The 32-bit form serves candidate lists and
  /// kernel position vectors in place, without widening them first.
  Column Gather(std::span<const uint32_t> positions) const;
  Column Gather(std::span<const size_t> positions) const;

  /// True if a Value of type `t` can be stored in / compared with this
  /// column (void matches oid; int and dbl inter-compare).
  bool TypeCompatible(ValueType t) const;

 private:
  Column() = default;

  template <typename T>
  static Column Adopt(ValueType type, std::vector<T> v);

  template <typename Positions>
  Column GatherImpl(const Positions& positions) const;

  template <typename T>
  const T* Data() const {
    return static_cast<const T*>(data_);
  }
  template <typename T>
  std::span<const T> Rows(ValueType t) const {
    if (type_ != t) return {};
    return {Data<T>(), size_};
  }

  ValueType type_ = ValueType::kVoid;
  size_t size_ = 0;
  Oid void_base_ = 0;
  const void* data_ = nullptr;          // first row; null for void
  std::shared_ptr<const void> buffer_;  // owns the rows data_ points into
  std::shared_ptr<StringHeap> heap_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_COLUMN_H_
