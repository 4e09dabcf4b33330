#include "monet/column.h"

namespace mirror::monet {

Column Column::MakeVoid(Oid base, size_t n) {
  Column c;
  c.type_ = ValueType::kVoid;
  c.void_base_ = base;
  c.size_ = n;
  return c;
}

Column Column::MakeOids(std::vector<Oid> v) {
  Column c;
  c.type_ = ValueType::kOid;
  c.size_ = v.size();
  c.oids_ = std::move(v);
  return c;
}

Column Column::MakeInts(std::vector<int64_t> v) {
  Column c;
  c.type_ = ValueType::kInt;
  c.size_ = v.size();
  c.ints_ = std::move(v);
  return c;
}

Column Column::MakeDbls(std::vector<double> v) {
  Column c;
  c.type_ = ValueType::kDbl;
  c.size_ = v.size();
  c.dbls_ = std::move(v);
  return c;
}

Column Column::MakeStrs(const std::vector<std::string>& v) {
  size_t bytes = 0;
  for (const auto& s : v) bytes += s.size() + 1;
  auto heap = std::make_shared<StringHeap>();
  heap->Reserve(v.size(), bytes);
  std::vector<uint32_t> offsets;
  offsets.reserve(v.size());
  for (const auto& s : v) offsets.push_back(heap->Intern(s));
  heap->ShrinkToFit();
  return MakeStrsShared(std::move(heap), std::move(offsets));
}

Column Column::MakeStrsShared(std::shared_ptr<StringHeap> heap,
                              std::vector<uint32_t> offsets) {
  MIRROR_CHECK(heap != nullptr);
  Column c;
  c.type_ = ValueType::kStr;
  c.size_ = offsets.size();
  c.str_offsets_ = std::move(offsets);
  c.heap_ = std::move(heap);
  return c;
}

Value Column::ValueAt(size_t i) const {
  MIRROR_CHECK_LT(i, size_);
  switch (type_) {
    case ValueType::kVoid:
    case ValueType::kOid:
      return Value::MakeOid(OidAt(i));
    case ValueType::kInt:
      return Value::MakeInt(ints_[i]);
    case ValueType::kDbl:
      return Value::MakeDbl(dbls_[i]);
    case ValueType::kStr:
      return Value::MakeStr(std::string(StrAt(i)));
  }
  MIRROR_UNREACHABLE();
  return Value();
}

Column Column::Materialized() const {
  if (type_ != ValueType::kVoid) return *this;
  std::vector<Oid> oids(size_);
  for (size_t i = 0; i < size_; ++i) oids[i] = void_base_ + i;
  return MakeOids(std::move(oids));
}

namespace {

// One gather body shared by the 64- and 32-bit position forms.
template <typename Positions, typename ValueAt, typename Make>
auto GatherAs(const Positions& positions, ValueAt value_at, Make make) {
  using Out = decltype(value_at(size_t{0}));
  std::vector<Out> out;
  out.reserve(positions.size());
  for (auto p : positions) out.push_back(value_at(static_cast<size_t>(p)));
  return make(std::move(out));
}

}  // namespace

template <typename Positions>
Column Column::GatherImpl(const Positions& positions) const {
  switch (type_) {
    case ValueType::kVoid:
    case ValueType::kOid:
      return GatherAs(
          positions, [&](size_t p) { return OidAt(p); },
          [](std::vector<Oid> v) { return MakeOids(std::move(v)); });
    case ValueType::kInt:
      return GatherAs(
          positions, [&](size_t p) { return ints_[p]; },
          [](std::vector<int64_t> v) { return MakeInts(std::move(v)); });
    case ValueType::kDbl:
      return GatherAs(
          positions, [&](size_t p) { return dbls_[p]; },
          [](std::vector<double> v) { return MakeDbls(std::move(v)); });
    case ValueType::kStr:
      return GatherAs(
          positions, [&](size_t p) { return str_offsets_[p]; },
          [&](std::vector<uint32_t> v) {
            return MakeStrsShared(heap_, std::move(v));
          });
  }
  MIRROR_UNREACHABLE();
  return Column::MakeVoid(0, 0);
}

Column Column::Gather(const std::vector<size_t>& positions) const {
  return GatherImpl(positions);
}

Column Column::Gather(const std::vector<uint32_t>& positions) const {
  return GatherImpl(positions);
}

bool Column::TypeCompatible(ValueType t) const {
  ValueType self = type_ == ValueType::kVoid ? ValueType::kOid : type_;
  ValueType other = t == ValueType::kVoid ? ValueType::kOid : t;
  if (self == other) return true;
  bool self_num = self == ValueType::kInt || self == ValueType::kDbl;
  bool other_num = other == ValueType::kInt || other == ValueType::kDbl;
  return self_num && other_num;
}

}  // namespace mirror::monet
