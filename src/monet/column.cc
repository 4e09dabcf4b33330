#include "monet/column.h"

#include "monet/worker_pool.h"

namespace mirror::monet {

Column Column::MakeVoid(Oid base, size_t n) {
  Column c;
  c.type_ = ValueType::kVoid;
  c.void_base_ = base;
  c.size_ = n;
  return c;
}

template <typename T>
Column Column::Adopt(ValueType type, std::vector<T> v) {
  Column c;
  c.type_ = type;
  c.size_ = v.size();
  auto owner = std::make_shared<const std::vector<T>>(std::move(v));
  c.data_ = owner->data();
  c.buffer_ = std::move(owner);
  return c;
}

Column Column::MakeOids(std::vector<Oid> v) {
  return Adopt(ValueType::kOid, std::move(v));
}

Column Column::MakeInts(std::vector<int64_t> v) {
  return Adopt(ValueType::kInt, std::move(v));
}

Column Column::MakeDbls(std::vector<double> v) {
  return Adopt(ValueType::kDbl, std::move(v));
}

Column Column::MakeStrs(const std::vector<std::string>& v) {
  std::vector<uint32_t> offsets;
  auto heap = std::make_shared<StringHeap>(StringHeap::Build(
      v.size(), [&v](size_t i) -> std::string_view { return v[i]; },
      &offsets, &SharedWorkerPool()));
  return MakeStrsShared(std::move(heap), std::move(offsets));
}

Column Column::MakeStrsShared(std::shared_ptr<StringHeap> heap,
                              std::vector<uint32_t> offsets) {
  MIRROR_CHECK(heap != nullptr);
  Column c = Adopt(ValueType::kStr, std::move(offsets));
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
      return Value::MakeInt(IntAt(i));
    case ValueType::kDbl:
      return Value::MakeDbl(DblAt(i));
    case ValueType::kStr:
      return Value::MakeStr(std::string(StrAt(i)));
  }
  MIRROR_UNREACHABLE();
  return Value();
}

Column Column::View(size_t lo, size_t count) const {
  MIRROR_CHECK_LE(lo, size_);
  MIRROR_CHECK_LE(count, size_ - lo);
  Column c = *this;
  c.size_ = count;
  if (type_ == ValueType::kVoid) {
    c.void_base_ += lo;
  } else if (lo > 0) {
    const size_t width =
        type_ == ValueType::kStr ? sizeof(uint32_t) : sizeof(int64_t);
    c.data_ = static_cast<const char*>(data_) + lo * width;
  }
  return c;
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
          positions, [&](size_t p) { return IntAt(p); },
          [](std::vector<int64_t> v) { return MakeInts(std::move(v)); });
    case ValueType::kDbl:
      return GatherAs(
          positions, [&](size_t p) { return DblAt(p); },
          [](std::vector<double> v) { return MakeDbls(std::move(v)); });
    case ValueType::kStr:
      return GatherAs(
          positions, [&](size_t p) { return StrOffsetAt(p); },
          [&](std::vector<uint32_t> v) {
            return MakeStrsShared(heap_, std::move(v));
          });
  }
  MIRROR_UNREACHABLE();
  return Column::MakeVoid(0, 0);
}

Column Column::Gather(std::span<const uint32_t> positions) const {
  return GatherImpl(positions);
}

Column Column::Gather(std::span<const size_t> positions) const {
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
