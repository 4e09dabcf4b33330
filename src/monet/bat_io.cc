#include "monet/bat_io.h"

#include <array>
#include <cstring>
#include <memory>
#include <string>

#include "monet/string_heap.h"

namespace mirror::monet {

namespace {

template <typename T>
void AppendPod(const T& v, std::vector<uint8_t>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
void AppendVec(const std::vector<T>& v, std::vector<uint8_t>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendPod<uint64_t>(v.size(), out);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(v.data());
  out->insert(out->end(), p, p + v.size() * sizeof(T));
}

template <typename T>
base::Status ReadPod(const std::vector<uint8_t>& buf, size_t* pos, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (buf.size() - *pos < sizeof(T) || *pos > buf.size()) {
    return base::Status::ParseError("truncated column encoding");
  }
  std::memcpy(v, buf.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return base::Status::Ok();
}

template <typename T>
base::Status ReadVec(const std::vector<uint8_t>& buf, size_t* pos,
                     std::vector<T>* v) {
  uint64_t n = 0;
  base::Status s = ReadPod(buf, pos, &n);
  if (!s.ok()) return s;
  if ((buf.size() - *pos) / sizeof(T) < n) {
    return base::Status::ParseError("truncated column payload");
  }
  v->resize(static_cast<size_t>(n));
  // An empty vector's data() may be null, and memcpy from or to null is
  // undefined even for zero bytes.
  if (n > 0) std::memcpy(v->data(), buf.data() + *pos, n * sizeof(T));
  *pos += n * sizeof(T);
  return base::Status::Ok();
}

base::Status ReadString(const std::vector<uint8_t>& buf, size_t* pos,
                        std::string* v) {
  uint64_t n = 0;
  base::Status s = ReadPod(buf, pos, &n);
  if (!s.ok()) return s;
  if (buf.size() - *pos < n) {
    return base::Status::ParseError("truncated string payload");
  }
  v->assign(reinterpret_cast<const char*>(buf.data() + *pos),
            static_cast<size_t>(n));
  *pos += n;
  return base::Status::Ok();
}

}  // namespace

void EncodeColumn(const Column& c, std::vector<uint8_t>* out) {
  AppendPod<uint8_t>(static_cast<uint8_t>(c.type()), out);
  AppendPod<uint64_t>(c.size(), out);
  switch (c.type()) {
    case ValueType::kVoid:
      AppendPod<uint64_t>(c.void_base(), out);
      break;
    case ValueType::kOid:
      AppendVec(c.oids(), out);
      break;
    case ValueType::kInt:
      AppendVec(c.ints(), out);
      break;
    case ValueType::kDbl:
      AppendVec(c.dbls(), out);
      break;
    case ValueType::kStr: {
      const std::string& heap = c.heap()->buffer();
      AppendPod<uint64_t>(heap.size(), out);
      const uint8_t* p = reinterpret_cast<const uint8_t*>(heap.data());
      out->insert(out->end(), p, p + heap.size());
      AppendVec(c.str_offsets(), out);
      break;
    }
  }
}

base::Result<Column> DecodeColumn(const std::vector<uint8_t>& buf,
                                  size_t* pos) {
  uint8_t type = 0;
  uint64_t size = 0;
  base::Status s = ReadPod(buf, pos, &type);
  if (!s.ok()) return s;
  s = ReadPod(buf, pos, &size);
  if (!s.ok()) return s;
  switch (static_cast<ValueType>(type)) {
    case ValueType::kVoid: {
      uint64_t base_oid = 0;
      s = ReadPod(buf, pos, &base_oid);
      if (!s.ok()) return s;
      return Column::MakeVoid(base_oid, static_cast<size_t>(size));
    }
    case ValueType::kOid: {
      std::vector<Oid> v;
      s = ReadVec(buf, pos, &v);
      if (!s.ok()) return s;
      if (v.size() != size) {
        return base::Status::ParseError("oid column size mismatch");
      }
      return Column::MakeOids(std::move(v));
    }
    case ValueType::kInt: {
      std::vector<int64_t> v;
      s = ReadVec(buf, pos, &v);
      if (!s.ok()) return s;
      if (v.size() != size) {
        return base::Status::ParseError("int column size mismatch");
      }
      return Column::MakeInts(std::move(v));
    }
    case ValueType::kDbl: {
      std::vector<double> v;
      s = ReadVec(buf, pos, &v);
      if (!s.ok()) return s;
      if (v.size() != size) {
        return base::Status::ParseError("dbl column size mismatch");
      }
      return Column::MakeDbls(std::move(v));
    }
    case ValueType::kStr: {
      std::string heap_buf;
      s = ReadString(buf, pos, &heap_buf);
      if (!s.ok()) return s;
      std::vector<uint32_t> offsets;
      s = ReadVec(buf, pos, &offsets);
      if (!s.ok()) return s;
      if (offsets.size() != size) {
        return base::Status::ParseError("str column size mismatch");
      }
      for (uint32_t off : offsets) {
        if (off >= heap_buf.size()) {
          return base::Status::ParseError("str offset outside heap");
        }
      }
      auto heap = std::make_shared<StringHeap>(
          StringHeap::FromBuffer(std::move(heap_buf)));
      return Column::MakeStrsShared(std::move(heap), std::move(offsets));
    }
  }
  return base::Status::ParseError("unknown column type tag");
}

void EncodeBat(const Bat& bat, std::vector<uint8_t>* out) {
  EncodeColumn(bat.head(), out);
  EncodeColumn(bat.tail(), out);
}

base::Result<Bat> DecodeBat(const std::vector<uint8_t>& buf, size_t* pos) {
  auto head = DecodeColumn(buf, pos);
  if (!head.ok()) return head.status();
  auto tail = DecodeColumn(buf, pos);
  if (!tail.ok()) return tail.status();
  if (head.value().size() != tail.value().size()) {
    return base::Status::ParseError("bat head/tail size mismatch");
  }
  return Bat(head.TakeValue(), tail.TakeValue());
}

void EncodeValue(const Value& v, std::vector<uint8_t>* out) {
  AppendPod<uint8_t>(static_cast<uint8_t>(v.type()), out);
  switch (v.type()) {
    case ValueType::kOid:
      AppendPod<uint64_t>(v.oid(), out);
      break;
    case ValueType::kInt:
      AppendPod<int64_t>(v.i(), out);
      break;
    case ValueType::kDbl:
      AppendPod<double>(v.d(), out);
      break;
    case ValueType::kStr: {
      AppendPod<uint64_t>(v.s().size(), out);
      const uint8_t* p = reinterpret_cast<const uint8_t*>(v.s().data());
      out->insert(out->end(), p, p + v.s().size());
      break;
    }
    case ValueType::kVoid:
      break;  // no payload; decoder rejects the tag
  }
}

base::Result<Value> DecodeValue(const std::vector<uint8_t>& buf,
                                size_t* pos) {
  uint8_t type = 0;
  base::Status s = ReadPod(buf, pos, &type);
  if (!s.ok()) return s;
  switch (static_cast<ValueType>(type)) {
    case ValueType::kOid: {
      uint64_t v = 0;
      s = ReadPod(buf, pos, &v);
      if (!s.ok()) return s;
      return Value::MakeOid(v);
    }
    case ValueType::kInt: {
      int64_t v = 0;
      s = ReadPod(buf, pos, &v);
      if (!s.ok()) return s;
      return Value::MakeInt(v);
    }
    case ValueType::kDbl: {
      double v = 0;
      s = ReadPod(buf, pos, &v);
      if (!s.ok()) return s;
      return Value::MakeDbl(v);
    }
    case ValueType::kStr: {
      std::string v;
      s = ReadString(buf, pos, &v);
      if (!s.ok()) return s;
      return Value::MakeStr(std::move(v));
    }
    default:
      return base::Status::ParseError("unknown value type tag");
  }
}

namespace {

/// 256-entry lookup table for the reflected IEEE polynomial, built once.
const uint32_t* Crc32Table() {
  static const auto table = [] {
    auto t = std::make_unique<std::array<uint32_t, 256>>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      (*t)[i] = c;
    }
    return t;
  }();
  return table->data();
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const uint32_t* table = Crc32Table();
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace mirror::monet
