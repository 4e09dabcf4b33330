#include "monet/value.h"

#include "base/str_util.h"

namespace mirror::monet {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kVoid:
      return "void";
    case ValueType::kOid:
      return "oid";
    case ValueType::kInt:
      return "int";
    case ValueType::kDbl:
      return "dbl";
    case ValueType::kStr:
      return "str";
  }
  return "?";
}

bool Value::operator==(const Value& o) const {
  if (type() == o.type()) return repr_ == o.repr_;
  bool numeric = (type() == ValueType::kInt || type() == ValueType::kDbl) &&
                 (o.type() == ValueType::kInt || o.type() == ValueType::kDbl);
  MIRROR_CHECK(numeric) << "comparing " << ValueTypeName(type()) << " with "
                        << ValueTypeName(o.type());
  return AsDouble() == o.AsDouble();
}

bool Value::operator<(const Value& o) const {
  if (type() == o.type()) {
    switch (type()) {
      case ValueType::kOid:
        return oid() < o.oid();
      case ValueType::kInt:
        return i() < o.i();
      case ValueType::kDbl:
        return d() < o.d();
      case ValueType::kStr:
        return s() < o.s();
      default:
        MIRROR_UNREACHABLE();
    }
  }
  bool numeric = (type() == ValueType::kInt || type() == ValueType::kDbl) &&
                 (o.type() == ValueType::kInt || o.type() == ValueType::kDbl);
  MIRROR_CHECK(numeric) << "comparing " << ValueTypeName(type()) << " with "
                        << ValueTypeName(o.type());
  return AsDouble() < o.AsDouble();
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kOid:
      return base::StrFormat("oid:%llu", static_cast<unsigned long long>(oid()));
    case ValueType::kInt:
      return base::StrFormat("int:%lld", static_cast<long long>(i()));
    case ValueType::kDbl:
      return "dbl:" + base::ShortestDouble(d());
    case ValueType::kStr:
      return "str:\"" + s() + "\"";
    default:
      MIRROR_UNREACHABLE();
  }
  return "";
}

}  // namespace mirror::monet
