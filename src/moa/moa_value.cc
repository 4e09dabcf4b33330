#include "moa/moa_value.h"

namespace mirror::moa {

std::string MoaValue::ToString() const {
  switch (kind()) {
    case Kind::kAtomic:
      return atomic().ToString();
    case Kind::kVector: {
      const std::vector<double>& v = vec();
      std::string out = "vec[";
      for (size_t i = 0; i < v.size() && i < 4; ++i) {
        if (i > 0) out += ",";
        out += std::to_string(v[i]);
      }
      if (v.size() > 4) out += ",...";
      return out + "]";
    }
    case Kind::kTuple: {
      const std::vector<MoaValue>& fields = children();
      std::string out = "<";
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += fields[i].ToString();
      }
      return out + ">";
    }
    case Kind::kSet: {
      const std::vector<MoaValue>& elems = elements();
      std::string out = "{";
      for (size_t i = 0; i < elems.size() && i < 8; ++i) {
        if (i > 0) out += ", ";
        out += elems[i].ToString();
      }
      if (elems.size() > 8) out += ", ...";
      return out + "}";
    }
    case Kind::kContRep: {
      const std::vector<std::string>& t = terms();
      std::string out = "contrep{";
      for (size_t i = 0; i < t.size() && i < 8; ++i) {
        if (i > 0) out += " ";
        out += t[i];
      }
      if (t.size() > 8) out += " ...";
      return out + "}";
    }
  }
  return "?";
}

}  // namespace mirror::moa
