#ifndef MIRROR_MOA_MOA_VALUE_H_
#define MIRROR_MOA_MOA_VALUE_H_

#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "monet/value.h"

namespace mirror::moa {

/// A materialized logical object: the tuple-at-a-time representation used
/// for loading data and by the naive object-algebra interpreter (the
/// [BWK98] baseline of experiment E1). The flattened engine never
/// materializes these — it works on the BAT layout instead.
///
/// One tagged union over the kinds' payloads: the kind is the variant
/// index, so an object costs 48 bytes whatever its kind, and a bulk load
/// of n-field tuples holds 48 bytes per row plus one n * 48-byte field
/// array. An accessor called on another kind returns an empty (or, for
/// atomic(), a default int 0) value.
class MoaValue {
 public:
  /// In variant-index order.
  enum class Kind {
    kAtomic,   // one physical scalar
    kVector,   // feature vector (extension atomic for the media daemons)
    kTuple,    // ordered field values
    kSet,      // element values
    kContRep,  // raw content representation: the term multiset of the doc
  };

  static MoaValue Atomic(monet::Value v) { return MoaValue(std::move(v)); }
  static MoaValue Int(int64_t v) { return Atomic(monet::Value::MakeInt(v)); }
  static MoaValue Dbl(double v) { return Atomic(monet::Value::MakeDbl(v)); }
  static MoaValue Str(std::string v) {
    return Atomic(monet::Value::MakeStr(std::move(v)));
  }
  static MoaValue Vector(std::vector<double> v) {
    return MoaValue(std::move(v));
  }
  static MoaValue Tuple(std::vector<MoaValue> fields) {
    return MoaValue(TupleFields{std::move(fields)});
  }
  static MoaValue SetOf(std::vector<MoaValue> elements) {
    return MoaValue(SetElements{std::move(elements)});
  }
  /// A content representation given as raw index terms (already
  /// tokenized/stemmed, or visual terms).
  static MoaValue ContRep(std::vector<std::string> terms) {
    return MoaValue(std::move(terms));
  }

  Kind kind() const { return static_cast<Kind>(repr_.index()); }
  const monet::Value& atomic() const { return Get<monet::Value>(); }
  const std::vector<double>& vec() const { return Get<std::vector<double>>(); }
  /// For kTuple the fields, for kSet the elements.
  const std::vector<MoaValue>& children() const {
    if (const auto* s = std::get_if<SetElements>(&repr_)) return s->values;
    return Get<TupleFields>().values;
  }
  const std::vector<std::string>& terms() const {
    return Get<std::vector<std::string>>();
  }

  /// For kTuple: field by position.
  const MoaValue& field(size_t i) const { return children()[i]; }
  /// For kSet: elements.
  const std::vector<MoaValue>& elements() const { return children(); }

  std::string ToString() const;

 private:
  // Tuple and set payloads are distinct types so that each kind has its
  // own variant index.
  struct TupleFields {
    std::vector<MoaValue> values;
  };
  struct SetElements {
    std::vector<MoaValue> values;
  };
  using Repr = std::variant<monet::Value, std::vector<double>, TupleFields,
                            SetElements, std::vector<std::string>>;

  explicit MoaValue(Repr repr) : repr_(std::move(repr)) {}

  /// The payload of type T, or a static default T for another kind.
  template <typename T>
  const T& Get() const {
    if (const T* p = std::get_if<T>(&repr_)) return *p;
    static const T kDefault{};
    return kDefault;
  }

  Repr repr_;
};

static_assert(sizeof(MoaValue) == 48,
              "MoaValue is a 40-byte monet::Value plus the variant tag");
static_assert(std::is_nothrow_move_constructible_v<MoaValue>,
              "vector<MoaValue> must regrow by moving");

}  // namespace mirror::moa

#endif  // MIRROR_MOA_MOA_VALUE_H_
