#ifndef MIRROR_IR_VOCABULARY_H_
#define MIRROR_IR_VOCABULARY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/logging.h"

namespace mirror::ir {

/// Bidirectional term dictionary: maps index terms (text stems or visual
/// cluster labels like "gabor_21") to dense term ids. Probes hash the
/// `string_view` itself (transparent lookup), so neither Intern of a
/// known term nor Lookup builds a `std::string`.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id of `term`, adding it if new. Ids are dense from 0 in
  /// insertion order.
  int64_t Intern(std::string_view term) {
    auto it = ids_.find(term);
    if (it != ids_.end()) return it->second;
    int64_t id = static_cast<int64_t>(terms_.size());
    terms_.emplace_back(term);
    ids_.emplace(terms_.back(), id);
    return id;
  }

  /// Returns the id of `term`, or -1 if unknown.
  int64_t Lookup(std::string_view term) const {
    auto it = ids_.find(term);
    return it == ids_.end() ? -1 : it->second;
  }

  /// The term spelled by `id`. Precondition: 0 <= id < size().
  const std::string& TermOf(int64_t id) const {
    MIRROR_CHECK_GE(id, 0);
    MIRROR_CHECK_LT(id, static_cast<int64_t>(terms_.size()));
    return terms_[static_cast<size_t>(id)];
  }

  int64_t size() const { return static_cast<int64_t>(terms_.size()); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> terms_;
  std::unordered_map<std::string, int64_t, Hash, std::equal_to<>> ids_;
};

}  // namespace mirror::ir

#endif  // MIRROR_IR_VOCABULARY_H_
