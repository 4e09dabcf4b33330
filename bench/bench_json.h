#ifndef MIRROR_BENCH_BENCH_JSON_H_
#define MIRROR_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace mirror::bench {

/// One past the end of the JSON value that starts at `i` in `s` (an
/// object, array, string or scalar), matching braces and brackets and
/// ignoring any inside strings. A scalar ends at the next top-level ',',
/// '}' or ']'. Returns npos if the value is unterminated.
inline size_t SkipJsonValue(const std::string& s, size_t i) {
  int depth = 0;
  bool in_string = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;  // closes the enclosing object
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return depth == 0 && !in_string ? i : std::string::npos;
}

/// The members of the JSON object `body` as (quoted key, value text)
/// pairs, in order. False if `body` is not one well-formed object.
inline bool SplitJsonObject(
    const std::string& body,
    std::vector<std::pair<std::string, std::string>>* members) {
  auto skip_ws = [&](size_t i) { return body.find_first_not_of(" \n\t\r", i); };
  size_t i = skip_ws(0);
  if (i == std::string::npos || body[i] != '{') return false;
  i = skip_ws(i + 1);
  while (i != std::string::npos && body[i] != '}') {
    if (body[i] != '"') return false;
    const size_t key_end = SkipJsonValue(body, i);
    if (key_end == std::string::npos) return false;
    std::string key = body.substr(i, key_end - i);
    i = skip_ws(key_end);
    if (i == std::string::npos || body[i] != ':') return false;
    i = skip_ws(i + 1);
    if (i == std::string::npos) return false;
    size_t value_end = SkipJsonValue(body, i);
    if (value_end == std::string::npos || value_end == i) return false;
    std::string value = body.substr(i, value_end - i);
    value.erase(value.find_last_not_of(" \n\t\r") + 1);
    members->emplace_back(std::move(key), std::move(value));
    i = skip_ws(value_end);
    if (i != std::string::npos && body[i] == ',') i = skip_ws(i + 1);
  }
  return i != std::string::npos && skip_ws(i + 1) == std::string::npos;
}

/// Merges `"section": object` into BENCH_retrieval.json in the current
/// directory (created if the retrieval bench has not run). A stale copy
/// of the section is dropped first, so repeated standalone runs do not
/// stack duplicate keys; the other sections keep their text. `object` is
/// a rendered JSON value and may nest. A file that is not one JSON object
/// is replaced.
inline void MergeIntoBenchJson(const std::string& section,
                               const std::string& object) {
  const std::string key = "\"" + section + "\"";
  std::string body;
  {
    std::ifstream in("BENCH_retrieval.json");
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      body = buf.str();
    }
  }
  std::vector<std::pair<std::string, std::string>> members;
  if (!SplitJsonObject(body, &members)) members.clear();
  std::string out = "{";
  for (const auto& [k, v] : members) {
    if (k == key) continue;
    out += "\n  " + k + ": " + v + ",";
  }
  out += "\n  " + key + ": " + object + "\n}\n";
  std::ofstream file("BENCH_retrieval.json", std::ios::trunc);
  file << out;
  MIRROR_CHECK(file.good()) << "could not write BENCH_retrieval.json";
  std::printf("merged %s into BENCH_retrieval.json\n", section.c_str());
}

}  // namespace mirror::bench

#endif  // MIRROR_BENCH_BENCH_JSON_H_
