#ifndef MIRROR_BENCH_BENCH_JSON_H_
#define MIRROR_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "base/logging.h"

namespace mirror::bench {

/// Merges `"section": object` into BENCH_retrieval.json in the current
/// directory (created if the retrieval bench has not run). A stale copy
/// of the section is dropped first, so repeated standalone runs do not
/// stack duplicate keys. `object` is a rendered JSON object that must be
/// flat: the stale copy is taken to end at the first '}' after its key.
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
  for (;;) {
    size_t at = body.find(key);
    if (at == std::string::npos) break;
    size_t open = body.find('{', at);
    size_t close = body.find('}', open);
    if (open == std::string::npos || close == std::string::npos) break;
    size_t start = body.rfind(',', at);
    size_t end = close + 1;
    if (start == std::string::npos || body.rfind('{', at) > start) {
      start = body.find('{') + 1;  // section is first: swallow the comma after
      size_t after = body.find_first_not_of(" \n\t", end);
      if (after != std::string::npos && body[after] == ',') end = after + 1;
    }
    body.erase(start, end - start);
  }
  auto rstrip = [&] {
    while (!body.empty() &&
           (body.back() == '\n' || body.back() == ' ' || body.back() == '\t')) {
      body.pop_back();
    }
  };
  rstrip();
  if (body.empty() || body.back() != '}') {
    body = "{";
  } else {
    body.pop_back();
    rstrip();
    if (!body.empty() && body.back() != '{') body += ",";
  }
  body += "\n  " + key + ": " + object + "\n}\n";
  std::ofstream out("BENCH_retrieval.json", std::ios::trunc);
  out << body;
  MIRROR_CHECK(out.good()) << "could not write BENCH_retrieval.json";
  std::printf("merged %s into BENCH_retrieval.json\n", section.c_str());
}

}  // namespace mirror::bench

#endif  // MIRROR_BENCH_BENCH_JSON_H_
