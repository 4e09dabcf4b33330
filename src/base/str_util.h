#ifndef MIRROR_BASE_STR_UTIL_H_
#define MIRROR_BASE_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mirror::base {

/// Splits `s` on `sep`, omitting empty pieces.
std::vector<std::string> SplitNonEmpty(std::string_view s, char sep);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// The shortest spelling of `d` that parses back to exactly `d`
/// (std::to_chars): 0.5 prints "0.5", and two doubles differing in the
/// ninth digit print differently, unlike "%g".
std::string ShortestDouble(double d);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace mirror::base

#endif  // MIRROR_BASE_STR_UTIL_H_
