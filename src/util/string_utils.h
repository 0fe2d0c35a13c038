#ifndef RE2XOLAP_UTIL_STRING_UTILS_H_
#define RE2XOLAP_UTIL_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace re2xolap::util {

/// ASCII lower-casing; non-ASCII bytes pass through unchanged.
std::string ToLower(std::string_view s);
void ToLowerInPlace(std::string* s);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `haystack` contains `needle` ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// The next word token of `s` at or after `*pos`: a maximal run of ASCII
/// alphanumerics, returned as a view into `s` with `*pos` advanced past
/// it; empty once no token is left. The one definition of a word token.
std::string_view NextWord(std::string_view s, size_t* pos);

/// Splits into lowercase alphanumeric word tokens ("Oct. 2014" ->
/// {"oct", "2014"}). Used by the full-text index and keyword matching.
std::vector<std::string> TokenizeWords(std::string_view s);

/// Formats a double trimming trailing zeros ("2.5", "3", "0.125").
std::string FormatDouble(double v);

}  // namespace re2xolap::util

#endif  // RE2XOLAP_UTIL_STRING_UTILS_H_
