#include "util/string_utils.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace re2xolap::util {

namespace {
bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
char LowerChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}
bool IsAlnum(char c) {
  const char lower = static_cast<char>(c | 0x20);
  return (c >= '0' && c <= '9') || (lower >= 'a' && lower <= 'z');
}
}  // namespace

std::string ToLower(std::string_view s) {
  std::string out(s);
  ToLowerInPlace(&out);
  return out;
}

void ToLowerInPlace(std::string* s) {
  std::transform(s->begin(), s->end(), s->begin(), LowerChar);
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() &&
           LowerChar(haystack[i + j]) == LowerChar(needle[j])) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

std::string_view NextWord(std::string_view s, size_t* pos) {
  size_t b = *pos;
  while (b < s.size() && !IsAlnum(s[b])) ++b;
  size_t e = b;
  while (e < s.size() && IsAlnum(s[e])) ++e;
  *pos = e;
  return s.substr(b, e - b);
}

std::vector<std::string> TokenizeWords(std::string_view s) {
  const std::string lower = ToLower(s);
  std::vector<std::string> tokens;
  size_t pos = 0;
  for (std::string_view w = NextWord(lower, &pos); !w.empty();
       w = NextWord(lower, &pos)) {
    tokens.emplace_back(w);
  }
  return tokens;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace re2xolap::util
