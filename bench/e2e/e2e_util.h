#ifndef RE2XOLAP_BENCH_E2E_E2E_UTIL_H_
#define RE2XOLAP_BENCH_E2E_E2E_UTIL_H_

// Helpers of bench_e2e that know nothing about workloads: sample
// statistics, the order-insensitive row digest shared by HTTP responses
// and in-process result tables, small scanners over the server's JSON
// bodies and Prometheus text, and the metric list printed at the end.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "server/http.h"
#include "sparql/result_table.h"
#include "util/hash.h"

namespace re2xolap::e2e {

/// Nearest-rank percentile: the smallest sample with at least a fraction
/// `p` of all samples at or below it (0 for no samples).
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// CPU time on `clock` (CLOCK_PROCESS_CPUTIME_ID or
/// CLOCK_THREAD_CPUTIME_ID), in milliseconds.
inline double CpuMillis(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Multiset digest of a table's rows: the row count plus the wrapping sum
/// of one XXH64 per rendered row, so row order does not matter.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void AddRow(std::string_view rendered) {
    ++rows;
    sum += util::Xxh64(rendered.data(), rendered.size());
  }
  friend bool operator==(const RowDigest& a, const RowDigest& b) {
    return a.rows == b.rows && a.sum == b.sum;
  }
};

/// Renders each row exactly as server.cc's TableResponse does
/// ("[cell, cell]", numbers as %.12g, strings JSON-escaped) and digests
/// it, so an in-process table and its HTTP rendering digest equally.
inline RowDigest DigestTable(const sparql::ResultTable& table) {
  RowDigest d;
  std::string row;
  for (size_t r = 0; r < table.row_count(); ++r) {
    row = "[";
    for (size_t c = 0; c < table.column_count(); ++c) {
      if (c > 0) row += ", ";
      const sparql::Cell& cell = table.at(r, c);
      if (cell.is_null()) {
        row += "null";
      } else if (cell.is_number()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", cell.number);
        row += buf;
      } else {
        row += "\"" + server::JsonEscape(table.CellToString(cell)) + "\"";
      }
    }
    row += "]";
    d.AddRow(row);
  }
  return d;
}

/// Digests the "rows" array of a table response body. Returns false when
/// the body has no well-formed rows array.
inline bool DigestResponseRows(std::string_view body, RowDigest* out) {
  constexpr std::string_view kRows = "\"rows\": [";
  size_t pos = body.find(kRows);
  if (pos == std::string_view::npos) return false;
  pos += kRows.size();
  RowDigest d;
  while (pos < body.size()) {
    if (body[pos] == ']') {
      *out = d;
      return true;
    }
    if (body[pos] == ',' || body[pos] == ' ') {
      ++pos;
      continue;
    }
    if (body[pos] != '[') return false;
    // One row: scan to its closing bracket, skipping string contents.
    const size_t start = pos;
    bool in_string = false;
    for (++pos; pos < body.size(); ++pos) {
      const char ch = body[pos];
      if (in_string) {
        if (ch == '\\') {
          ++pos;
        } else if (ch == '"') {
          in_string = false;
        }
      } else if (ch == '"') {
        in_string = true;
      } else if (ch == ']') {
        break;
      }
    }
    if (pos >= body.size()) return false;
    ++pos;
    d.AddRow(body.substr(start, pos - start));
  }
  return false;
}

/// The part of a table response that a cache hit must reproduce byte for
/// byte: everything before the per-execution "stats" object.
inline std::string_view TablePart(std::string_view body) {
  return body.substr(0, body.find(", \"stats\": {"));
}

/// Unsigned integer following `key` (e.g. "\"row_count\": "), or
/// `fallback` when absent.
inline uint64_t UintField(std::string_view body, std::string_view key,
                          uint64_t fallback = 0) {
  size_t pos = body.find(key);
  if (pos == std::string_view::npos) return fallback;
  pos += key.size();
  uint64_t v = 0;
  bool any = false;
  while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') {
    v = v * 10 + static_cast<uint64_t>(body[pos++] - '0');
    any = true;
  }
  return any ? v : fallback;
}

/// Number following `key`, or 0 when absent.
inline double NumberField(std::string_view body, std::string_view key) {
  size_t pos = body.find(key);
  if (pos == std::string_view::npos) return 0;
  return std::strtod(std::string(body.substr(pos + key.size(), 32)).c_str(),
                     nullptr);
}

/// String value following `key` up to the next quote; for values that
/// contain no escapes, such as session ids.
inline std::string StringField(std::string_view body, std::string_view key) {
  size_t pos = body.find(key);
  if (pos == std::string_view::npos) return "";
  pos += key.size();
  size_t end = body.find('"', pos);
  if (end == std::string_view::npos) return "";
  return std::string(body.substr(pos, end - pos));
}

/// Occurrences of `needle` in `body`. The option lists of /start and
/// /refine emit one `{"index": ` per entry; inside JSON strings the quotes
/// are escaped, so the needle cannot match string content.
inline size_t Count(std::string_view body, std::string_view needle) {
  size_t n = 0;
  for (size_t pos = body.find(needle); pos != std::string_view::npos;
       pos = body.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// One Prometheus scrape: counters and gauges by sanitized name, and each
/// histogram's cumulative bucket counts keyed by upper bound.
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, std::map<double, double>> buckets;

  double Value(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
};

inline Scrape ParsePrometheus(std::string_view text) {
  Scrape s;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    const double value =
        std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
    std::string_view name = line.substr(0, space);
    const size_t brace = name.find("_bucket{le=\"");
    if (brace == std::string_view::npos) {
      s.values[std::string(name)] = value;
      continue;
    }
    const std::string le(name.substr(brace + 12).substr(
        0, name.substr(brace + 12).find('"')));
    const double bound =
        le == "+Inf" ? HUGE_VAL : std::strtod(le.c_str(), nullptr);
    s.buckets[std::string(name.substr(0, brace))][bound] = value;
  }
  return s;
}

/// Quantile `q` of the observations a histogram gained between two
/// scrapes, interpolated linearly inside the selected bucket as
/// Prometheus' histogram_quantile does (the registry's buckets are
/// 2^(1/4) wide). 0 when nothing was observed.
inline double DeltaQuantile(const Scrape& before, const Scrape& after,
                            const std::string& histogram, double q) {
  auto cumulative = [&](const Scrape& s, double bound) {
    auto h = s.buckets.find(histogram);
    if (h == s.buckets.end()) return 0.0;
    // The export is sparse: a missing bound carries the count of the
    // nearest exported bound below it.
    auto it = h->second.upper_bound(bound);
    return it == h->second.begin() ? 0.0 : std::prev(it)->second;
  };
  auto h = after.buckets.find(histogram);
  if (h == after.buckets.end()) return 0;
  std::vector<double> bounds;
  for (const auto& [bound, count] : h->second) bounds.push_back(bound);
  const double total = cumulative(after, HUGE_VAL) - cumulative(before, HUGE_VAL);
  if (total <= 0) return 0;
  const double target = q * total;
  double prev_count = 0;
  for (double bound : bounds) {
    const double count = cumulative(after, bound) - cumulative(before, bound);
    if (count >= target && count > prev_count) {
      if (std::isinf(bound)) return bounds.size() > 1 ? bounds[bounds.size() - 2] : 0;
      const double lower = bound / std::pow(2.0, 0.25);
      return lower + (bound - lower) * (target - prev_count) / (count - prev_count);
    }
    prev_count = count;
  }
  return 0;
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// JSON number with every digit the double carries; non-finite values
/// (a ratio over nothing) render as 0.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": "u"}, ...}
inline std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + server::JsonEscape(metrics[i].name) + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           server::JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

}  // namespace re2xolap::e2e

#endif  // RE2XOLAP_BENCH_E2E_E2E_UTIL_H_
