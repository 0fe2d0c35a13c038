#include "sparql/explain.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "util/table_printer.h"

namespace re2xolap::sparql {

namespace {

std::string FormatMillis(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string RenderProfile(const obs::ProfileNode& root, bool include_timing) {
  util::TablePrinter tp({"operator", "rows in", "rows out", "scanned",
                         "millis"});
  obs::VisitProfile(root, [&](int depth, const obs::ProfileNode& node) {
    std::string label(static_cast<size_t>(depth) * 2, ' ');
    label += node.label;
    std::string millis = "-";
    if (node.timed) {
      millis = include_timing ? FormatMillis(node.millis) : "*";
    }
    tp.AddRow({std::move(label), std::to_string(node.rows_in),
               std::to_string(node.rows_out), std::to_string(node.scanned),
               std::move(millis)});
  });
  std::ostringstream os;
  tp.Print(os);
  return os.str();
}

}  // namespace re2xolap::sparql
