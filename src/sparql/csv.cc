#include "sparql/csv.h"

#include <string>

namespace re2xolap::sparql {

namespace {

void WriteCell(const std::string& value, std::ostream& os) {
  bool needs_quotes = value.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    os << value;
    return;
  }
  os << '"';
  for (char c : value) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

void WriteCsv(const ResultTable& table, std::ostream& os) {
  const std::vector<std::string>& cols = table.columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    if (c > 0) os << ',';
    WriteCell(cols[c], os);
  }
  os << '\n';
  for (size_t r = 0; r < table.row_count(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c > 0) os << ',';
      WriteCell(table.CellToString(table.at(r, c)), os);
    }
    os << '\n';
  }
}

}  // namespace re2xolap::sparql
