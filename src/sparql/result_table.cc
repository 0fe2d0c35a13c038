#include "sparql/result_table.h"

#include "util/string_utils.h"
#include "util/table_printer.h"

namespace re2xolap::sparql {

int ResultTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

double ResultTable::NumericValue(const Cell& cell) const {
  switch (cell.kind) {
    case Cell::Kind::kNumber:
      return cell.number;
    case Cell::Kind::kTerm:
      return store_ ? store_->term(cell.term).AsDouble() : 0.0;
    case Cell::Kind::kNull:
      return 0.0;
  }
  return 0.0;
}

std::string ResultTable::CellToString(const Cell& cell) const {
  switch (cell.kind) {
    case Cell::Kind::kNull:
      return "";
    case Cell::Kind::kNumber:
      return util::FormatDouble(cell.number);
    case Cell::Kind::kTerm: {
      if (!store_) return "#" + std::to_string(cell.term);
      const rdf::TermView t = store_->term(cell.term);
      if (t.is_literal()) return std::string(t.value);
      // IRIs: prefer the entity's rdfs:label when one exists.
      rdf::TermId label_pred = store_->Lookup(
          rdf::Term::Iri("http://www.w3.org/2000/01/rdf-schema#label"));
      if (label_pred != rdf::kInvalidTermId) {
        for (const rdf::EncodedTriple& lt :
             store_->Match({cell.term, label_pred, rdf::kInvalidTermId})) {
          const rdf::TermView o = store_->term(lt.o);
          if (o.is_literal()) return std::string(o.value);
        }
      }
      return std::string(t.value);
    }
  }
  return "";
}

void ResultTable::Print(std::ostream& os, size_t max_rows) const {
  util::TablePrinter printer(columns_);
  size_t shown = 0;
  for (const Row& row : rows_) {
    if (shown++ >= max_rows) break;
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Cell& c : row) cells.push_back(CellToString(c));
    printer.AddRow(std::move(cells));
  }
  printer.Print(os);
  if (rows_.size() > max_rows) {
    os << "... (" << rows_.size() - max_rows << " more rows)\n";
  }
}

}  // namespace re2xolap::sparql
