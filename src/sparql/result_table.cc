#include "sparql/result_table.h"

#include <algorithm>

#include "util/string_utils.h"
#include "util/table_printer.h"

namespace re2xolap::sparql {

namespace {

/// `v`'s elements at index[0], index[1], ..., in a vector of exactly
/// index.size() elements.
template <class T>
void GatherVector(std::span<const uint32_t> index, std::vector<T>* v) {
  std::vector<T> out;
  out.reserve(index.size());
  for (uint32_t r : index) out.push_back((*v)[r]);
  v->swap(out);
}

/// Heap bytes behind a string: none while it fits its inline buffer.
size_t StringHeapBytes(const std::string& s) {
  const char* self = reinterpret_cast<const char*>(&s);
  const bool inline_buffer = s.data() >= self && s.data() < self + sizeof(s);
  return inline_buffer ? 0 : s.capacity() + 1;
}

}  // namespace

void Column::Append(const Cell& cell) {
  if ((layout_ == Layout::kTerms && cell.is_number()) ||
      (layout_ == Layout::kNumbers && cell.is_term())) {
    Convert(cell.kind);
  }
  switch (layout_) {
    case Layout::kTerms:
      terms_.push_back(cell.is_term() ? cell.term : rdf::kInvalidTermId);
      return;
    case Layout::kNumbers:
      PushNumber(cell.is_number() ? cell.number : 0.0, cell.is_null());
      return;
    case Layout::kMixed:
      kinds_.push_back(cell.kind);
      terms_.push_back(cell.is_term() ? cell.term : rdf::kInvalidTermId);
      numbers_.push_back(cell.is_number() ? cell.number : 0.0);
      return;
  }
}

void Column::Convert(Cell::Kind kind) {
  const size_t n = size();
  std::vector<Cell::Kind> kinds(n);
  for (size_t r = 0; r < n; ++r) kinds[r] = at(r).kind;
  const bool all_null =
      std::all_of(kinds.begin(), kinds.end(),
                  [](Cell::Kind k) { return k == Cell::Kind::kNull; });
  if (all_null) {
    *this = Column(kind == Cell::Kind::kTerm ? Layout::kTerms
                                             : Layout::kNumbers);
    for (size_t r = 0; r < n; ++r) Append(Cell::Null());
    return;
  }
  if (layout_ == Layout::kTerms) {
    numbers_.assign(n, 0.0);
  } else {
    terms_.assign(n, rdf::kInvalidTermId);
    std::vector<uint64_t>().swap(nulls_);
  }
  kinds_ = std::move(kinds);
  layout_ = Layout::kMixed;
}

void Column::Reserve(size_t n) {
  if (layout_ != Layout::kNumbers) terms_.reserve(n);
  if (layout_ != Layout::kTerms) numbers_.reserve(n);
  if (layout_ == Layout::kNumbers) nulls_.reserve((n + 63) / 64);
  if (layout_ == Layout::kMixed) kinds_.reserve(n);
}

void Column::Gather(std::span<const uint32_t> index) {
  if (layout_ == Layout::kNumbers) {
    std::vector<uint64_t> nulls((index.size() + 63) / 64, 0);
    for (size_t i = 0; i < index.size(); ++i) {
      if (null_bit(index[i])) nulls[i / 64] |= uint64_t{1} << (i % 64);
    }
    nulls_.swap(nulls);
  }
  if (layout_ != Layout::kNumbers) GatherVector(index, &terms_);
  if (layout_ != Layout::kTerms) GatherVector(index, &numbers_);
  if (layout_ == Layout::kMixed) GatherVector(index, &kinds_);
}

size_t Column::AllocatedBytes() const {
  return terms_.capacity() * sizeof(rdf::TermId) +
         numbers_.capacity() * sizeof(double) +
         nulls_.capacity() * sizeof(uint64_t) +
         kinds_.capacity() * sizeof(Cell::Kind);
}

void ResultTable::AppendRow(std::span<const Cell> cells) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(cells[c]);
}

void ResultTable::Gather(std::span<const uint32_t> index) {
  for (Column& column : columns_) column.Gather(index);
}

int ResultTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

size_t ResultTable::AllocatedBytes() const {
  size_t bytes = sizeof(ResultTable) +
                 names_.capacity() * sizeof(std::string) +
                 columns_.capacity() * sizeof(Column);
  for (const std::string& name : names_) bytes += StringHeapBytes(name);
  for (const Column& column : columns_) bytes += column.AllocatedBytes();
  return bytes;
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

std::vector<double> ResultTable::NumericColumn(size_t col) const {
  const Column& column = columns_[col];
  if (column.layout() == Column::Layout::kNumbers) {
    return {column.numbers().begin(), column.numbers().end()};
  }
  std::vector<double> values(column.size());
  for (size_t r = 0; r < values.size(); ++r) {
    values[r] = NumericValue(column.at(r));
  }
  return values;
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
  util::TablePrinter printer(names_);
  const size_t shown = std::min(max_rows, row_count());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(CellToString(at(r, c)));
    }
    printer.AddRow(std::move(cells));
  }
  printer.Print(os);
  if (row_count() > max_rows) {
    os << "... (" << row_count() - max_rows << " more rows)\n";
  }
}

}  // namespace re2xolap::sparql
