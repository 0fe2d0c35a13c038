#ifndef RE2XOLAP_SPARQL_RESULT_TABLE_H_
#define RE2XOLAP_SPARQL_RESULT_TABLE_H_

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "rdf/triple_store.h"

namespace re2xolap::sparql {

/// One cell of a query result: an RDF term (by id), a computed number
/// (aggregate output), or null (unbound). Tables do not store cells; they
/// hand them out by value (ResultTable::at).
struct Cell {
  enum class Kind : uint8_t { kNull, kTerm, kNumber };
  Kind kind = Kind::kNull;
  rdf::TermId term = rdf::kInvalidTermId;
  double number = 0.0;

  static Cell Null() { return Cell{}; }
  static Cell OfTerm(rdf::TermId id) {
    return Cell{Kind::kTerm, id, 0.0};
  }
  static Cell OfNumber(double v) {
    return Cell{Kind::kNumber, rdf::kInvalidTermId, v};
  }

  bool is_null() const { return kind == Kind::kNull; }
  bool is_term() const { return kind == Kind::kTerm; }
  bool is_number() const { return kind == Kind::kNumber; }

  friend bool operator==(const Cell& a, const Cell& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case Kind::kNull:
        return true;
      case Kind::kTerm:
        return a.term == b.term;
      case Kind::kNumber:
        return a.number == b.number;
    }
    return false;
  }
};

/// One result column, stored in the narrowest layout that holds its
/// cells:
///   kTerms    one rdf::TermId per cell; kInvalidTermId is null (4 B).
///   kNumbers  one double per cell plus a null bitmap (8 B + 1 bit).
///   kMixed    a term id, a double and a kind byte per cell (13 B); only
///             a column that really holds both terms and numbers.
/// A column starts in the layout it is given (kTerms by default). A cell
/// the layout cannot hold converts it: to the other single-kind layout
/// while every cell so far is null, else to kMixed.
class Column {
 public:
  enum class Layout : uint8_t { kTerms, kNumbers, kMixed };

  explicit Column(Layout layout = Layout::kTerms) : layout_(layout) {}

  Layout layout() const { return layout_; }
  size_t size() const {
    return layout_ == Layout::kTerms ? terms_.size() : numbers_.size();
  }

  Cell at(size_t row) const {
    switch (layout_) {
      case Layout::kTerms:
        return terms_[row] == rdf::kInvalidTermId ? Cell::Null()
                                                  : Cell::OfTerm(terms_[row]);
      case Layout::kNumbers:
        return null_bit(row) ? Cell::Null() : Cell::OfNumber(numbers_[row]);
      case Layout::kMixed:
        return Cell{kinds_[row], terms_[row], numbers_[row]};
    }
    return Cell::Null();
  }

  /// Typed views. terms() is empty for kNumbers; in kMixed it holds
  /// kInvalidTermId for every non-term cell. numbers() is empty for
  /// kTerms; a null or term cell reads 0 there.
  std::span<const rdf::TermId> terms() const { return terms_; }
  std::span<const double> numbers() const { return numbers_; }

  /// Appends a term cell (kInvalidTermId appends null).
  void AppendTerm(rdf::TermId id) {
    if (layout_ == Layout::kTerms) {
      terms_.push_back(id);
    } else {
      Append(id == rdf::kInvalidTermId ? Cell::Null() : Cell::OfTerm(id));
    }
  }
  void AppendNumber(double v) {
    if (layout_ == Layout::kNumbers) {
      PushNumber(v, /*null=*/false);
    } else {
      Append(Cell::OfNumber(v));
    }
  }
  void Append(const Cell& cell);

  /// Room for `n` cells in the current layout.
  void Reserve(size_t n);

  /// Keeps the cells at rows index[0], index[1], ... in that order, in
  /// arrays of exactly index.size() cells.
  void Gather(std::span<const uint32_t> index);

  /// Heap bytes of the arrays, by capacity.
  size_t AllocatedBytes() const;

 private:
  bool null_bit(size_t row) const {
    return (nulls_[row / 64] >> (row % 64)) & 1;
  }
  void PushNumber(double v, bool null) {
    if (numbers_.size() % 64 == 0) nulls_.push_back(0);
    if (null) nulls_.back() |= uint64_t{1} << (numbers_.size() % 64);
    numbers_.push_back(v);
  }
  /// Re-lays the column out so it can take a cell of kind `kind`.
  void Convert(Cell::Kind kind);

  Layout layout_;
  std::vector<rdf::TermId> terms_;  // kTerms, kMixed
  std::vector<double> numbers_;     // kNumbers, kMixed
  std::vector<uint64_t> nulls_;     // kNumbers: bit r set = row r is null
  std::vector<Cell::Kind> kinds_;   // kMixed
};

/// A materialized query result: named columns of cells, stored column by
/// column (see Column). Holds a pointer to the store so term cells can be
/// rendered; the store must outlive the table.
///
/// Writers append to every column through mutable_column() (or a whole
/// row through AppendRow) before the table is read; row_count() is the
/// first column's length.
class ResultTable {
 public:
  ResultTable() = default;
  /// Columns named `columns`, each empty and in the kTerms layout.
  ResultTable(const rdf::TripleStore* store, std::vector<std::string> columns)
      : store_(store),
        names_(std::move(columns)),
        columns_(names_.size()) {}

  const std::vector<std::string>& columns() const { return names_; }
  size_t row_count() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t column_count() const { return names_.size(); }
  const rdf::TripleStore* store() const { return store_; }

  const Column& column(size_t col) const { return columns_[col]; }
  Column& mutable_column(size_t col) { return columns_[col]; }

  /// Appends one row: one cell per column.
  void AppendRow(std::span<const Cell> cells);
  void AppendRow(std::initializer_list<Cell> cells) {
    AppendRow(std::span<const Cell>(cells.begin(), cells.size()));
  }

  /// Keeps rows index[0], index[1], ... in that order (Column::Gather on
  /// every column, one column at a time).
  void Gather(std::span<const uint32_t> index);

  /// Index of a column by name; -1 when absent.
  int ColumnIndex(const std::string& name) const;

  Cell at(size_t row, size_t col) const { return columns_[col].at(row); }

  /// Bytes the table holds: the object itself, the column objects and
  /// their arrays by capacity, and the column names.
  size_t AllocatedBytes() const;

  /// Numeric view of a cell: number cells directly, term cells via the
  /// literal's numeric value, null as 0.
  double NumericValue(const Cell& cell) const;

  /// NumericValue of every cell of column `col`, in row order; a number
  /// column's array is copied as is (its nulls read 0).
  std::vector<double> NumericColumn(size_t col) const;

  /// Human-readable rendering of a cell ("Germany", "8030", "" for null).
  std::string CellToString(const Cell& cell) const;

  /// Pretty-prints as an aligned ASCII table (Table 2 style).
  void Print(std::ostream& os, size_t max_rows = 50) const;

 private:
  const rdf::TripleStore* store_ = nullptr;
  std::vector<std::string> names_;
  std::vector<Column> columns_;
};

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_RESULT_TABLE_H_
