#ifndef RE2XOLAP_SPARQL_BINDING_BLOCK_H_
#define RE2XOLAP_SPARQL_BINDING_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rdf/dictionary.h"

namespace re2xolap::sparql {

/// A batch of partial bindings in columnar layout: one fixed-capacity
/// column of TermId per binding slot, stored contiguously column-major so
/// per-slot operations (broadcast-copy of a parent row, bind-column
/// writes, filter compaction) run as tight loops over adjacent memory.
/// Unbound slots hold rdf::kInvalidTermId. Rows are identified by index;
/// deletion happens only through Compact(), which keeps the surviving
/// rows in order, so the pipeline's emission order is deterministic.
class BindingBlock {
 public:
  /// Default row capacity of pipeline blocks. 4096 rows × one uint32
  /// column per slot keeps a typical 4–8 slot query's working set inside
  /// L2 while amortizing per-batch overhead; measurably better than 1024
  /// on scan-heavy shapes. Row-capped runs use capacity 1 instead (see
  /// VectorizedRunner::Run).
  static constexpr size_t kDefaultCapacity = 4096;

  BindingBlock() = default;

  /// (Re)configures the block to `slot_count` columns of `capacity` rows
  /// and clears it. Safe to call repeatedly; reuses the allocation when
  /// the shape shrinks. `slot_count == 0` (degenerate queries) is valid:
  /// the block then tracks only a row count.
  void Reset(size_t slot_count, size_t capacity);

  size_t slot_count() const { return slot_count_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  rdf::TermId* column(size_t slot) { return data_.data() + slot * capacity_; }
  const rdf::TermId* column(size_t slot) const {
    return data_.data() + slot * capacity_;
  }

  rdf::TermId at(size_t row, size_t slot) const { return column(slot)[row]; }
  void set(size_t row, size_t slot, rdf::TermId v) { column(slot)[row] = v; }

  /// Reserves `n` more rows (caller fills the columns) and returns the
  /// index of the first one. `n` must fit in the remaining capacity.
  size_t GrowRows(size_t n) {
    size_t first = size_;
    size_ += n;
    return first;
  }

  /// Appends one row with every slot unbound (the pipeline's seed row).
  void AppendUnboundRow();

  /// Appends a row given as a plain slot vector (scratch rows from the
  /// OPTIONAL extension path).
  void AppendRow(const std::vector<rdf::TermId>& row);

  /// Copies row `row` into `out` (resized to slot_count).
  void ExtractRow(size_t row, std::vector<rdf::TermId>* out) const;

  /// Keeps only the rows in [from, size) whose index appears in
  /// `keep` (ascending, absolute indices), shifting them down to be
  /// contiguous after `from`. Rows before `from` are untouched.
  void Compact(size_t from, const std::vector<uint32_t>& keep);

  void Clear() { size_ = 0; }

 private:
  std::vector<rdf::TermId> data_;  // column-major: data_[slot*capacity + row]
  size_t slot_count_ = 0;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_BINDING_BLOCK_H_
