#ifndef RE2XOLAP_SPARQL_POST_OPS_H_
#define RE2XOLAP_SPARQL_POST_OPS_H_

#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "util/exec_guard.h"
#include "util/result.h"
#include "util/status.h"

namespace re2xolap::sparql {

/// Coarse observation of one post-join operator (HAVING / DISTINCT /
/// ORDER BY / LIMIT-OFFSET) for the profile tree: two clock reads per
/// operator per query.
///
/// Every post-join operator takes an optional ExecGuard: it is checked
/// unconditionally at operator entry and polled periodically inside the
/// row loops / sort comparators, so an expired deadline surfaces from the
/// middle of aggregation or sorting — not only from the join loop. A
/// tripped guard returns kTimeout / kResourceExhausted / kCancelled and
/// leaves the table in a valid (possibly partially processed) state.
struct PostOpProf {
  const char* label;
  uint64_t rows_in;
  uint64_t rows_out;
  double millis;
};

/// Running state of one aggregate: 32 bytes. A COUNT(DISTINCT ?v)
/// aggregate keeps its distinct-term count in `count`; the terms it has
/// seen live in a set beside the group table.
struct AggState {
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t count = 0;

  void Update(double v);
  double Finish(AggFunc f) const;
};
static_assert(sizeof(AggState) == 32);

/// Hash-grouping aggregation: accumulates join bindings into per-group
/// aggregate states, then emits one output row per group.
///
/// Layout: groups are numbered 0, 1, ... in the order their first binding
/// arrives. Group g's key is `keys_[g*width, (g+1)*width)` and its states
/// are `states_[g*aggs, (g+1)*aggs)`. An open-addressing table of
/// `uint32_t` slots (group index + 1, 0 = empty; linear probing, load at
/// most 0.5) finds a key's group; growth re-slots groups by re-hashing
/// their stored keys. A group costs at least 4*width + 32*aggs + 8 bytes,
/// and up to about twice that right after the arrays or the table grow.
/// The COUNT(DISTINCT) sets exist only for queries that use one.
class GroupAggregator {
 public:
  /// `items` / `item_slots` are the projected columns and their binding
  /// slots (-1 for COUNT(*)); `group_slots` the GROUP BY slots in declared
  /// order. `items` must outlive the aggregator. When a `guard` is
  /// supplied, each newly created group is charged its steady-state bytes
  /// (bytes_per_group()) and each (group, term) pair retained for
  /// COUNT(DISTINCT) a set node and its bucket; the violation surfaces at
  /// the join loop's next budget poll.
  GroupAggregator(const rdf::TripleStore& store,
                  const std::vector<SelectItem>& items,
                  const std::vector<int>& item_slots,
                  std::vector<int> group_slots,
                  const util::ExecGuard* guard = nullptr);

  /// Folds one complete join binding into its group.
  void Accumulate(const std::vector<rdf::TermId>& bindings);

  /// Emits one row per group into `table`, in first-seen order: groups
  /// come out in the order the join produced their first binding, which
  /// is the row order of an aggregate query without ORDER BY. Group-by
  /// columns are resolved via `group_by` order. Polls the guard at entry
  /// and every few hundred groups. Returns the number of groups.
  util::Result<size_t> Emit(const std::vector<Variable>& group_by,
                            ResultTable* table);

 private:
  /// How one aggregate item folds a binding into its state.
  struct AggOp {
    enum Kind : uint8_t { kCountStar, kValue, kDistinct } kind;
    int slot;         // binding slot of the argument (-1 for COUNT(*))
    size_t distinct;  // index into distinct_ (kDistinct only)
  };

  /// Bytes one group adds to the aggregator at steady state (what the
  /// guard is charged): its key, its states and two slots at load 0.5.
  size_t bytes_per_group() const {
    return width_ * sizeof(rdf::TermId) + aggs_.size() * sizeof(AggState) +
           2 * sizeof(uint32_t);
  }
  /// The group holding `key` (width_ ids), created on a miss.
  uint32_t FindOrInsert(const rdf::TermId* key);
  /// Re-slots every group into a table of `capacity` (a power of two).
  void Rehash(size_t capacity);
  const rdf::TermId* KeyOf(uint32_t group) const {
    return keys_.data() + static_cast<size_t>(group) * width_;
  }

  const rdf::TripleStore& store_;
  const std::vector<SelectItem>& items_;
  std::vector<int> group_slots_;
  const util::ExecGuard* guard_;
  size_t width_;
  std::vector<AggOp> aggs_;
  std::vector<uint32_t> slots_ = std::vector<uint32_t>(16, 0);
  std::vector<rdf::TermId> keys_;
  std::vector<AggState> states_;
  // One set of `group << 32 | term` words per COUNT(DISTINCT) item.
  std::vector<std::unordered_set<uint64_t>> distinct_;
  std::vector<rdf::TermId> key_;  // Accumulate's scratch key
  uint32_t n_groups_ = 0;
};

/// HAVING: keeps rows whose post-aggregation filters all evaluate to true
/// (lookups by output column name). Appends one profile record.
util::Status ApplyHaving(const rdf::TripleStore& store,
                         const SelectQuery& query, ResultTable* table,
                         std::vector<PostOpProf>* post_ops,
                         const util::ExecGuard* guard = nullptr);

/// DISTINCT: sorts rows canonically and drops duplicates.
util::Status ApplyDistinct(const rdf::TripleStore& store, ResultTable* table,
                           std::vector<PostOpProf>* post_ops,
                           const util::ExecGuard* guard = nullptr);

/// ORDER BY: stable-sorts rows by the query's sort keys. Fails when a key
/// references an unknown output column.
util::Status ApplyOrderBy(const rdf::TripleStore& store,
                          const SelectQuery& query, ResultTable* table,
                          std::vector<PostOpProf>* post_ops,
                          const util::ExecGuard* guard = nullptr);

/// OFFSET / LIMIT: slices the row window in place (erases the tail, then
/// the head), so a large result is never held twice.
util::Status ApplyLimitOffset(const SelectQuery& query, ResultTable* table,
                              std::vector<PostOpProf>* post_ops,
                              const util::ExecGuard* guard = nullptr);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_POST_OPS_H_
