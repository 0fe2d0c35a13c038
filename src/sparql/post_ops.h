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

/// Running state of one fold (see GroupAggregator): 32 bytes. A
/// COUNT(DISTINCT ?v) fold keeps its distinct-term count in `count`; the
/// terms it has seen live in a set beside the group table.
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
/// Folds: aggregate items that read the same argument the same way share
/// one state per group. SUM, MIN, MAX, AVG and COUNT of `?v` share a fold;
/// all COUNT(*) items share one; COUNT(DISTINCT ?x) items share one fold
/// and one distinct set per variable. Every item of a fold sees the same
/// Update sequence, so each finishes from the shared state exactly as it
/// would from its own.
///
/// Layout: groups are numbered 0, 1, ... in the order their first binding
/// arrives and stored kBlockGroups to a block; group g lives in block
/// g / kBlockGroups, which holds its key (width ids) and its states (one
/// per fold). An open-addressing table of `uint32_t` slots (group index +
/// 1, 0 = empty; linear probing, load at most 0.5) finds a key's group;
/// growth re-slots groups by re-hashing their stored keys. A group costs
/// 4*width + 32*folds + 8 bytes at steady state; the slot table can
/// briefly double right after it grows, and the last block may be
/// partly used. Emit drops the slot table and frees each block as soon as
/// its rows are written, so the aggregator's state and the full output
/// table are never held together. The COUNT(DISTINCT) sets exist only for
/// queries that use one.
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
  /// and every kGuardPollInterval (1,024) groups. Each aggregate column
  /// becomes a number column and each key column a term column, reserved
  /// to exactly the group count. Ends accumulation: the aggregator
  /// releases its groups as it writes them, so call it once.
  /// Returns the number of groups.
  util::Result<size_t> Emit(const std::vector<Variable>& group_by,
                            ResultTable* table);

 private:
  /// Groups per storage block.
  static constexpr uint32_t kBlockGroups = 1024;

  /// The aggregate items that read one argument one way, sharing one
  /// state per group: how that state folds a binding in.
  struct Fold {
    enum Kind : uint8_t { kCountStar, kValue, kDistinct } kind;
    int slot;         // binding slot of the argument (-1 for COUNT(*))
    size_t distinct;  // index into distinct_ (kDistinct only)
  };

  /// Keys and states of kBlockGroups consecutive groups. Both vectors
  /// reserve the whole block up front and only grow within it.
  struct Block {
    std::vector<rdf::TermId> keys;  // width_ ids per group
    std::vector<AggState> states;   // folds_.size() states per group
  };

  /// Bytes one group adds to the aggregator at steady state (what the
  /// guard is charged): its key, its states and two slots at load 0.5.
  size_t bytes_per_group() const {
    return width_ * sizeof(rdf::TermId) + folds_.size() * sizeof(AggState) +
           2 * sizeof(uint32_t);
  }
  /// The group holding `key` (width_ ids), created on a miss.
  uint32_t FindOrInsert(const rdf::TermId* key);
  /// Re-slots every group into a table of `capacity` (a power of two).
  void Rehash(size_t capacity);
  const rdf::TermId* KeyOf(uint32_t group) const {
    return blocks_[group / kBlockGroups].keys.data() +
           static_cast<size_t>(group % kBlockGroups) * width_;
  }

  const rdf::TripleStore& store_;
  const std::vector<SelectItem>& items_;
  std::vector<int> group_slots_;
  const util::ExecGuard* guard_;
  size_t width_;
  std::vector<Fold> folds_;
  std::vector<size_t> item_fold_;  // per item: its fold (aggregates only)
  std::vector<uint32_t> slots_ = std::vector<uint32_t>(16, 0);
  std::vector<Block> blocks_;
  // One set of `group << 32 | term` words per COUNT(DISTINCT) fold, in
  // fold order.
  std::vector<std::unordered_set<uint64_t>> distinct_;
  std::vector<rdf::TermId> key_;  // Accumulate's scratch key
  uint32_t n_groups_ = 0;
};

/// The operators below never move cells row by row: each builds one
/// `uint32_t` row-index vector (filtered, sorted or sliced), then gathers
/// every column through it once (ResultTable::Gather), leaving arrays of
/// exactly the surviving row count.
///
/// HAVING: keeps rows whose post-aggregation filters all evaluate to true
/// (lookups by output column name). Appends one profile record.
util::Status ApplyHaving(const rdf::TripleStore& store,
                         const SelectQuery& query, ResultTable* table,
                         std::vector<PostOpProf>* post_ops,
                         const util::ExecGuard* guard = nullptr);

/// DISTINCT: sorts row indexes canonically and drops duplicate rows.
util::Status ApplyDistinct(const rdf::TripleStore& store, ResultTable* table,
                           std::vector<PostOpProf>* post_ops,
                           const util::ExecGuard* guard = nullptr);

/// ORDER BY: stable-sorts row indexes by the query's sort keys, so tied
/// rows keep their order. Fails when a key references an unknown output
/// column.
util::Status ApplyOrderBy(const rdf::TripleStore& store,
                          const SelectQuery& query, ResultTable* table,
                          std::vector<PostOpProf>* post_ops,
                          const util::ExecGuard* guard = nullptr);

/// OFFSET / LIMIT: keeps the row window (an empty one when OFFSET is past
/// the end). Columns are gathered one at a time, so at most one column is
/// held twice.
util::Status ApplyLimitOffset(const SelectQuery& query, ResultTable* table,
                              std::vector<PostOpProf>* post_ops,
                              const util::ExecGuard* guard = nullptr);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_POST_OPS_H_
