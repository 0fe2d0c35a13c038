#include "sparql/post_ops.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "sparql/ebv.h"
#include "util/timer.h"

namespace re2xolap::sparql {

namespace {

/// How many comparator invocations / loop iterations between guard polls
/// inside the post-join operators. Sorts do a clock read only every
/// kGuardPollInterval comparisons; the rest of the time the poll is two
/// relaxed atomic loads.
constexpr uint64_t kGuardPollInterval = 1024;

/// std::sort comparators cannot return a Status, so a tripped guard is
/// reported by throwing this (internal to this TU) and converting it back
/// to a Status at the operator boundary. The sort is abandoned mid-way;
/// only the row-index vector was being sorted, so the table is untouched.
struct GuardInterrupted {
  util::Status status;
};

/// Polls the guard every kGuardPollInterval calls; throws GuardInterrupted
/// on violation. `counter` is owned by the calling operator.
void PollGuardOrThrow(const util::ExecGuard* guard, uint64_t* counter) {
  if (guard == nullptr) return;
  if (++*counter % kGuardPollInterval != 0) return;
  util::Status st = guard->Check();
  if (!st.ok()) throw GuardInterrupted{std::move(st)};
}

/// Bytes the guard is charged per (group, term) pair a COUNT(DISTINCT)
/// set retains: the node's value and next pointer, and a bucket pointer.
constexpr size_t kDistinctPairBytes = sizeof(uint64_t) + 2 * sizeof(void*);

/// Hash of a `width`-id group key: a multiplicative fold, then the
/// SplitMix64 finalizer, which spreads every input bit over the low bits
/// the slot table masks with.
uint64_t HashKey(const rdf::TermId* key, size_t width) {
  uint64_t h = width;
  for (size_t i = 0; i < width; ++i) h = (h ^ key[i]) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// Row indexes begin, begin + 1, ..., end - 1.
std::vector<uint32_t> Iota(size_t begin, size_t end) {
  std::vector<uint32_t> index(end - begin);
  std::iota(index.begin(), index.end(), static_cast<uint32_t>(begin));
  return index;
}

}  // namespace

void AggState::Update(double v) {
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  ++count;
}

double AggState::Finish(AggFunc f) const {
  switch (f) {
    case AggFunc::kSum:
      return sum;
    case AggFunc::kMin:
      return count ? min : 0.0;
    case AggFunc::kMax:
      return count ? max : 0.0;
    case AggFunc::kAvg:
      return count ? sum / static_cast<double>(count) : 0.0;
    case AggFunc::kCount:
      return static_cast<double>(count);
  }
  return 0.0;
}

GroupAggregator::GroupAggregator(const rdf::TripleStore& store,
                                 const std::vector<SelectItem>& items,
                                 const std::vector<int>& item_slots,
                                 std::vector<int> group_slots,
                                 const util::ExecGuard* guard)
    : store_(store),
      items_(items),
      group_slots_(std::move(group_slots)),
      guard_(guard),
      width_(group_slots_.size()),
      item_fold_(items.size(), 0),
      key_(group_slots_.size()) {
  for (size_t i = 0; i < items_.size(); ++i) {
    const SelectItem& it = items_[i];
    if (!it.is_aggregate) continue;
    const Fold fold =
        it.count_star     ? Fold{Fold::kCountStar, -1, 0}
        : it.distinct_agg ? Fold{Fold::kDistinct, item_slots[i], 0}
                          : Fold{Fold::kValue, item_slots[i], 0};
    const size_t f =
        std::find_if(folds_.begin(), folds_.end(),
                     [&](const Fold& g) {
                       return g.kind == fold.kind && g.slot == fold.slot;
                     }) -
        folds_.begin();
    if (f == folds_.size()) {
      folds_.push_back(fold);
      if (fold.kind == Fold::kDistinct) {
        folds_.back().distinct = distinct_.size();
        distinct_.emplace_back();
      }
    }
    item_fold_[i] = f;
  }
}

uint32_t GroupAggregator::FindOrInsert(const rdf::TermId* key) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashKey(key, width_) & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot != 0) {
      if (std::equal(key, key + width_, KeyOf(slot - 1))) return slot - 1;
      continue;
    }
    const uint32_t group = n_groups_++;
    slots_[i] = n_groups_;
    if (group % kBlockGroups == 0) {
      Block& block = blocks_.emplace_back();
      block.keys.reserve(size_t{kBlockGroups} * width_);
      block.states.reserve(size_t{kBlockGroups} * folds_.size());
    }
    Block& block = blocks_.back();
    block.keys.insert(block.keys.end(), key, key + width_);
    block.states.resize(block.states.size() + folds_.size());
    if (static_cast<size_t>(n_groups_) * 2 > slots_.size()) {
      Rehash(slots_.size() * 2);
    }
    if (guard_ != nullptr) {
      // The violation (if any) surfaces at the join loop's next budget
      // poll — Accumulate itself cannot fail.
      guard_->ChargeBytes(bytes_per_group());
    }
    return group;
  }
}

void GroupAggregator::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (uint32_t g = 0; g < n_groups_; ++g) {
    size_t i = HashKey(KeyOf(g), width_) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = g + 1;
  }
}

void GroupAggregator::Accumulate(const std::vector<rdf::TermId>& bindings) {
  for (size_t i = 0; i < width_; ++i) {
    key_[i] = group_slots_[i] >= 0 ? bindings[group_slots_[i]]
                                   : rdf::kInvalidTermId;
  }
  // A pure GROUP BY without aggregates still registers the group here.
  const uint32_t group = FindOrInsert(key_.data());
  AggState* states = blocks_[group / kBlockGroups].states.data() +
                     static_cast<size_t>(group % kBlockGroups) * folds_.size();
  for (size_t f = 0; f < folds_.size(); ++f) {
    const Fold& fold = folds_[f];
    if (fold.kind == Fold::kCountStar) {
      ++states[f].count;  // COUNT(*) reads nothing but the count
      continue;
    }
    if (fold.slot < 0 || bindings[fold.slot] == rdf::kInvalidTermId) continue;
    const rdf::TermId term = bindings[fold.slot];
    if (fold.kind == Fold::kValue) {
      states[f].Update(store_.term(term).AsDouble());
    } else if (distinct_[fold.distinct]
                   .insert(static_cast<uint64_t>(group) << 32 | term)
                   .second) {
      ++states[f].count;
      if (guard_ != nullptr) guard_->ChargeBytes(kDistinctPairBytes);
    }
  }
}

util::Result<size_t> GroupAggregator::Emit(
    const std::vector<Variable>& group_by, ResultTable* table) {
  if (guard_ != nullptr) RE2X_RETURN_IF_ERROR(guard_->Check());
  // Accumulation is over: only the blocks are read from here on.
  std::vector<uint32_t>().swap(slots_);
  std::vector<std::unordered_set<uint64_t>>().swap(distinct_);
  // Each plain column's position in the group key, resolved once.
  std::vector<size_t> key_pos(items_.size(), 0);
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].is_aggregate) continue;
    for (size_t gi = 0; gi < group_by.size(); ++gi) {
      if (group_by[gi].name == items_[i].var.name) {
        key_pos[i] = gi;
        break;
      }
    }
  }
  // Every column takes exactly n_groups_ cells: aggregates as numbers,
  // group keys as term ids.
  for (size_t i = 0; i < items_.size(); ++i) {
    Column& column = table->mutable_column(i);
    column = Column(items_[i].is_aggregate ? Column::Layout::kNumbers
                                           : Column::Layout::kTerms);
    column.Reserve(n_groups_);
  }
  for (size_t b = 0; b < blocks_.size(); ++b) {
    Block& block = blocks_[b];
    const size_t first = b * kBlockGroups;
    const size_t count = std::min<size_t>(kBlockGroups, n_groups_ - first);
    for (size_t at = 0; at < count; ++at) {
      if (guard_ != nullptr && (first + at + 1) % kGuardPollInterval == 0) {
        RE2X_RETURN_IF_ERROR(guard_->Check());
      }
      for (size_t i = 0; i < items_.size(); ++i) {
        Column& column = table->mutable_column(i);
        if (items_[i].is_aggregate) {
          const AggState& state =
              block.states[at * folds_.size() + item_fold_[i]];
          column.AppendNumber(items_[i].distinct_agg
                                  ? static_cast<double>(state.count)
                                  : state.Finish(items_[i].func));
          continue;
        }
        column.AppendTerm(block.keys[at * width_ + key_pos[i]]);
      }
    }
    block = Block{};  // its rows are written: release its storage
  }
  return static_cast<size_t>(n_groups_);
}

util::Status ApplyHaving(const rdf::TripleStore& store,
                         const SelectQuery& query, ResultTable* table,
                         std::vector<PostOpProf>* post_ops,
                         const util::ExecGuard* guard) {
  if (query.having.empty()) return util::Status::OK();
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  const uint64_t rows_in = table->row_count();
  std::vector<uint32_t> kept;
  kept.reserve(rows_in);
  uint64_t polls = 0;
  for (uint32_t row = 0; row < rows_in; ++row) {
    if (guard != nullptr && ++polls % kGuardPollInterval == 0) {
      RE2X_RETURN_IF_ERROR(guard->Check());
    }
    auto lookup = [&](const std::string& name) -> Cell {
      int idx = table->ColumnIndex(name);
      return idx < 0 ? Cell::Null() : table->at(row, idx);
    };
    bool pass = true;
    for (const ExprPtr& h : query.having) {
      if (EvalExpr(store, *h, lookup) != Ebv::kTrue) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(row);
  }
  table->Gather(kept);
  post_ops->push_back(
      {"having", rows_in, table->row_count(), op_timer.ElapsedMillis()});
  return util::Status::OK();
}

util::Status ApplyDistinct(const rdf::TripleStore& store, ResultTable* table,
                           std::vector<PostOpProf>* post_ops,
                           const util::ExecGuard* guard) {
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  const uint64_t rows_in = table->row_count();
  const size_t width = table->column_count();
  std::vector<uint32_t> order = Iota(0, rows_in);
  uint64_t polls = 0;
  auto row_less = [&](uint32_t a, uint32_t b) {
    PollGuardOrThrow(guard, &polls);
    for (size_t i = 0; i < width; ++i) {
      int c = OrderCells(store, table->at(a, i), table->at(b, i));
      if (c != 0) return c < 0;
    }
    return false;
  };
  auto row_equal = [&](uint32_t a, uint32_t b) {
    for (size_t i = 0; i < width; ++i) {
      if (!(table->at(a, i) == table->at(b, i))) return false;
    }
    return true;
  };
  try {
    std::sort(order.begin(), order.end(), row_less);
  } catch (const GuardInterrupted& gi) {
    return gi.status;
  }
  order.erase(std::unique(order.begin(), order.end(), row_equal), order.end());
  table->Gather(order);
  post_ops->push_back(
      {"distinct", rows_in, table->row_count(), op_timer.ElapsedMillis()});
  return util::Status::OK();
}

util::Status ApplyOrderBy(const rdf::TripleStore& store,
                          const SelectQuery& query, ResultTable* table,
                          std::vector<PostOpProf>* post_ops,
                          const util::ExecGuard* guard) {
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  std::vector<std::pair<int, bool>> keys;  // column index, ascending
  for (const OrderKey& k : query.order_by) {
    int idx = table->ColumnIndex(k.column);
    if (idx < 0) {
      return util::Status::InvalidArgument(
          "ORDER BY references unknown column ?" + k.column);
    }
    keys.emplace_back(idx, k.ascending);
  }
  const uint64_t rows = table->row_count();
  std::vector<uint32_t> order = Iota(0, rows);
  uint64_t polls = 0;
  try {
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      PollGuardOrThrow(guard, &polls);
      for (auto [idx, asc] : keys) {
        int c = OrderCells(store, table->at(a, idx), table->at(b, idx));
        if (c != 0) return asc ? c < 0 : c > 0;
      }
      return false;
    });
  } catch (const GuardInterrupted& gi) {
    return gi.status;
  }
  table->Gather(order);
  post_ops->push_back({"order-by", rows, rows, op_timer.ElapsedMillis()});
  return util::Status::OK();
}

util::Status ApplyLimitOffset(const SelectQuery& query, ResultTable* table,
                              std::vector<PostOpProf>* post_ops,
                              const util::ExecGuard* guard) {
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  const uint64_t rows_in = table->row_count();
  size_t begin = std::min<size_t>(query.offset, rows_in);
  size_t end = rows_in;
  if (query.limit.has_value()) {
    end = std::min<size_t>(begin + *query.limit, rows_in);
  }
  table->Gather(Iota(begin, end));
  post_ops->push_back(
      {"limit/offset", rows_in, table->row_count(), op_timer.ElapsedMillis()});
  return util::Status::OK();
}

}  // namespace re2xolap::sparql
