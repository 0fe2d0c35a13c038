#include "rdf/triple_store.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/delta_layer.h"

namespace re2xolap::rdf {

std::shared_ptr<const IndexBase> IndexBase::Build(
    std::vector<EncodedTriple> spo, std::vector<EncodedTriple> pos,
    std::unordered_map<TermId, PredicateStats> stats) {
  struct Arrays {
    std::vector<EncodedTriple> spo;
    std::vector<EncodedTriple> pos;
  };
  auto arrays = std::make_shared<const Arrays>(
      Arrays{std::move(spo), std::move(pos)});
  auto base = std::make_shared<IndexBase>();
  base->spo = arrays->spo;
  base->pos = arrays->pos;
  base->owner = std::move(arrays);
  base->stats = std::move(stats);
  return base;
}

void IndexBase::AddMemory(StoreMemory* m) const {
  // Built arrays are exactly sized (Freeze shrinks SPO and sizes POS from
  // it; compaction reserves the visible count), so the spans measure them.
  (borrowed ? m->mapped_bytes : m->heap_bytes) +=
      spo.size_bytes() + pos.size_bytes();
  m->heap_bytes += stats.size() * (sizeof(TermId) + sizeof(PredicateStats) +
                                   2 * sizeof(void*));
}

TripleStore::TripleStore() = default;

TripleStore::~TripleStore() = default;

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddEncoded(EncodedTriple{dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::AddEncoded(EncodedTriple t) {
  assert(dict_.IsValid(t.s) && dict_.IsValid(t.p) && dict_.IsValid(t.o));
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Add() during concurrent reads of a frozen store");
  assert(!live() && "live stores mutate via store::Ingestor, not Add()");
  Reopen();
  pending_.push_back(t);
}

void TripleStore::Reserve(size_t triples) {
  assert(!live() && "live stores mutate via store::Ingestor, not Add()");
  Reopen();
  pending_.reserve(triples);
}

void TripleStore::Reopen() {
  if (base_ == nullptr) return;
  pending_.assign(base_->spo.begin(), base_->spo.end());
  base_.reset();
}

void TripleStore::AdoptFrozenView(
    std::span<const EncodedTriple> spo, std::span<const EncodedTriple> pos,
    std::unordered_map<TermId, PredicateStats> stats, uint64_t epoch,
    std::shared_ptr<const void> keepalive) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::AdoptFrozenView() during concurrent reads");
  assert(!live() && "TripleStore::AdoptFrozenView() on a live store");
  assert(keepalive != nullptr && "view adoption requires a keepalive");
  pending_.clear();
  pending_.shrink_to_fit();
  auto base = std::make_shared<IndexBase>();
  base->spo = spo;
  base->pos = pos;
  base->owner = std::move(keepalive);
  base->stats = std::move(stats);
  base->borrowed = true;
  base_ = std::move(base);
  freeze_epoch_ = epoch;
  UpdateStoreGauges();
}

void TripleStore::Freeze() {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Freeze() during concurrent reads");
  assert(!live() && "live stores advance epochs via PublishChain()");
  obs::Span span("store.freeze");
  Reopen();
  span.SetAttr("triples", static_cast<uint64_t>(pending_.size()));
  std::vector<EncodedTriple> pos;
  {
    obs::Span child("store.build_indexes");
    BuildIndexes(&pos);
  }
  std::unordered_map<TermId, PredicateStats> stats;
  {
    obs::Span child("store.compute_stats");
    stats = ComputePredicateStats(pending_, pos);
  }
  base_ = IndexBase::Build(std::move(pending_), std::move(pos),
                           std::move(stats));
  ++freeze_epoch_;
  UpdateStoreGauges();
}

namespace {

// Stable counting sort of `in` by one id column into `out` (cleared, then
// resized to in.size(), so a reused buffer's old contents are never
// copied). Keys are term ids below `count->size() - 1`, so the sort costs
// O(n + key bound); stability is what lets consecutive passes build a
// lexicographic order one column at a time. `count` must be all zero and
// is left all zero.
void CountingSortBy(std::span<const EncodedTriple> in,
                    TermId EncodedTriple::*key, std::vector<size_t>* count,
                    std::vector<EncodedTriple>* out) {
  std::vector<size_t>& offset = *count;
  for (const EncodedTriple& t : in) {
    assert(t.*key + size_t{1} < offset.size());
    ++offset[t.*key + 1];
  }
  for (size_t k = 1; k < offset.size(); ++k) offset[k] += offset[k - 1];
  out->clear();
  out->resize(in.size());
  for (const EncodedTriple& t : in) (*out)[offset[t.*key]++] = t;
  std::fill(offset.begin(), offset.end(), 0);
}

// Reorders each predicate run of `pos`, which arrives in (p, s, o) order,
// into (p, o, s) order: a stable sort by o keeps the s order within an
// object. A run of k triples whose object ids span at most k log2 k
// values is counting-sorted through `scratch` over the [min o, max o]
// window of `count` (all zero, and zeroed again after each run); a run
// of more widely spread objects is comparison-sorted by (o, s) instead,
// which gives the same bytes because (o, s) pairs are unique within a
// run.
void SortRunsByObject(std::vector<EncodedTriple>* pos,
                      std::vector<size_t>* count_array) {
  std::vector<EncodedTriple> scratch;
  for (auto run = pos->begin(); run != pos->end();) {
    const TermId p = run->p;
    TermId min_o = run->o;
    TermId max_o = run->o;
    auto run_end = run;
    for (; run_end != pos->end() && run_end->p == p; ++run_end) {
      min_o = std::min(min_o, run_end->o);
      max_o = std::max(max_o, run_end->o);
    }
    const size_t k = static_cast<size_t>(run_end - run);
    const size_t span = size_t{max_o} - min_o + 1;
    if (span <= k * std::bit_width(k)) {
      std::span<size_t> count(count_array->data() + min_o, span + 1);
      for (auto it = run; it != run_end; ++it) ++count[it->o - min_o + 1];
      for (size_t i = 1; i <= span; ++i) count[i] += count[i - 1];
      scratch.resize(k);
      for (auto it = run; it != run_end; ++it) {
        scratch[count[it->o - min_o]++] = *it;
      }
      std::copy(scratch.begin(), scratch.end(), run);
      std::fill(count.begin(), count.end(), 0);
    } else {
      std::sort(run, run_end, PosLess());
    }
    run = run_end;
  }
}

}  // namespace

void TripleStore::BuildIndexes(std::vector<EncodedTriple>* pos) {
  // Term ids are dense in [1, dictionary().size()], so columns sort by
  // counting. SPO is one stable counting pass by s followed by a
  // comparison sort of each subject's run by (p, o), then the dedup:
  // O(n + |dict| + sum of k log k) over subject runs of length k, which
  // degrades to O(n log n) only when most triples share one subject. POS
  // is one stable pass by p over SPO, which leaves each predicate run in
  // (s, o) order, then a stable sort of each run by o (SortRunsByObject).
  // OSP is not stored: it is a merged view over the POS runs.
  //
  // Peak memory is two copies of the triples, one count array over the
  // term ids (the three counting passes share it) and one predicate run
  // of scratch. The subject pass sorts into a fresh array and frees the
  // load buffer, and the predicate pass writes into a fresh POS array.
  // Keeping the load buffer as POS's destination instead, so that a
  // first Freeze frees no large array, measured worse: the whole first
  // set-up of a process then stays above glibc's default mmap threshold,
  // and each later set-up in the same process re-faults its heap
  // (DESIGN.md §8).
  std::vector<EncodedTriple>& spo = pending_;
  std::vector<size_t> count(dict_.size() + 2, 0);
  {
    std::vector<EncodedTriple> scratch;
    CountingSortBy(spo, &EncodedTriple::s, &count, &scratch);
    spo.swap(scratch);
  }
  for (auto run = spo.begin(); run != spo.end();) {
    auto run_end = std::find_if(run, spo.end(), [&](const EncodedTriple& t) {
      return t.s != run->s;
    });
    std::sort(run, run_end, SpoLess());
    run = run_end;
  }
  spo.erase(std::unique(spo.begin(), spo.end()), spo.end());
  spo.shrink_to_fit();
  CountingSortBy(spo, &EncodedTriple::p, &count, pos);
  SortRunsByObject(pos, &count);
}

std::unordered_map<TermId, PredicateStats> ComputePredicateStats(
    std::span<const EncodedTriple> spo_sorted,
    std::span<const EncodedTriple> pos_sorted) {
  std::unordered_map<TermId, PredicateStats> stats;
  if (pos_sorted.empty()) return stats;
  // POS is sorted by (p, o, s): per-predicate runs are contiguous and
  // objects are grouped within a run, so triple and distinct-object counts
  // take one pass. Each distinct (s, p) pair is one run of SPO, so
  // counting those runs per predicate gives the distinct subjects. The
  // last POS triple carries the largest predicate id.
  std::vector<uint64_t> subjects(pos_sorted.back().p + 1, 0);
  for (size_t k = 0; k < spo_sorted.size(); ++k) {
    if (k == 0 || spo_sorted[k].s != spo_sorted[k - 1].s ||
        spo_sorted[k].p != spo_sorted[k - 1].p) {
      ++subjects[spo_sorted[k].p];
    }
  }
  PredicateStats* st = nullptr;
  for (size_t k = 0; k < pos_sorted.size(); ++k) {
    const EncodedTriple& t = pos_sorted[k];
    const bool new_run = k == 0 || t.p != pos_sorted[k - 1].p;
    if (new_run) {
      st = &stats[t.p];
      st->distinct_subjects = subjects[t.p];
    }
    ++st->triple_count;
    if (new_run || t.o != pos_sorted[k - 1].o) ++st->distinct_objects;
  }
  return stats;
}

IndexRange TripleStore::PermutationRange(Perm perm) const {
  if (live()) return ChainPermutationRange(PinnedChain(), perm);
  if (perm == Perm::kOsp) {
    return OspMerge(nullptr, kInvalidTermId, kInvalidTermId);
  }
  const IndexBase& base = FrozenBase();
  return IndexRange::FromSpan(perm == Perm::kSpo ? base.spo : base.pos, perm);
}

namespace {

// First position in [first, last) where `before` turns false (`before`
// must hold on a prefix only), galloping from `first`: O(log d) for a
// result d positions away.
template <typename Before>
const EncodedTriple* GallopPartition(const EncodedTriple* first,
                                     const EncodedTriple* last,
                                     Before before) {
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0 || !before(*first)) return first;
  size_t bound = 1;
  while (bound < n && before(first[bound])) bound <<= 1;
  return std::partition_point(first + bound / 2, first + std::min(bound, n),
                              before);
}

// Appends to `out` the slices of the POS-sorted `pos` that the OSP view
// reads: one per predicate run, clipped to object `o` and then subject
// `s` when they are bound, empty slices skipped. Within one predicate POS
// order is (o, s) order, so every slice is a sorted kOsp range. Runs are
// found by galloping, so the cost is O(P log n) for P predicates.
void AppendOspSlices(std::span<const EncodedTriple> pos, TermId o, TermId s,
                     std::vector<IndexRange>* out) {
  const TermId s_hi = s != kInvalidTermId ? s : kMaxTermId;
  const EncodedTriple* const end = pos.data() + pos.size();
  for (const EncodedTriple* run = pos.data(); run != end;) {
    const TermId p = run->p;
    const EncodedTriple* run_end = GallopPartition(
        run, end, [p](const EncodedTriple& t) { return t.p == p; });
    const EncodedTriple* lo = run;
    const EncodedTriple* hi = run_end;
    if (o != kInvalidTermId) {
      // The run's first and last objects bound it: most runs are skipped
      // without a search.
      if (o < run->o || o > run_end[-1].o) {
        run = run_end;
        continue;
      }
      lo = std::partition_point(run, run_end, [o, s](const EncodedTriple& t) {
        return t.o < o || (t.o == o && t.s < s);
      });
      hi = GallopPartition(lo, run_end, [o, s_hi](const EncodedTriple& t) {
        return t.o == o && t.s <= s_hi;
      });
    }
    if (lo != hi) {
      out->push_back(IndexRange::FromSpan(
          std::span<const EncodedTriple>(lo, hi), Perm::kOsp));
    }
    run = run_end;
  }
}

// Clips a whole-permutation range down to the triples between the lo/hi
// sentinels (inclusive prefix semantics, exactly the old EqualRange).
IndexRange ClipRange(const IndexRange& perm_range, const EncodedTriple& lo,
                     const EncodedTriple& hi) {
  uint64_t first = perm_range.LowerBound(lo);
  uint64_t last = perm_range.GallopUpperBound(first, hi);
  if (last < first) last = first;
  return perm_range.Slice(first, last);
}

// Per-thread stack of pinned chains. A stack (not a single slot) so
// nested pins — e.g. a query engine pin around a test helper's own pin —
// compose; lookups scan backwards so the innermost pin for a given store
// wins. Entries hold shared_ptrs, so a pinned chain survives any number
// of concurrent publications.
struct PinFrame {
  const TripleStore* store;
  std::shared_ptr<const EpochChain> chain;
};
thread_local std::vector<PinFrame> t_pin_stack;

}  // namespace

TripleStore::ReadPin::ReadPin(const TripleStore& store) {
  if (!store.live()) return;
  t_pin_stack.push_back({&store, store.CurrentChain()});
  store_ = &store;
}

TripleStore::ReadPin::~ReadPin() {
  if (store_ == nullptr) return;
  assert(!t_pin_stack.empty() && t_pin_stack.back().store == store_ &&
         "ReadPin destruction order violates stack discipline");
  t_pin_stack.pop_back();
}

std::shared_ptr<const EpochChain> TripleStore::PinnedChain() const {
  for (auto it = t_pin_stack.rbegin(); it != t_pin_stack.rend(); ++it) {
    if (it->store == this) return it->chain;
  }
  return CurrentChain();
}

std::shared_ptr<const EpochChain> TripleStore::CurrentChain() const {
  std::lock_guard<std::mutex> lk(chain_mu_);
  return chain_;
}

void TripleStore::SetChain(std::shared_ptr<const EpochChain> chain) {
  std::lock_guard<std::mutex> lk(chain_mu_);
  chain_.swap(chain);
  // The previous chain (now in `chain`) is released after the unlock.
}

std::shared_ptr<const EpochChain> TripleStore::live_chain() const {
  if (!live()) return nullptr;
  return PinnedChain();
}

uint64_t TripleStore::freeze_epoch() const {
  if (live()) return PinnedChain()->epoch;
  return freeze_epoch_;
}

void TripleStore::EnterLive(
    std::vector<std::shared_ptr<const DeltaLayer>> layers) {
  assert(base_ != nullptr && "EnterLive() requires a frozen store");
  assert(!live() && "EnterLive() called twice");
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::EnterLive() during concurrent reads");
  dict_.EnterLive();
  std::shared_ptr<const EpochChain> chain =
      MakeEpochChain(std::move(base_), std::move(layers), freeze_epoch_);
  UpdateChainGauges(*chain);
  SetChain(std::move(chain));
  live_.store(true, std::memory_order_release);
}

void TripleStore::PublishChain(std::shared_ptr<const EpochChain> chain) {
  assert(live() && "PublishChain() requires EnterLive()");
  assert(chain != nullptr);
  UpdateChainGauges(*chain);
  SetChain(std::move(chain));
}

uint64_t TripleStore::chain_depth() const {
  return live() ? PinnedChain()->depth() : 0;
}

TripleStore::LiveInfo TripleStore::live_info() const {
  LiveInfo info;
  if (!live()) return info;
  std::shared_ptr<const EpochChain> chain = PinnedChain();
  info.live = true;
  info.epoch = chain->epoch;
  info.chain_depth = chain->depth();
  info.delta_adds = chain->delta_adds;
  info.delta_dels = chain->delta_dels;
  info.visible_triples = chain->visible_triples;
  return info;
}

void TripleStore::UpdateChainGauges(const EpochChain& chain) const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("store.epoch").Set(static_cast<double>(chain.epoch));
  reg.GetGauge("store.delta.layers").Set(static_cast<double>(chain.depth()));
  reg.GetGauge("store.delta.triples")
      .Set(static_cast<double>(chain.delta_adds));
  reg.GetGauge("store.delta.tombstones")
      .Set(static_cast<double>(chain.delta_dels));
  reg.GetGauge("store.triples")
      .Set(static_cast<double>(chain.visible_triples));
}

IndexRange TripleStore::ChainPermutationRange(
    std::shared_ptr<const EpochChain> chain, Perm perm) const {
  if (perm == Perm::kOsp) {
    return OspMerge(chain, kInvalidTermId, kInvalidTermId);
  }
  std::vector<IndexRange> adds;
  std::vector<IndexRange> dels;
  adds.reserve(chain->layers.size() + 1);
  const IndexBase& base = *chain->base;
  if (!base.spo.empty()) {
    adds.push_back(
        IndexRange::FromSpan(perm == Perm::kSpo ? base.spo : base.pos, perm));
  }
  for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
    if (!layer->adds(perm).empty()) {
      adds.push_back(IndexRange::FromSpan(layer->adds(perm), perm));
    }
    if (!layer->dels(perm).empty()) {
      dels.push_back(IndexRange::FromSpan(layer->dels(perm), perm));
    }
  }
  if (adds.empty()) return IndexRange();
  if (adds.size() == 1 && dels.empty()) {
    // One source and nothing to cancel: a zero-copy span that owns the
    // chain it aliases.
    return IndexRange::FromSpan(adds.front().raw(), perm, std::move(chain));
  }
  auto run = std::make_shared<const MergedRun>(std::move(adds),
                                               std::move(dels), perm, chain);
  const uint64_t n = run->size();
  return IndexRange::FromMerged(std::move(run), 0, n, perm);
}

IndexRange TripleStore::OspMerge(
    const std::shared_ptr<const EpochChain>& chain, TermId o,
    TermId s) const {
  // Per-thread slice lists, reused: the usual answer is one slice, returned
  // as a raw range without allocating. The slices own nothing; the range
  // returned owns the chain (null on a frozen store) they alias.
  thread_local std::vector<IndexRange> adds;
  thread_local std::vector<IndexRange> dels;
  adds.clear();
  dels.clear();
  AppendOspSlices(chain != nullptr ? chain->base->pos : FrozenBase().pos, o,
                  s, &adds);
  if (chain != nullptr) {
    for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
      AppendOspSlices(layer->add_pos, o, s, &adds);
      AppendOspSlices(layer->del_pos, o, s, &dels);
    }
  }
  if (adds.empty()) return IndexRange::FromSpan({}, Perm::kOsp);
  if (adds.size() == 1 && dels.empty()) {
    return IndexRange::FromSpan(adds.front().raw(), Perm::kOsp, chain);
  }
  auto run = std::make_shared<const MergedRun>(adds, dels, Perm::kOsp, chain);
  const uint64_t n = run->size();
  return IndexRange::FromMerged(std::move(run), 0, n, Perm::kOsp);
}

IndexRange TripleStore::Match(const TriplePattern& q) const {
  assert(frozen() && "TripleStore::Freeze() must be called before Match()");
  ReadGuard guard(this);
  const bool bs = q.s != kInvalidTermId;
  const bool bp = q.p != kInvalidTermId;
  const bool bo = q.o != kInvalidTermId;

  if (bo && !bp) {
    // The OSP view serves o / s,o.
    return OspMerge(live() ? PinnedChain() : nullptr, q.o, q.s);
  }
  if (bs) {
    // SPO serves s / s,p / s,p,o.
    EncodedTriple lo{q.s, bp ? q.p : kInvalidTermId, bo ? q.o : kInvalidTermId};
    EncodedTriple hi{q.s, bp ? q.p : kMaxTermId, bo ? q.o : kMaxTermId};
    return ClipRange(PermutationRange(Perm::kSpo), lo, hi);
  }
  if (bp) {
    // POS serves p / p,o.
    EncodedTriple lo{kInvalidTermId, q.p, bo ? q.o : kInvalidTermId};
    EncodedTriple hi{kMaxTermId, q.p, bo ? q.o : kMaxTermId};
    return ClipRange(PermutationRange(Perm::kPos), lo, hi);
  }
  return PermutationRange(Perm::kSpo);
}

uint64_t TripleStore::CountMatches(const TriplePattern& pattern) const {
  return Match(pattern).size();
}

std::vector<TermId> TripleStore::PredicatesOfSubject(TermId s) const {
  std::vector<TermId> out;
  TermId prev = kInvalidTermId;
  for (const EncodedTriple& t :
       Match(TriplePattern{s, kInvalidTermId, kInvalidTermId})) {
    if (t.p != prev) {
      out.push_back(t.p);
      prev = t.p;
    }
  }
  // SPO order groups by predicate within a subject, so `out` is already
  // deduplicated.
  return out;
}

std::vector<TermId> TripleStore::PredicatesOfObject(TermId o) const {
  std::vector<TermId> out;
  for (const EncodedTriple& t :
       Match(TriplePattern{kInvalidTermId, kInvalidTermId, o})) {
    out.push_back(t.p);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<TermId> TripleStore::AllPredicates() const {
  std::shared_ptr<const EpochChain> chain;
  const std::unordered_map<TermId, PredicateStats>* stats = nullptr;
  if (live()) {
    chain = PinnedChain();
    stats = &chain->stats;
  } else {
    stats = &FrozenBase().stats;
  }
  std::vector<TermId> out;
  out.reserve(stats->size());
  for (const auto& [p, st] : *stats) out.push_back(p);
  std::sort(out.begin(), out.end());
  return out;
}

PredicateStats TripleStore::predicate_stats(TermId p) const {
  if (live()) {
    std::shared_ptr<const EpochChain> chain = PinnedChain();
    auto it = chain->stats.find(p);
    return it == chain->stats.end() ? PredicateStats{} : it->second;
  }
  const std::unordered_map<TermId, PredicateStats>& stats =
      FrozenBase().stats;
  auto it = stats.find(p);
  return it == stats.end() ? PredicateStats{} : it->second;
}

uint64_t TripleStore::size() const {
  if (live()) return PinnedChain()->visible_triples;
  return base_ != nullptr ? base_->spo.size() : pending_.size();
}

std::shared_ptr<const IndexBase> TripleStore::index_base() const {
  if (live()) return PinnedChain()->base;
  assert(base_ != nullptr && "index_base() requires a frozen store");
  return base_;
}

bool TripleStore::borrows_snapshot() const {
  std::shared_ptr<const IndexBase> base =
      live() ? PinnedChain()->base : base_;
  return base != nullptr && base->borrowed;
}

StoreMemory TripleStore::MemoryBreakdown() const {
  StoreMemory m;
  m.heap_bytes = dict_.MemoryUsage() +
                 pending_.capacity() * sizeof(EncodedTriple);
  if (live()) {
    std::shared_ptr<const EpochChain> chain = PinnedChain();
    chain->base->AddMemory(&m);
    for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
      m.heap_bytes += layer->MemoryUsage();
    }
  } else if (base_ != nullptr) {
    base_->AddMemory(&m);
  }
  return m;
}

void TripleStore::UpdateStoreGauges() const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("store.triples").Set(static_cast<double>(size()));
  StoreMemory m = MemoryBreakdown();
  reg.GetGauge("store.bytes.heap").Set(static_cast<double>(m.heap_bytes));
  reg.GetGauge("store.bytes.mapped").Set(static_cast<double>(m.mapped_bytes));
  reg.GetGauge("store.index.spo.bytes")
      .Set(static_cast<double>(base_->spo.size_bytes()));
  reg.GetGauge("store.index.pos.bytes")
      .Set(static_cast<double>(base_->pos.size_bytes()));
}

}  // namespace re2xolap::rdf
