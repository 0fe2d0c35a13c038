#include "rdf/triple_store.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/compressed_index.h"
#include "rdf/delta_layer.h"
#include "util/thread_pool.h"

namespace re2xolap::rdf {

IndexFormat DefaultIndexFormat() {
  // Read once: flipping the env mid-process must not change behavior of
  // stores that already froze under the other format.
  static const IndexFormat format = [] {
    const char* env = std::getenv("RE2XOLAP_INDEX_FORMAT");
    if (env != nullptr && std::string_view(env) == "compressed") {
      return IndexFormat::kCompressed;
    }
    return IndexFormat::kRaw;
  }();
  return format;
}

TripleStore::TripleStore() : format_(DefaultIndexFormat()) {}

TripleStore::~TripleStore() = default;

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddEncoded(EncodedTriple{dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::AddEncoded(EncodedTriple t) {
  assert(dict_.IsValid(t.s) && dict_.IsValid(t.p) && dict_.IsValid(t.o));
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Add() during concurrent reads of a frozen store");
  assert(!live() && "live stores mutate via store::Ingestor, not Add()");
  Materialize();
  spo_.push_back(t);
  frozen_ = false;
}

void TripleStore::Materialize() {
  if (spo_blocks_ != nullptr) {
    // Compressed (owned or borrowed): decode the canonical SPO list; the
    // other permutations are rebuilt by the next Freeze().
    std::vector<EncodedTriple> spo;
    spo_blocks_->DecodeAll(&spo);
    ResetIndexState();
    spo_ = std::move(spo);
    return;
  }
  if (keepalive_ == nullptr) return;
  spo_.assign(spo_view_.begin(), spo_view_.end());
  pos_.assign(pos_view_.begin(), pos_view_.end());
  osp_.assign(osp_view_.begin(), osp_view_.end());
  spo_view_ = {};
  pos_view_ = {};
  osp_view_ = {};
  keepalive_.reset();
}

void TripleStore::ResetIndexState() {
  spo_.clear();
  spo_.shrink_to_fit();
  pos_.clear();
  pos_.shrink_to_fit();
  osp_.clear();
  osp_.shrink_to_fit();
  spo_view_ = {};
  pos_view_ = {};
  osp_view_ = {};
  spo_blocks_.reset();
  pos_blocks_.reset();
  osp_blocks_.reset();
  keepalive_.reset();
}

void TripleStore::AdoptFrozen(std::vector<EncodedTriple> spo,
                              std::vector<EncodedTriple> pos,
                              std::vector<EncodedTriple> osp,
                              std::unordered_map<TermId, PredicateStats> stats,
                              uint64_t epoch) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::AdoptFrozen() during concurrent reads");
  assert(!live() && "TripleStore::AdoptFrozen() on a live store");
  ResetIndexState();
  spo_ = std::move(spo);
  pos_ = std::move(pos);
  osp_ = std::move(osp);
  stats_ = std::move(stats);
  frozen_ = true;
  freeze_epoch_ = epoch;
  UpdateStoreGauges();
}

void TripleStore::AdoptFrozenView(
    std::span<const EncodedTriple> spo, std::span<const EncodedTriple> pos,
    std::span<const EncodedTriple> osp,
    std::unordered_map<TermId, PredicateStats> stats, uint64_t epoch,
    std::shared_ptr<const void> keepalive) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::AdoptFrozenView() during concurrent reads");
  assert(!live() && "TripleStore::AdoptFrozenView() on a live store");
  assert(keepalive != nullptr && "view adoption requires a keepalive");
  ResetIndexState();
  spo_view_ = spo;
  pos_view_ = pos;
  osp_view_ = osp;
  keepalive_ = std::move(keepalive);
  stats_ = std::move(stats);
  frozen_ = true;
  freeze_epoch_ = epoch;
  UpdateStoreGauges();
}

void TripleStore::AdoptFrozenCompressed(
    CompressedPermutation spo, CompressedPermutation pos,
    CompressedPermutation osp,
    std::unordered_map<TermId, PredicateStats> stats, uint64_t epoch,
    std::shared_ptr<const void> keepalive) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::AdoptFrozenCompressed() during concurrent reads");
  assert(!live() && "TripleStore::AdoptFrozenCompressed() on a live store");
  assert(spo.size() == pos.size() && pos.size() == osp.size());
  ResetIndexState();
  spo_blocks_ = std::make_unique<CompressedPermutation>(std::move(spo));
  pos_blocks_ = std::make_unique<CompressedPermutation>(std::move(pos));
  osp_blocks_ = std::make_unique<CompressedPermutation>(std::move(osp));
  keepalive_ = std::move(keepalive);
  stats_ = std::move(stats);
  frozen_ = true;
  freeze_epoch_ = epoch;
  UpdateStoreGauges();
}

void TripleStore::Freeze(util::ThreadPool* pool) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Freeze() during concurrent reads");
  assert(!live() && "live stores advance epochs via PublishChain()");
  obs::Span span("store.freeze");
  Materialize();
  span.SetAttr("triples", static_cast<uint64_t>(spo_.size()));
  {
    obs::Span child("store.build_indexes");
    BuildIndexes();
  }
  {
    obs::Span child("store.compute_stats");
    ComputeStats();
  }
  if (format_ == IndexFormat::kCompressed) {
    obs::Span child("store.compress_indexes");
    CompressIndexes(pool);
  }
  frozen_ = true;
  ++freeze_epoch_;
  UpdateStoreGauges();
}

namespace {

// Stable counting sort of `in` by one id column into `out` (resized to
// in.size()). Keys are term ids below `key_bound`, so the sort costs
// O(n + key_bound); stability is what lets consecutive passes build a
// lexicographic order one column at a time.
void CountingSortBy(std::span<const EncodedTriple> in,
                    TermId EncodedTriple::*key, size_t key_bound,
                    std::vector<EncodedTriple>* out) {
  std::vector<size_t> offset(key_bound + 1, 0);
  for (const EncodedTriple& t : in) {
    assert(t.*key < key_bound);
    ++offset[t.*key + 1];
  }
  for (size_t k = 1; k <= key_bound; ++k) offset[k] += offset[k - 1];
  out->resize(in.size());
  for (const EncodedTriple& t : in) (*out)[offset[t.*key]++] = t;
}

}  // namespace

void TripleStore::BuildIndexes() {
  // Term ids are dense in [1, dictionary().size()], so columns sort by
  // counting. SPO is one stable counting pass by s followed by a
  // comparison sort of each subject's run by (p, o), then the dedup:
  // O(n + |dict| + sum of k log k) over subject runs of length k, which
  // degrades to O(n log n) only when most triples share one subject. OSP
  // and POS each take one more stable pass over an already sorted
  // permutation, whose order breaks their ties: OSP sorts SPO by o,
  // keeping (s,p) order within an object, and POS sorts OSP by p, keeping
  // (o,s) order within a predicate. Peak memory is the raw list plus one
  // scratch buffer.
  const size_t key_bound = dict_.size() + 1;
  {
    std::vector<EncodedTriple> scratch;
    CountingSortBy(spo_, &EncodedTriple::s, key_bound, &scratch);
    spo_.swap(scratch);
  }
  for (auto run = spo_.begin(); run != spo_.end();) {
    auto run_end = std::find_if(run, spo_.end(), [&](const EncodedTriple& t) {
      return t.s != run->s;
    });
    std::sort(run, run_end, SpoLess());
    run = run_end;
  }
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  spo_.shrink_to_fit();
  CountingSortBy(spo_, &EncodedTriple::o, key_bound, &osp_);
  CountingSortBy(osp_, &EncodedTriple::p, key_bound, &pos_);
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

void TripleStore::ComputeStats() {
  stats_ = ComputePredicateStats(spo_, pos_);
}

void TripleStore::CompressIndexes(util::ThreadPool* pool) {
  auto spo_cp = std::make_unique<CompressedPermutation>();
  auto pos_cp = std::make_unique<CompressedPermutation>();
  auto osp_cp = std::make_unique<CompressedPermutation>();
  auto compress_one = [&](size_t task) {
    switch (task) {
      case 0:
        *spo_cp = CompressedPermutation::Build(spo_, Perm::kSpo);
        break;
      case 1:
        *pos_cp = CompressedPermutation::Build(pos_, Perm::kPos);
        break;
      default:
        *osp_cp = CompressedPermutation::Build(osp_, Perm::kOsp);
        break;
    }
  };
  if (pool != nullptr && pool->size() > 0) {
    pool->ParallelFor(3, compress_one);
  } else {
    for (size_t t = 0; t < 3; ++t) compress_one(t);
  }
  spo_blocks_ = std::move(spo_cp);
  pos_blocks_ = std::move(pos_cp);
  osp_blocks_ = std::move(osp_cp);
  spo_.clear();
  spo_.shrink_to_fit();
  pos_.clear();
  pos_.shrink_to_fit();
  osp_.clear();
  osp_.shrink_to_fit();
}

IndexRange TripleStore::PermutationRange(Perm perm) const {
  if (live()) return LivePermutationRange(perm);
  return ClassicPermutationRange(perm);
}

IndexRange TripleStore::ClassicPermutationRange(Perm perm) const {
  switch (perm) {
    case Perm::kSpo:
      if (spo_blocks_ != nullptr) {
        return IndexRange::FromBlocks(spo_blocks_.get(), 0,
                                      spo_blocks_->size(), perm);
      }
      return IndexRange::FromSpan(SpoView(), perm);
    case Perm::kPos:
      if (pos_blocks_ != nullptr) {
        return IndexRange::FromBlocks(pos_blocks_.get(), 0,
                                      pos_blocks_->size(), perm);
      }
      return IndexRange::FromSpan(PosView(), perm);
    default:
      if (osp_blocks_ != nullptr) {
        return IndexRange::FromBlocks(osp_blocks_.get(), 0,
                                      osp_blocks_->size(), perm);
      }
      return IndexRange::FromSpan(OspView(), perm);
  }
}

namespace {

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
  t_pin_stack.push_back(
      {&store, store.chain_.load(std::memory_order_acquire)});
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
  return chain_.load(std::memory_order_acquire);
}

std::shared_ptr<const EpochChain> TripleStore::live_chain() const {
  if (!live()) return nullptr;
  return PinnedChain();
}

uint64_t TripleStore::freeze_epoch() const {
  if (live()) return PinnedChain()->epoch;
  return freeze_epoch_;
}

void TripleStore::EnterLive() {
  assert(frozen_ && "EnterLive() requires a frozen store");
  assert(!live() && "EnterLive() called twice");
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::EnterLive() during concurrent reads");
  dict_.EnterLive();
  auto chain = std::make_shared<EpochChain>();
  chain->epoch = freeze_epoch_;
  chain->visible_triples = ClassicSize();
  chain->stats = stats_;
  UpdateChainGauges(*chain);
  chain_.store(std::shared_ptr<const EpochChain>(std::move(chain)),
               std::memory_order_release);
  live_.store(true, std::memory_order_release);
}

void TripleStore::PublishChain(std::shared_ptr<const EpochChain> chain) {
  assert(live() && "PublishChain() requires EnterLive()");
  assert(chain != nullptr);
  UpdateChainGauges(*chain);
  chain_.store(std::move(chain), std::memory_order_release);
}

void TripleStore::RestoreChain(
    std::vector<std::shared_ptr<const DeltaLayer>> layers, uint64_t epoch) {
  assert(live() && "RestoreChain() requires EnterLive()");
  auto chain = std::make_shared<EpochChain>();
  chain->layers = std::move(layers);
  chain->epoch = epoch;
  chain->stats = stats_;
  uint64_t visible = ClassicSize();
  for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
    chain->delta_adds += layer->add_count();
    chain->delta_dels += layer->del_count();
    visible += layer->add_count();
    visible -= layer->del_count();
    ApplyLayerToStats(*layer, &chain->stats);
  }
  chain->visible_triples = visible;
  PublishChain(std::move(chain));
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
  info.compacted_base = chain->base != nullptr;
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

IndexRange TripleStore::LivePermutationRange(Perm perm) const {
  return ChainPermutationRange(PinnedChain(), perm);
}

IndexRange TripleStore::ChainPermutationRange(
    std::shared_ptr<const EpochChain> chain, Perm perm) const {
  const LiveBase* base = chain->base.get();
  if (base == nullptr && chain->layers.empty()) {
    // Pristine chain: the store's own frozen arrays ARE the view, and
    // they are store-owned, so no keepalive is needed.
    return ClassicPermutationRange(perm);
  }
  std::vector<IndexRange> adds;
  std::vector<IndexRange> dels;
  adds.reserve(chain->layers.size() + 1);
  IndexRange base_range;
  if (base != nullptr) {
    const std::vector<EncodedTriple>& v = perm == Perm::kSpo   ? base->spo
                                          : perm == Perm::kPos ? base->pos
                                                               : base->osp;
    base_range = IndexRange::FromSpan(v, perm);
  } else {
    base_range = ClassicPermutationRange(perm);
  }
  if (!base_range.empty()) adds.push_back(base_range);
  for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
    if (!layer->adds(perm).empty()) {
      adds.push_back(IndexRange::FromSpan(layer->adds(perm), perm));
    }
    if (!layer->dels(perm).empty()) {
      dels.push_back(IndexRange::FromSpan(layer->dels(perm), perm));
    }
  }
  if (adds.empty()) return IndexRange();
  // Even a single-source view goes through MergedRun when it aliases
  // chain-owned memory (a compacted base or a layer): the run's
  // keepalive is what lets the range outlive a concurrent publication.
  auto run = std::make_shared<const MergedRun>(std::move(adds),
                                               std::move(dels), perm, chain);
  const uint64_t n = run->size();
  return IndexRange::FromMerged(std::move(run), 0, n, perm);
}

IndexRange TripleStore::Match(const TriplePattern& q) const {
  assert(frozen_ && "TripleStore::Freeze() must be called before Match()");
  ReadGuard guard(this);
  const bool bs = q.s != kInvalidTermId;
  const bool bp = q.p != kInvalidTermId;
  const bool bo = q.o != kInvalidTermId;

  if (bs) {
    // SPO serves s / s,p / s,p,o; OSP serves s,o.
    if (!bp && bo) {
      return ClipRange(PermutationRange(Perm::kOsp),
                       EncodedTriple{q.s, kInvalidTermId, q.o},
                       EncodedTriple{q.s, kMaxTermId, q.o});
    }
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
  if (bo) {
    // OSP serves o.
    return ClipRange(PermutationRange(Perm::kOsp),
                     EncodedTriple{kInvalidTermId, kInvalidTermId, q.o},
                     EncodedTriple{kMaxTermId, kMaxTermId, q.o});
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
  const std::unordered_map<TermId, PredicateStats>* stats = &stats_;
  if (live()) {
    chain = PinnedChain();
    stats = &chain->stats;
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
  auto it = stats_.find(p);
  return it == stats_.end() ? PredicateStats{} : it->second;
}

uint64_t TripleStore::size() const {
  if (live()) return PinnedChain()->visible_triples;
  return ClassicSize();
}

uint64_t TripleStore::ClassicSize() const {
  if (spo_blocks_ != nullptr) return spo_blocks_->size();
  return SpoView().size();
}

StoreMemory TripleStore::MemoryBreakdown() const {
  StoreMemory m;
  m.heap_bytes = dict_.MemoryUsage() +
                 (spo_.capacity() + pos_.capacity() + osp_.capacity()) *
                     sizeof(EncodedTriple) +
                 stats_.size() * (sizeof(TermId) + sizeof(PredicateStats) +
                                  2 * sizeof(void*));
  for (const CompressedPermutation* cp :
       {spo_blocks_.get(), pos_blocks_.get(), osp_blocks_.get()}) {
    if (cp == nullptr) continue;
    m.heap_bytes += cp->heap_bytes();
    if (cp->borrowed()) m.mapped_bytes += cp->byte_size();
  }
  if (keepalive_ != nullptr && spo_blocks_ == nullptr) {
    // Raw borrowed views: the image bytes the three spans alias.
    m.mapped_bytes +=
        (spo_view_.size() + pos_view_.size() + osp_view_.size()) *
        sizeof(EncodedTriple);
  }
  if (live()) {
    std::shared_ptr<const EpochChain> chain = PinnedChain();
    if (chain->base != nullptr) m.heap_bytes += chain->base->MemoryUsage();
    for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
      m.heap_bytes += layer->MemoryUsage();
    }
  }
  return m;
}

void TripleStore::UpdateStoreGauges() const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("store.triples").Set(static_cast<double>(size()));
  StoreMemory m = MemoryBreakdown();
  reg.GetGauge("store.bytes.heap").Set(static_cast<double>(m.heap_bytes));
  reg.GetGauge("store.bytes.mapped").Set(static_cast<double>(m.mapped_bytes));
  auto index_bytes = [this](Perm perm) -> double {
    const CompressedPermutation* cp = perm == Perm::kSpo ? spo_blocks_.get()
                                     : perm == Perm::kPos ? pos_blocks_.get()
                                                          : osp_blocks_.get();
    if (cp != nullptr) return static_cast<double>(cp->byte_size());
    std::span<const EncodedTriple> view = perm == Perm::kSpo   ? SpoView()
                                          : perm == Perm::kPos ? PosView()
                                                               : OspView();
    return static_cast<double>(view.size() * sizeof(EncodedTriple));
  };
  reg.GetGauge("store.index.spo.bytes").Set(index_bytes(Perm::kSpo));
  reg.GetGauge("store.index.pos.bytes").Set(index_bytes(Perm::kPos));
  reg.GetGauge("store.index.osp.bytes").Set(index_bytes(Perm::kOsp));
}

}  // namespace re2xolap::rdf
