#include "rdf/delta_layer.h"

#include <algorithm>
#include <cassert>

namespace re2xolap::rdf {

namespace {

uint64_t NextMergedRunId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

size_t TripleBytes(const std::vector<EncodedTriple>& v) {
  return v.capacity() * sizeof(EncodedTriple);
}

// Applies `layer` on top of `stats` (the merged-stats construction
// described on EpochChain::stats). Predicates whose count reaches zero
// are erased so AllPredicates() stops listing them.
void ApplyLayerToStats(const DeltaLayer& layer,
                       std::unordered_map<TermId, PredicateStats>* stats) {
  for (const auto& [p, delta] : layer.predicate_delta) {
    auto it = stats->find(p);
    if (it == stats->end()) {
      if (delta <= 0) continue;  // deleting an unknown predicate: no-op
      PredicateStats st;
      st.triple_count = static_cast<uint64_t>(delta);
      // Distinct counts for a predicate born in a delta layer: use the
      // triple count as an upper bound until compaction recomputes them.
      st.distinct_subjects = st.triple_count;
      st.distinct_objects = st.triple_count;
      stats->emplace(p, st);
      continue;
    }
    const int64_t count = static_cast<int64_t>(it->second.triple_count) + delta;
    if (count <= 0) {
      stats->erase(it);
      continue;
    }
    it->second.triple_count = static_cast<uint64_t>(count);
    it->second.distinct_subjects =
        std::min<uint64_t>(it->second.distinct_subjects, count);
    it->second.distinct_objects =
        std::min<uint64_t>(it->second.distinct_objects, count);
  }
}

}  // namespace

void DeltaLayer::RebuildPredicateDelta() {
  predicate_delta.clear();
  for (const EncodedTriple& t : add_pos) ++predicate_delta[t.p];
  for (const EncodedTriple& t : del_pos) --predicate_delta[t.p];
  // Drop exact cancellations so the map mirrors what the builder wrote.
  for (auto it = predicate_delta.begin(); it != predicate_delta.end();) {
    it = it->second == 0 ? predicate_delta.erase(it) : std::next(it);
  }
}

size_t DeltaLayer::MemoryUsage() const {
  return TripleBytes(add_spo) + TripleBytes(add_pos) + TripleBytes(del_spo) +
         TripleBytes(del_pos) +
         predicate_delta.size() * (sizeof(TermId) + sizeof(int64_t) +
                                   2 * sizeof(void*));
}

std::shared_ptr<const EpochChain> MakeEpochChain(
    std::shared_ptr<const IndexBase> base,
    std::vector<std::shared_ptr<const DeltaLayer>> layers, uint64_t epoch) {
  assert(base != nullptr && "an epoch chain always has a base");
  auto chain = std::make_shared<EpochChain>();
  chain->stats = base->stats;
  uint64_t visible = base->spo.size();
  for (const std::shared_ptr<const DeltaLayer>& layer : layers) {
    ApplyLayerToStats(*layer, &chain->stats);
    chain->delta_adds += layer->add_count();
    chain->delta_dels += layer->del_count();
    visible += layer->add_count();
    visible -= layer->del_count();
  }
  chain->base = std::move(base);
  chain->layers = std::move(layers);
  chain->epoch = epoch;
  chain->visible_triples = visible;
  return chain;
}

MergedRun::MergedRun(std::vector<IndexRange> adds, std::vector<IndexRange> dels,
                     Perm perm, std::shared_ptr<const EpochChain> chain)
    : adds_(std::move(adds)),
      dels_(std::move(dels)),
      perm_(perm),
      id_(NextMergedRunId()),
      chain_(std::move(chain)) {
  assert(!adds_.empty());
  uint64_t add_total = 0;
  uint64_t del_total = 0;
  for (const IndexRange& r : adds_) add_total += r.size();
  for (const IndexRange& r : dels_) del_total += r.size();
  assert(del_total <= add_total);
  size_ = add_total - del_total;
}

uint64_t MergedRun::Bound(const EncodedTriple& probe, bool upper) const {
  // Every tombstone key equals some insert/base key (it kills a visible
  // triple), so the subtraction never undercounts a prefix.
  uint64_t bound = 0;
  for (const IndexRange& r : adds_) {
    bound += upper ? r.UpperBound(probe) : r.LowerBound(probe);
  }
  for (const IndexRange& r : dels_) {
    bound -= upper ? r.UpperBound(probe) : r.LowerBound(probe);
  }
  return bound;
}

uint64_t MergedRun::RankLess(const EncodedTriple& probe,
                             std::vector<uint64_t>* bounds) const {
  bounds->clear();
  bounds->reserve(source_count());
  uint64_t rank = 0;
  for (const IndexRange& r : adds_) {
    const uint64_t b = r.LowerBound(probe);
    bounds->push_back(b);
    rank += b;
  }
  for (const IndexRange& r : dels_) {
    const uint64_t b = r.LowerBound(probe);
    bounds->push_back(b);
    rank -= b;
  }
  return rank;
}

void MergedRun::Seek(uint64_t pos, MergedCursorState* cur) const {
  cur->src.assign(source_count(), 0);
  cur->merged_pos = 0;
  if (pos == 0) return;
  if (pos >= size_) {
    size_t i = 0;
    for (const IndexRange& r : adds_) cur->src[i++] = r.size();
    for (const IndexRange& r : dels_) cur->src[i++] = r.size();
    cur->merged_pos = size_;
    return;
  }
  // Rank bisection over one add source at a time: within the source's
  // candidate window, find the last key whose merged rank is <= pos and
  // align every source at it. The source's next key ranks above pos, so
  // the target sorts before it, which caps every source's window. A base
  // and its delta layers interleave densely, so one pass over the widest
  // source usually leaves a short gap; sources over disjoint key ranges
  // (the predicate runs of the OSP view) take one pass per source the
  // target could lie in. The residual gap is merged forward.
  constexpr uint64_t kMergeForwardGap = 256;
  const size_t na = adds_.size();
  std::vector<uint64_t> win_lo(na, 0);
  std::vector<uint64_t> win_hi(na);
  for (size_t i = 0; i < na; ++i) win_hi[i] = adds_[i].size();
  std::vector<uint64_t> bounds;
  while (pos - cur->merged_pos > kMergeForwardGap) {
    size_t d = na;
    uint64_t widest = 1;
    for (size_t i = 0; i < na; ++i) {
      if (win_hi[i] - win_lo[i] > widest) {
        d = i;
        widest = win_hi[i] - win_lo[i];
      }
    }
    if (d == na) break;
    uint64_t lo = win_lo[d];
    uint64_t hi = win_hi[d];
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (RankLess(adds_[d][mid], &bounds) <= pos) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > win_lo[d]) {
      cur->merged_pos = RankLess(adds_[d][lo - 1], &bounds);
      std::copy(bounds.begin(), bounds.end(), cur->src.begin());
      for (size_t i = 0; i < na; ++i) {
        win_lo[i] = std::max(win_lo[i], bounds[i]);
      }
    }
    win_hi[d] = lo;
    if (lo < adds_[d].size() && pos - cur->merged_pos > kMergeForwardGap) {
      RankLess(adds_[d][lo], &bounds);
      for (size_t i = 0; i < na; ++i) {
        win_hi[i] = std::min(win_hi[i], bounds[i]);
      }
    }
  }
  assert(cur->merged_pos <= pos);
  Advance(cur, pos - cur->merged_pos, nullptr);
}

uint64_t MergedRun::Advance(MergedCursorState* cur, uint64_t limit,
                            std::vector<EncodedTriple>* out) const {
  if (limit == 0) return 0;
  // Every source is a raw span (base arrays and layer runs), so a head is
  // one indexed load.
  struct Src {
    std::span<const EncodedTriple> s;
    uint64_t pos = 0;

    bool exhausted() const { return pos >= s.size(); }
    const EncodedTriple& Head() const { return s[pos]; }
  };
  const size_t na = adds_.size();
  const size_t nd = dels_.size();
  std::vector<Src> src(na + nd);
  for (size_t i = 0; i < na; ++i) {
    src[i].s = adds_[i].raw();
    src[i].pos = cur->src[i];
  }
  for (size_t j = 0; j < nd; ++j) {
    src[na + j].s = dels_[j].raw();
    src[na + j].pos = cur->src[na + j];
  }

  uint64_t emitted = 0;
  while (emitted < limit) {
    // Smallest key among the add heads; ties across sources are the
    // reinsertion case (base copy + layer copy with tombstones between).
    int min_i = -1;
    for (size_t i = 0; i < na; ++i) {
      if (src[i].exhausted()) continue;
      if (min_i < 0 || PermLess(perm_, src[i].Head(), src[min_i].Head())) {
        min_i = static_cast<int>(i);
      }
    }
    if (min_i < 0) break;
    const EncodedTriple key = src[min_i].Head();
    int net = 0;
    for (size_t i = 0; i < na; ++i) {
      if (src[i].exhausted()) continue;
      if (!PermLess(perm_, key, src[i].Head())) {
        // Head == key (heads are never < key by min selection).
        ++src[i].pos;
        ++net;
      }
    }
    for (size_t j = na; j < na + nd; ++j) {
      // Tombstone keys always exist among the adds, so heads never trail
      // the merge frontier; the while is defensive against a violated
      // ingest invariant.
      while (!src[j].exhausted() && PermLess(perm_, src[j].Head(), key)) {
        ++src[j].pos;
      }
      if (!src[j].exhausted() && !PermLess(perm_, key, src[j].Head())) {
        ++src[j].pos;
        --net;
      }
    }
    assert(net >= 0 && net <= 1 &&
           "delta-layer invariant violated: per-key visible count not 0/1");
    if (net > 0) {
      if (out != nullptr) out->push_back(key);
      ++emitted;
    }
  }
  for (size_t i = 0; i < na + nd; ++i) cur->src[i] = src[i].pos;
  cur->merged_pos += emitted;
  return emitted;
}

}  // namespace re2xolap::rdf
