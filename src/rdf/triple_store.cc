#include "rdf/triple_store.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/delta_layer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace re2xolap::rdf {

std::shared_ptr<const IndexBase> IndexBase::Build(
    TripleVector spo, TripleVector pos,
    std::unordered_map<TermId, PredicateStats> stats) {
  struct Arrays {
    TripleVector spo;
    TripleVector pos;
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
  // Built arrays are exactly sized (Freeze sizes SPO to its deduplicated
  // triples and POS from it; compaction reserves the visible count), so
  // the spans measure them.
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

namespace {

// Freeze() runs on one thread per core, at most kMaxFreezeThreads, and on
// the calling thread alone below kParallelFreezeTriples, where starting
// threads costs more than it saves. A predicate run shorter than
// kParallelRunTriples is sorted on the calling thread.
constexpr size_t kMaxFreezeThreads = 8;
constexpr size_t kParallelFreezeTriples = size_t{1} << 16;
constexpr size_t kParallelRunTriples = size_t{1} << 14;
// The scatters split keys into at most 2^kBucketBits buckets.
constexpr int kBucketBits = 8;

// Threads a ParallelFor on `pool` runs on: its workers plus the caller.
size_t Width(const util::ThreadPool& pool) { return pool.size() + 1; }

// Chunk `c` of `chunks` near-equal chunks of [0, n).
std::pair<size_t, size_t> Chunk(size_t n, size_t chunks, size_t c) {
  return {n * c / chunks, n * (c + 1) / chunks};
}

// Row length for per-chunk counters of `width` slots: padded so that the
// rows of two chunks never share a cache line, whatever the alignment of
// the array they sit in.
size_t RowStride(size_t width) {
  constexpr size_t kLine = 64 / sizeof(size_t);
  return (width + kLine - 1) / kLine * kLine + kLine;
}

// Bucket of key `k` in [0, bound) is k >> BucketShift(bound): at most
// 2^kBucketBits buckets of 2^shift consecutive keys each.
int BucketShift(size_t bound) {
  return std::max(0, static_cast<int>(std::bit_width(bound - 1)) - kBucketBits);
}

// Stable chunk-parallel scatter of `in` into `out` (in.size() slots) by
// bucket(t) < buckets. `in` splits into one chunk per thread of `pool`;
// each chunk counts its triples per bucket into its row of `hist`
// (chunks × RowStride(buckets)), an exclusive prefix sum in (bucket,
// chunk) order turns the rows into write cursors, and each chunk copies
// its triples in input order, so every bucket keeps the input order.
// `bounds` receives the buckets' starts plus the end. Both are sized
// here, on the calling thread.
template <typename Bucket>
void ScatterByBucket(util::ThreadPool& pool, std::span<const EncodedTriple> in,
                     EncodedTriple* out, size_t buckets, Bucket bucket,
                     std::vector<size_t>* hist, std::vector<size_t>* bounds) {
  const size_t chunks = Width(pool);
  const size_t stride = RowStride(buckets);
  hist->assign(chunks * stride, 0);
  bounds->assign(buckets + 1, 0);
  size_t* const rows = hist->data();
  pool.ParallelFor(chunks, [&](size_t c) {
    const auto [first, last] = Chunk(in.size(), chunks, c);
    size_t* const row = rows + c * stride;
    for (size_t i = first; i < last; ++i) ++row[bucket(in[i])];
  });
  size_t offset = 0;
  for (size_t b = 0; b < buckets; ++b) {
    (*bounds)[b] = offset;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t n = rows[c * stride + b];
      rows[c * stride + b] = offset;
      offset += n;
    }
  }
  (*bounds)[buckets] = offset;
  pool.ParallelFor(chunks, [&](size_t c) {
    const auto [first, last] = Chunk(in.size(), chunks, c);
    size_t* const cursor = rows + c * stride;
    for (size_t i = first; i < last; ++i) out[cursor[bucket(in[i])]++] = in[i];
  });
}

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

// The buffers Freeze()'s passes share, all allocated on the calling
// thread: one count array over the term ids (all zero between uses; a
// parallel loop only touches disjoint slices of it), the scatter
// histogram and bucket bounds, each predicate run's [min o, max o] per
// chunk, and the run-sized scratch of the object sort.
struct SortBuffers {
  std::vector<size_t> count;
  std::vector<size_t> hist;
  std::vector<size_t> bounds;
  std::vector<TermId> window;
  TripleVector scratch;
};

// Reorders one predicate run of POS, which arrives in (p, s, o) order,
// into (p, o, s) order: a stable sort by o keeps the s order within an
// object. The run's objects split into buckets by their offset from the
// run's smallest object. A run of k triples whose object ids span at most
// k log2 k values is scattered into `scratch` by bucket (stable), and each
// bucket is counted back into the run through its own slice of `count`,
// or copied back as it is when every bucket holds a single object.
// A run of more widely spread objects is partitioned by bucket in place
// and each bucket comparison-sorted by (o, s) instead, which gives the
// same bytes because (o, s) pairs are unique within a run.
void SortRunByObject(util::ThreadPool& pool, std::span<EncodedTriple> run,
                     SortBuffers* buf) {
  const size_t k = run.size();
  const size_t chunks = Width(pool);
  buf->window.assign(2 * chunks, 0);
  pool.ParallelFor(chunks, [&](size_t c) {
    const auto [first, last] = Chunk(k, chunks, c);
    TermId lo = kMaxTermId;
    TermId hi = 0;
    for (size_t i = first; i < last; ++i) {
      lo = std::min(lo, run[i].o);
      hi = std::max(hi, run[i].o);
    }
    buf->window[2 * c] = lo;
    buf->window[2 * c + 1] = hi;
  });
  TermId min_o = kMaxTermId;
  TermId max_o = 0;
  for (size_t c = 0; c < chunks; ++c) {
    min_o = std::min(min_o, buf->window[2 * c]);
    max_o = std::max(max_o, buf->window[2 * c + 1]);
  }
  const size_t span = size_t{max_o} - min_o + 1;
  const int shift = BucketShift(span);
  const size_t buckets = ((span - 1) >> shift) + 1;
  auto bucket = [min_o, shift](const EncodedTriple& t) {
    return static_cast<size_t>(t.o - min_o) >> shift;
  };
  const std::vector<size_t>& bounds = buf->bounds;

  if (span <= k * std::bit_width(k)) {
    buf->scratch.resize(k);
    EncodedTriple* const scratch = buf->scratch.data();
    ScatterByBucket(pool, run, scratch, buckets, bucket, &buf->hist,
                    &buf->bounds);
    if (shift == 0) {
      // Each bucket holds one object: the scatter was the whole sort.
      pool.ParallelFor(chunks, [&](size_t c) {
        const auto [first, last] = Chunk(k, chunks, c);
        std::copy(scratch + first, scratch + last, run.begin() + first);
      });
      return;
    }
    size_t* const count = buf->count.data();
    pool.ParallelFor(buckets, [&](size_t b) {
      const size_t first = bounds[b];
      const size_t last = bounds[b + 1];
      if (first == last) return;
      // This bucket's objects, and so its slice of `count`.
      const size_t lo = min_o + (b << shift);
      const size_t hi = std::min(lo + (size_t{1} << shift), size_t{max_o} + 1);
      for (size_t i = first; i < last; ++i) ++count[scratch[i].o];
      size_t offset = first;
      for (size_t o = lo; o < hi; ++o) {
        const size_t n = count[o];
        count[o] = offset;
        offset += n;
      }
      for (size_t i = first; i < last; ++i) {
        run[count[scratch[i].o]++] = scratch[i];
      }
      std::fill(count + lo, count + hi, 0);
    });
    return;
  }

  buf->hist.assign(chunks * buckets, 0);
  buf->bounds.assign(buckets + 1, 0);
  size_t* const heads = buf->hist.data();
  for (const EncodedTriple& t : run) ++buf->bounds[bucket(t) + 1];
  for (size_t b = 0; b < buckets; ++b) {
    buf->bounds[b + 1] += buf->bounds[b];
    heads[b] = buf->bounds[b];
  }
  // Cycle each triple to its bucket's next free slot.
  for (size_t b = 0; b < buckets; ++b) {
    while (heads[b] < bounds[b + 1]) {
      EncodedTriple t = run[heads[b]];
      for (size_t tb = bucket(t); tb != b; tb = bucket(t)) {
        std::swap(t, run[heads[tb]++]);
      }
      run[heads[b]++] = t;
    }
  }
  pool.ParallelFor(buckets, [&](size_t b) {
    std::sort(run.begin() + bounds[b], run.begin() + bounds[b + 1], PosLess());
  });
}

}  // namespace

void TripleStore::Freeze() {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Freeze() during concurrent reads");
  assert(!live() && "live stores advance epochs via PublishChain()");
  obs::Span span("store.freeze");
  const long faults = span.active() ? util::MinorFaults() : 0;
  Reopen();
  span.SetAttr("triples", static_cast<uint64_t>(pending_.size()));
  util::ThreadPool pool(
      pending_.size() < kParallelFreezeTriples
          ? 1
          : std::min(util::ThreadPool::DefaultThreads(), kMaxFreezeThreads));
  TripleVector pos;
  {
    obs::Span child("store.build_indexes");
    BuildIndexes(pool, &pos);
  }
  std::unordered_map<TermId, PredicateStats> stats;
  {
    obs::Span child("store.compute_stats");
    stats = ComputePredicateStats(pending_, pos, &pool);
  }
  base_ = IndexBase::Build(std::move(pending_), std::move(pos),
                           std::move(stats));
  ++freeze_epoch_;
  UpdateStoreGauges();
  if (span.active()) {
    span.SetAttr("minor_faults",
                 static_cast<uint64_t>(util::MinorFaults() - faults));
  }
}

void TripleStore::BuildIndexes(util::ThreadPool& pool, TripleVector* pos) {
  // Term ids are dense in [1, dictionary().size()], so columns sort by
  // counting, and every pass splits into chunks or buckets that threads
  // of `pool` take without sharing a slot:
  //
  // - Subject pass: a stable chunk-parallel scatter by the high bits of s
  //   into `scratch`; then each s-bucket is counting-sorted by s back
  //   into the load buffer through its own slice of the count array,
  //   each subject's run is sorted by (p, o), and the bucket is
  //   deduplicated into `scratch` (subjects never straddle buckets).
  //   O(n + |dict| + sum of k log k) over subject runs of length k, which
  //   degrades to O(n log n) only when most triples share one subject.
  // - Predicate pass: a stable chunk-parallel scatter of SPO into POS by
  //   a dense predicate index, which leaves each predicate run in (s, o)
  //   order.
  // - Object pass: each predicate run is sorted by o inside the run, the
  //   run split across the threads (SortRunByObject).
  //
  // OSP is not stored: it is a merged view over the POS runs. The output
  // is the same bytes for every thread count.
  //
  // Memory: every buffer is allocated here, on the calling thread, so no
  // worker grows a heap arena of its own. Besides the two triple copies
  // there are one count array over the term ids, histograms of threads ×
  // buckets (or × predicates) and one predicate run of scratch. The large
  // blocks come and go in a fixed order: scratch(n), free the load
  // buffer, the exact SPO(m) when duplicates were dropped, then POS(m).
  // Keeping the load buffer as POS's destination instead, so that a
  // first Freeze frees no large array, measured worse: the whole first
  // set-up of a process then stays above glibc's default mmap threshold,
  // and each later set-up in the same process re-faults its heap
  // (DESIGN.md §8).
  TripleVector& spo = pending_;
  const size_t n = spo.size();
  SortBuffers buf;
  buf.count.assign(dict_.size() + 2, 0);
  size_t* const count = buf.count.data();
  const size_t ids = buf.count.size();

  const int shift = BucketShift(ids);
  const size_t buckets = ((ids - 1) >> shift) + 1;
  std::vector<size_t> kept(buckets + 1, 0);
  {
    TripleVector scratch;
    scratch.resize(n);
    ScatterByBucket(
        pool, spo, scratch.data(), buckets,
        [shift](const EncodedTriple& t) { return size_t{t.s} >> shift; },
        &buf.hist, &buf.bounds);
    const std::vector<size_t>& bounds = buf.bounds;
    pool.ParallelFor(buckets, [&](size_t b) {
      const size_t first = bounds[b];
      const size_t last = bounds[b + 1];
      if (first == last) return;
      const size_t lo = b << shift;
      const size_t hi = std::min((b + 1) << shift, ids);
      for (size_t i = first; i < last; ++i) ++count[scratch[i].s];
      size_t offset = first;
      for (size_t s = lo; s < hi; ++s) {
        const size_t k = count[s];
        count[s] = offset;
        offset += k;
      }
      for (size_t i = first; i < last; ++i) {
        spo[count[scratch[i].s]++] = scratch[i];
      }
      // count[s] is now the end of subject s's run.
      size_t run = first;
      for (size_t s = lo; s < hi; ++s) {
        const size_t end = count[s];
        count[s] = 0;
        std::sort(spo.begin() + run, spo.begin() + end, SpoLess());
        run = end;
      }
      kept[b + 1] = static_cast<size_t>(
          std::unique_copy(spo.begin() + first, spo.begin() + last,
                           scratch.begin() + first) -
          (scratch.begin() + first));
    });
    spo.swap(scratch);
  }  // frees the load buffer
  for (size_t b = 0; b < buckets; ++b) kept[b + 1] += kept[b];
  const size_t m = kept[buckets];
  if (m < n) {
    // Close the gaps the dedup left at bucket ends, into an exactly sized
    // array.
    TripleVector exact;
    exact.resize(m);
    const std::vector<size_t>& bounds = buf.bounds;
    pool.ParallelFor(buckets, [&](size_t b) {
      std::copy_n(spo.begin() + bounds[b], kept[b + 1] - kept[b],
                  exact.begin() + kept[b]);
    });
    spo.swap(exact);
  }
  if (m == 0) return;

  // Number the predicates densely in id order: mark each in `count`, then
  // replace the marks by indices. Threads may mark the same slot, hence
  // the relaxed atomic stores.
  const size_t chunks = Width(pool);
  pool.ParallelFor(chunks, [&](size_t c) {
    const auto [first, last] = Chunk(m, chunks, c);
    for (size_t i = first; i < last; ++i) {
      std::atomic_ref<size_t> mark(count[spo[i].p]);
      if (mark.load(std::memory_order_relaxed) == 0) {
        mark.store(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<TermId> predicates;
  for (size_t id = 0; id < ids; ++id) {
    if (count[id] == 0) continue;
    count[id] = predicates.size();
    predicates.push_back(static_cast<TermId>(id));
  }
  pos->resize(m);
  ScatterByBucket(
      pool, spo, pos->data(), predicates.size(),
      [count](const EncodedTriple& t) { return count[t.p]; }, &buf.hist,
      &buf.bounds);
  for (TermId p : predicates) count[p] = 0;

  const std::vector<size_t> runs = buf.bounds;
  util::ThreadPool caller_only(0);
  for (size_t r = 0; r + 1 < runs.size(); ++r) {
    const size_t k = runs[r + 1] - runs[r];
    SortRunByObject(k < kParallelRunTriples ? caller_only : pool,
                    std::span<EncodedTriple>(pos->data() + runs[r], k), &buf);
  }
}

std::unordered_map<TermId, PredicateStats> ComputePredicateStats(
    std::span<const EncodedTriple> spo_sorted,
    std::span<const EncodedTriple> pos_sorted, util::ThreadPool* pool) {
  std::unordered_map<TermId, PredicateStats> stats;
  if (pos_sorted.empty()) return stats;
  // POS is sorted by (p, o, s): each predicate's triples are one run,
  // found by galloping, whose length is its triple count, and objects are
  // grouped within a run, so a predicate's distinct objects are the
  // positions where o changes. Each distinct (s, p) pair is one run of
  // SPO, so counting those runs per predicate gives the distinct
  // subjects. Both counts split into chunks, one row of per-predicate
  // counts per chunk.
  std::vector<size_t> runs;  // run starts, then the end
  // Run index by predicate id; the last POS triple has the largest id.
  // size_t rather than a narrower type, so the array is the size the
  // serial per-predicate counter array was (the heap layout of repeated
  // set-ups depends on it).
  std::vector<size_t> run_of(pos_sorted.back().p + 1, 0);
  const EncodedTriple* const begin = pos_sorted.data();
  const EncodedTriple* const end = begin + pos_sorted.size();
  for (const EncodedTriple* run = begin; run != end;) {
    const TermId p = run->p;
    run_of[p] = runs.size();
    runs.push_back(static_cast<size_t>(run - begin));
    run = GallopPartition(run, end,
                          [p](const EncodedTriple& t) { return t.p == p; });
  }
  runs.push_back(pos_sorted.size());
  const size_t preds = runs.size() - 1;

  util::ThreadPool caller_only(0);
  util::ThreadPool& workers = pool != nullptr ? *pool : caller_only;
  const size_t chunks = Width(workers);
  // Rows 0..chunks-1 count (s, p) runs of SPO chunks, the rest object
  // changes in POS chunks.
  const size_t stride = RowStride(preds);
  std::vector<size_t> counts(2 * chunks * stride, 0);
  workers.ParallelFor(2 * chunks, [&](size_t task) {
    size_t* const row = counts.data() + task * stride;
    if (task < chunks) {
      const auto [first, last] = Chunk(spo_sorted.size(), chunks, task);
      for (size_t k = first; k < last; ++k) {
        const EncodedTriple& t = spo_sorted[k];
        if (k == 0 || t.s != spo_sorted[k - 1].s ||
            t.p != spo_sorted[k - 1].p) {
          ++row[run_of[t.p]];
        }
      }
    } else {
      const auto [first, last] =
          Chunk(pos_sorted.size(), chunks, task - chunks);
      for (size_t k = first; k < last; ++k) {
        const EncodedTriple& t = pos_sorted[k];
        if (k == 0 || t.p != pos_sorted[k - 1].p ||
            t.o != pos_sorted[k - 1].o) {
          ++row[run_of[t.p]];
        }
      }
    }
  });
  for (size_t r = 0; r < preds; ++r) {
    PredicateStats& st = stats[pos_sorted[runs[r]].p];
    st.triple_count = runs[r + 1] - runs[r];
    for (size_t c = 0; c < chunks; ++c) {
      st.distinct_subjects += counts[c * stride + r];
      st.distinct_objects += counts[(chunks + c) * stride + r];
    }
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
