#include "rdf/index_cursor.h"

#include <algorithm>

#include "rdf/delta_layer.h"

namespace re2xolap::rdf {

namespace {

// Shared fallback scratch for merged reads without a caller scratch
// (IndexRange::operator[], cold paths). Thread-local, so the
// concurrent-read contract of TripleStore holds for live stores too.
thread_local IndexBlockScratch t_point_scratch;

// Galloping partition point over a raw span: first position in [from, n)
// where `before` flips to false; n when it never does. `before` must be
// monotone (true prefix, false suffix) — which PermLess against a fixed
// probe is on a sorted permutation.
template <typename Before>
uint64_t GallopSpan(std::span<const EncodedTriple> s, uint64_t from,
                    Before before) {
  const uint64_t n = s.size();
  if (from >= n) return n;
  if (!before(s[from])) return from;
  uint64_t bound = 1;
  while (from + bound < n && before(s[from + bound])) bound <<= 1;
  const uint64_t lo = from + bound / 2;  // before(s[lo]) holds
  const uint64_t hi = std::min(from + bound, n);
  return static_cast<uint64_t>(
      std::partition_point(s.begin() + lo, s.begin() + hi, before) -
      s.begin());
}

}  // namespace

std::span<const EncodedTriple> IndexRange::Fetch(
    uint64_t pos, uint64_t limit, IndexBlockScratch* scratch) const {
  if (pos >= size()) return {};
  uint64_t n = size() - pos;
  if (limit != 0 && limit < n) n = limit;
  if (merged()) return FetchMerged(pos, n, scratch);
  return {data_ + begin_ + pos, static_cast<size_t>(n)};
}

// Merged window materialization: serve from the scratch's window when it
// covers `pos`, continue the K-way merge when `pos` is the window's end,
// and otherwise rank-seek to `pos` cold. `limit` is already clipped to
// the range's remainder by Fetch.
std::span<const EncodedTriple> IndexRange::FetchMerged(
    uint64_t pos, uint64_t limit, IndexBlockScratch* scratch) const {
  // Window size: enough that sequential scans amortize the per-window
  // source setup, small enough to stay cache-resident.
  constexpr uint64_t kMergedWindow = 1024;
  if (scratch == nullptr) scratch = &t_point_scratch;
  const MergedRun& run = *run_;
  const uint64_t abs = begin_ + pos;
  const bool same_run = scratch->merged_id == run.id();
  if (same_run && abs >= scratch->merged_win_start &&
      abs < scratch->merged_win_start + scratch->merged_buf.size()) {
    const uint64_t in_win = abs - scratch->merged_win_start;
    const uint64_t take =
        std::min<uint64_t>(limit, scratch->merged_buf.size() - in_win);
    return {scratch->merged_buf.data() + in_win, static_cast<size_t>(take)};
  }
  if (!same_run || scratch->merged_cur.merged_pos != abs) {
    run.Seek(abs, &scratch->merged_cur);
    scratch->merged_id = run.id();
  }
  scratch->merged_buf.clear();
  scratch->merged_win_start = abs;
  const uint64_t want =
      std::max<uint64_t>(std::min<uint64_t>(run.size() - abs, kMergedWindow),
                         std::min<uint64_t>(limit, kMergedWindow));
  run.Advance(&scratch->merged_cur, want, &scratch->merged_buf);
  const uint64_t take =
      std::min<uint64_t>(limit, scratch->merged_buf.size());
  return {scratch->merged_buf.data(), static_cast<size_t>(take)};
}

EncodedTriple IndexRange::operator[](uint64_t i) const {
  assert(i < size());
  if (merged()) return FetchMerged(i, 1, nullptr)[0];
  return data_[begin_ + i];
}

uint64_t IndexRange::LowerBound(const EncodedTriple& probe) const {
  return GallopLowerBound(0, probe);
}

uint64_t IndexRange::UpperBound(const EncodedTriple& probe) const {
  return GallopUpperBound(0, probe);
}

uint64_t IndexRange::GallopLowerBound(uint64_t from,
                                      const EncodedTriple& probe) const {
  if (merged()) {
    // Merged bounds are sums of per-source bounds (exact under the
    // delta-layer invariants); `from` only clamps.
    const uint64_t abs =
        std::clamp(run_->Bound(probe, /*upper=*/false), begin_ + from, end_);
    return abs - begin_;
  }
  const Perm perm = perm_;
  return GallopSpan(raw(), from, [&probe, perm](const EncodedTriple& t) {
    return PermLess(perm, t, probe);
  });
}

uint64_t IndexRange::GallopUpperBound(uint64_t from,
                                      const EncodedTriple& probe) const {
  if (merged()) {
    const uint64_t abs =
        std::clamp(run_->Bound(probe, /*upper=*/true), begin_ + from, end_);
    return abs - begin_;
  }
  const Perm perm = perm_;
  return GallopSpan(raw(), from, [&probe, perm](const EncodedTriple& t) {
    return !PermLess(perm, probe, t);
  });
}

IndexRange::Iterator::Iterator(const IndexRange* r, uint64_t pos)
    : range_(r), pos_(pos) {
  Refill();
}

void IndexRange::Iterator::Refill() {
  chunk_start_ = pos_;
  if (pos_ >= range_->size()) {
    chunk_ = {};
    return;
  }
  if (range_->merged() && scratch_ == nullptr) {
    scratch_ = std::make_shared<IndexBlockScratch>();
  }
  chunk_ = range_->Fetch(pos_, 0, scratch_.get());
}

}  // namespace re2xolap::rdf
