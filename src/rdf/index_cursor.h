#ifndef RE2XOLAP_RDF_INDEX_CURSOR_H_
#define RE2XOLAP_RDF_INDEX_CURSOR_H_

// Index-cursor abstraction over the three triple orders.
//
// TripleStore::Match() answers every pattern with an IndexRange: a
// sorted run of triples in one permutation order. The range is backed
// either by a sorted EncodedTriple array (a zero-copy span into an
// IndexBase, built vectors or a mapped snapshot image, or into a delta
// layer) or by the K-way MergedRun of rdf/delta_layer.h: the OSP order
// merged from POS predicate runs, and on live stores the base-plus-delta
// view. Consumers that only iterate use the range-for iterator or
// IndexCursor::NextChunk; the
// executors additionally seek and gallop via sentinel-triple probes.
//
// Position convention: all positions are relative to the range (0 ..
// size()). Probes are full sentinel triples compared with the permutation's
// total order — callers bake the pattern's bound prefix into the sentinel
// and fill unbound trailing components with 0 / kMaxTermId, exactly like
// the store's own EqualRange computation.

#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "rdf/triple.h"

namespace re2xolap::rdf {

class MergedRun;

/// The three triple orders. SPO and POS are stored arrays; OSP is read
/// as a merge of POS predicate runs (TripleStore::Match).
enum class Perm : uint8_t { kSpo = 0, kPos = 1, kOsp = 2 };

inline constexpr TermId kMaxTermId = ~static_cast<TermId>(0);

/// Key comparators for the three permutations (total orders over full
/// triples). Centralized here so the store, the executors, the delta
/// layers and the snapshot validator agree on one definition.
struct SpoLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct PosLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};
struct OspLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.o != b.o) return a.o < b.o;
    if (a.s != b.s) return a.s < b.s;
    return a.p < b.p;
  }
};

/// a < b under the given permutation's key order.
inline bool PermLess(Perm perm, const EncodedTriple& a,
                     const EncodedTriple& b) {
  switch (perm) {
    case Perm::kSpo:
      return SpoLess()(a, b);
    case Perm::kPos:
      return PosLess()(a, b);
    default:
      return OspLess()(a, b);
  }
}

/// Per-source merge positions of a MergedRun reader (adds first, then
/// tombstone sources), plus the merged position they correspond to.
/// Lives inside IndexBlockScratch so a cursor's scratch can continue a
/// sequential merged scan without re-seeking.
struct MergedCursorState {
  uint64_t merged_pos = 0;
  std::vector<uint64_t> src;
};

/// Caller-owned scratch for reading merged ranges (live stores,
/// rdf/delta_layer.h): `merged_buf` holds the materialized window starting
/// at absolute merged position `merged_win_start` of the run identified by
/// `merged_id`, and `merged_cur` sits at the window's end so sequential
/// Fetch calls continue the K-way merge without a rank re-seek. The buffer
/// is owned by the scratch, so handed-out spans stay valid until the
/// scratch is reused. Reusable across ranges: the run id prevents stale
/// hits when a range of another run is attached. Raw ranges never touch
/// it.
struct IndexBlockScratch {
  uint64_t merged_id = 0;  // MergedRun::id(); 0 = no window
  uint64_t merged_win_start = 0;
  std::vector<EncodedTriple> merged_buf;
  MergedCursorState merged_cur;
};

/// A contiguous sorted run of triples inside one permutation. Cheap value
/// type (pointer + offsets + one owner). A range read from a live store's
/// epoch chain owns what it reads, so it outlives any later publication;
/// a range over a frozen store owns nothing and, like the spans Match()
/// used to return, must not outlive its TripleStore or the store's next
/// mutation.
class IndexRange {
 public:
  IndexRange() = default;

  /// Raw backing: the span IS the range. `owner`, when set, keeps the
  /// span's memory valid (a live store's epoch chain).
  static IndexRange FromSpan(std::span<const EncodedTriple> s, Perm perm,
                             std::shared_ptr<const void> owner = nullptr) {
    IndexRange r;
    r.data_ = s.data();
    r.owner_ = std::move(owner);
    r.end_ = s.size();
    r.perm_ = perm;
    return r;
  }

  /// Merged backing: positions [begin, end) of `run`, the K-way view of
  /// rdf/delta_layer.h. The range owns the run — and through it the
  /// epoch chain the sources alias — for as long as any copy of it
  /// exists.
  static IndexRange FromMerged(std::shared_ptr<const MergedRun> run,
                               uint64_t begin, uint64_t end, Perm perm) {
    IndexRange r;
    r.run_ = run.get();
    r.owner_ = std::move(run);
    r.merged_ = true;
    r.begin_ = begin;
    r.end_ = end;
    r.perm_ = perm;
    return r;
  }

  uint64_t size() const { return end_ - begin_; }
  bool empty() const { return end_ == begin_; }
  bool merged() const { return merged_; }
  Perm perm() const { return perm_; }

  /// Zero-copy access to a raw-backed range. Precondition: !merged().
  std::span<const EncodedTriple> raw() const {
    assert(!merged());
    return {data_ + begin_, static_cast<size_t>(end_ - begin_)};
  }

  /// Returns up to `limit` triples starting at relative position `pos`
  /// (limit 0 = as many as available). Raw ranges return a zero-copy
  /// subspan covering the whole remainder (capped by limit); merged ranges
  /// return a slice of the scratch's materialized window, so the chunk
  /// additionally ends at the window's end. The returned span stays valid
  /// until `scratch` is reused. `scratch` may be null (merged ranges then
  /// use a thread-local scratch).
  std::span<const EncodedTriple> Fetch(uint64_t pos, uint64_t limit,
                                       IndexBlockScratch* scratch) const;

  /// Triple at relative position i. On merged ranges this merges via a
  /// thread-local scratch — fine for cold paths and point lookups, use
  /// Fetch/iterators for scans.
  EncodedTriple operator[](uint64_t i) const;
  EncodedTriple front() const { return (*this)[0]; }
  EncodedTriple back() const { return (*this)[size() - 1]; }

  /// First relative position whose triple is >= probe (LowerBound) or >
  /// probe (UpperBound) in the permutation's key order.
  uint64_t LowerBound(const EncodedTriple& probe) const;
  uint64_t UpperBound(const EncodedTriple& probe) const;

  /// Galloping variants for merge joins: start at relative position `from`
  /// and double the step until the probe is bracketed. Merged ranges sum
  /// per-source bounds and use `from` only as a clamp.
  uint64_t GallopLowerBound(uint64_t from, const EncodedTriple& probe) const;
  uint64_t GallopUpperBound(uint64_t from, const EncodedTriple& probe) const;

  /// Sub-range [lo, hi) in relative positions.
  IndexRange Slice(uint64_t lo, uint64_t hi) const {
    assert(lo <= hi && hi <= size());
    IndexRange r = *this;
    r.begin_ = begin_ + lo;
    r.end_ = begin_ + hi;
    return r;
  }

  /// Input iterator for range-for consumption (profiling scans, exports,
  /// other cold paths). Each begin() of a merged range allocates one
  /// scratch; the hot executors use Fetch with pooled scratch instead.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = EncodedTriple;
    using difference_type = std::ptrdiff_t;
    using pointer = const EncodedTriple*;
    using reference = const EncodedTriple&;

    Iterator() = default;
    reference operator*() const { return chunk_[pos_ - chunk_start_]; }
    pointer operator->() const { return &**this; }
    Iterator& operator++() {
      if (++pos_ >= chunk_start_ + chunk_.size()) Refill();
      return *this;
    }
    Iterator operator++(int) {
      Iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.pos_ != b.pos_;
    }

   private:
    friend class IndexRange;
    Iterator(const IndexRange* r, uint64_t pos);
    void Refill();

    const IndexRange* range_ = nullptr;
    uint64_t pos_ = 0;
    std::span<const EncodedTriple> chunk_;
    uint64_t chunk_start_ = 0;
    std::shared_ptr<IndexBlockScratch> scratch_;
  };

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  std::span<const EncodedTriple> FetchMerged(uint64_t pos, uint64_t limit,
                                             IndexBlockScratch* scratch) const;

  union {
    const EncodedTriple* data_ = nullptr;  // raw backing base
    const MergedRun* run_;                 // merged backing, in owner_
  };
  // What the range reads: the MergedRun, or the chain a raw span aliases.
  // Null on a frozen store, and copying a null shared_ptr is free.
  std::shared_ptr<const void> owner_;
  uint64_t begin_ = 0;  // absolute start position
  uint64_t end_ = 0;    // absolute end position
  Perm perm_ = Perm::kSpo;
  bool merged_ = false;
};

/// Stateful forward reader over an IndexRange: seek + chunk-at-a-time
/// reads through owned scratch. Executors keep one per plan step /
/// recursion depth so the scratch allocates once and is reused for every
/// binding; Attach() re-targets the cursor without releasing it.
class IndexCursor {
 public:
  IndexCursor() = default;
  explicit IndexCursor(IndexRange range) { Attach(range); }

  void Attach(IndexRange range) {
    range_ = range;
    pos_ = 0;
  }

  const IndexRange& range() const { return range_; }
  uint64_t position() const { return pos_; }
  bool done() const { return pos_ >= range_.size(); }
  void SeekTo(uint64_t pos) { pos_ = pos; }

  /// Advances past every triple < probe (>= semantics) or <= probe
  /// (greater semantics), galloping forward from the current position.
  void SeekLowerBound(const EncodedTriple& probe) {
    pos_ = range_.GallopLowerBound(pos_, probe);
  }
  void SeekUpperBound(const EncodedTriple& probe) {
    pos_ = range_.GallopUpperBound(pos_, probe);
  }

  /// Next chunk of at most `limit` triples (0 = no cap), advancing the
  /// cursor by the chunk's length. Empty chunk <=> done(). The span stays
  /// valid until the next NextChunk/Seek* call on this cursor.
  std::span<const EncodedTriple> NextChunk(uint64_t limit = 0) {
    std::span<const EncodedTriple> chunk = range_.Fetch(pos_, limit, &scratch_);
    pos_ += chunk.size();
    return chunk;
  }

  IndexBlockScratch* scratch() { return &scratch_; }

 private:
  IndexRange range_;
  uint64_t pos_ = 0;
  IndexBlockScratch scratch_;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_INDEX_CURSOR_H_
