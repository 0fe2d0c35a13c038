#ifndef RE2XOLAP_RDF_DELTA_LAYER_H_
#define RE2XOLAP_RDF_DELTA_LAYER_H_

// Epoch-chain building blocks for live ingestion: an immutable IndexBase
// (rdf/triple_store.h) plus a stack of immutable sorted delta layers,
// merged at read time behind the IndexRange seam (ROADMAP item 3).
//
// A DeltaLayer is one atomically published ingest batch: inserts and
// tombstoned deletes, each sorted in both stored permutation orders (SPO,
// POS), so a layer answers the same clipped-range probes the base
// indexes do; the OSP view cuts a layer's POS arrays into predicate runs,
// as it cuts the base's. The layer-build invariants (enforced by
// store::Ingestor against the chain being replaced) make merged positions
// exact arithmetic:
//
//   - an insert is never already visible in the chain below, and
//   - a tombstone kills exactly one triple visible in the chain below,
//
// so for any key prefix the number of visible triples is
//   sum(adds <= prefix) - sum(tombstones <= prefix)
// across base + layers, with the per-key count always 0 or 1. MergedRun
// turns that arithmetic into an IndexRange backing: bounds are sums of
// per-source bounds, and Fetch materializes merged windows with
// tombstone annihilation (equal keys across sources cancel in pairs).
//
// Everything in this header is immutable after construction and safe
// for concurrent reads; publication of a new EpochChain is a single
// atomic shared_ptr store in TripleStore.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rdf/index_cursor.h"
#include "rdf/triple.h"
#include "rdf/triple_store.h"

namespace re2xolap::rdf {

/// One sealed ingest batch: sorted insert and tombstone arrays per
/// stored permutation. Immutable once published into an EpochChain.
struct DeltaLayer {
  /// Inserted triples, each array sorted by its permutation's key order
  /// and deduplicated. Both hold the same triple set.
  std::vector<EncodedTriple> add_spo;
  std::vector<EncodedTriple> add_pos;
  /// Tombstones: triples visible in the chain below this layer that this
  /// layer deletes. Same sorting/dedup contract as the inserts.
  std::vector<EncodedTriple> del_spo;
  std::vector<EncodedTriple> del_pos;
  /// Net per-predicate triple-count change (inserts - deletes), applied
  /// to the planner stats when the chain's merged stats are built.
  std::unordered_map<TermId, int64_t> predicate_delta;
  /// Monotone ingest batch number (diagnostics; snapshot round-trips).
  uint64_t batch_id = 0;

  /// The stored arrays of a permutation (kSpo or kPos; the OSP order is
  /// read from add_pos/del_pos by TripleStore's OSP view).
  const std::vector<EncodedTriple>& adds(Perm perm) const {
    assert(perm != Perm::kOsp && "OSP is a view over add_pos");
    return perm == Perm::kSpo ? add_spo : add_pos;
  }
  const std::vector<EncodedTriple>& dels(Perm perm) const {
    assert(perm != Perm::kOsp && "OSP is a view over del_pos");
    return perm == Perm::kSpo ? del_spo : del_pos;
  }

  uint64_t add_count() const { return add_spo.size(); }
  uint64_t del_count() const { return del_spo.size(); }

  /// Recomputes predicate_delta from add_pos/del_pos (used after a
  /// snapshot restore, which serializes only the triple arrays).
  void RebuildPredicateDelta();

  size_t MemoryUsage() const;
};

/// One immutable snapshot of the live store's state: a base plus zero or
/// more delta layers, published atomically per ingest batch / compaction.
/// Built only by MakeEpochChain. Readers pin a chain (TripleStore::ReadPin)
/// for the duration of a query, and every IndexRange read from a chain
/// owns it, so the arrays a range references stay alive until the last
/// range and pin drop it.
struct EpochChain {
  /// The frozen index pair below the layers: the store's first base, a
  /// compaction product or a loaded image. Never null.
  std::shared_ptr<const IndexBase> base;
  /// Delta layers, oldest first. Tombstones in layer k refer to triples
  /// visible in base + layers [0, k).
  std::vector<std::shared_ptr<const DeltaLayer>> layers;
  /// The chain's freeze epoch: every publish (ingest batch with a net
  /// change, compaction) bumps it, so engine cache keys roll over.
  uint64_t epoch = 0;
  /// Total visible triples (base + inserts - deletes).
  uint64_t visible_triples = 0;
  /// Merged planner stats: base stats with each layer's predicate_delta
  /// applied to triple_count. Distinct-subject/object counts stay at the
  /// base values for predicates the base knows (refreshing them exactly
  /// would cost a full scan per publish); predicates born in a delta
  /// layer use triple_count as an upper bound for both.
  std::unordered_map<TermId, PredicateStats> stats;
  /// Totals across layers (gauges, /healthz).
  uint64_t delta_adds = 0;
  uint64_t delta_dels = 0;

  uint64_t depth() const { return layers.size(); }
};

/// The one constructor of an EpochChain: `layers` (oldest first) above
/// `base` at `epoch`, with the merged stats, the visible-triple count and
/// the delta totals derived from them.
std::shared_ptr<const EpochChain> MakeEpochChain(
    std::shared_ptr<const IndexBase> base,
    std::vector<std::shared_ptr<const DeltaLayer>> layers, uint64_t epoch);

/// The K-way merged view a merged IndexRange reads through: one sorted
/// run per source, inserts and base runs as adds, tombstone runs as dels.
/// Sources are the base and per-layer arrays of one permutation, or —
/// for the OSP view — the predicate runs of every POS source, each
/// clipped to the pattern's object; they need not share a clip window,
/// only be sorted in `perm` order. Positions are exact under the
/// layer-build invariants (see file header): size() = sum(adds) -
/// sum(dels), and every bound is the same sum over per-source bounds.
/// Immutable and shared: the IndexRanges handed to executors own it, and
/// it holds the chain its sources alias, so a range outlives chain
/// publication safely.
class MergedRun {
 public:
  /// `adds` must be non-empty; every range must be raw (not merged) and
  /// sorted in `perm` order. `chain` pins the epoch chain the sources
  /// alias (null when they alias a frozen store's base).
  MergedRun(std::vector<IndexRange> adds, std::vector<IndexRange> dels,
            Perm perm, std::shared_ptr<const EpochChain> chain);

  uint64_t size() const { return size_; }
  Perm perm() const { return perm_; }
  /// Process-unique identity for scratch-window matching (never 0).
  uint64_t id() const { return id_; }
  size_t source_count() const { return adds_.size() + dels_.size(); }

  /// Merged LowerBound (upper == false) / UpperBound (upper == true) of
  /// `probe` over the whole run, as a sum of per-source bounds.
  uint64_t Bound(const EncodedTriple& probe, bool upper) const;

  /// Positions `cur` at merged position `pos`: per-source positions plus
  /// the merged position itself. Runs rank bisections over the add
  /// sources, widest candidate window first, until the residual gap is
  /// short, then merges forward over it.
  void Seek(uint64_t pos, MergedCursorState* cur) const;

  /// Advances `cur` by up to `limit` merged triples (annihilating
  /// tombstones), appending them to `out` when non-null. Returns the
  /// number of merged triples advanced.
  uint64_t Advance(MergedCursorState* cur, uint64_t limit,
                   std::vector<EncodedTriple>* out) const;

 private:
  /// Number of merged triples with key < probe, with per-source lower
  /// bounds written to `bounds` (sized source_count, adds then dels).
  uint64_t RankLess(const EncodedTriple& probe,
                    std::vector<uint64_t>* bounds) const;

  std::vector<IndexRange> adds_;
  std::vector<IndexRange> dels_;
  Perm perm_ = Perm::kSpo;
  uint64_t size_ = 0;
  uint64_t id_ = 0;
  std::shared_ptr<const EpochChain> chain_;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_DELTA_LAYER_H_
