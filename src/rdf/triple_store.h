#ifndef RE2XOLAP_RDF_TRIPLE_STORE_H_
#define RE2XOLAP_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/index_cursor.h"
#include "rdf/triple.h"
#include "util/result.h"
#include "util/status.h"

namespace re2xolap::util {
class ThreadPool;
}

namespace re2xolap::rdf {

class CompressedPermutation;
struct DeltaLayer;
struct EpochChain;

/// Per-predicate cardinality statistics used by the query planner for
/// selectivity-ordered join planning.
struct PredicateStats {
  uint64_t triple_count = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

/// Physical representation of the three index permutations.
enum class IndexFormat : uint8_t {
  kRaw = 0,         // sorted EncodedTriple arrays, zero-copy span access
  kCompressed = 1,  // delta/vbyte blocks + skip table (rdf/compressed_index.h)
};

/// Process-wide default, read once from RE2XOLAP_INDEX_FORMAT
/// ("raw" | "compressed"; anything else falls back to raw).
IndexFormat DefaultIndexFormat();

/// Per-predicate statistics from the same deduplicated triples sorted
/// two ways — (s,p,o) and (p,o,s) — the exact computation Freeze() runs
/// over its SPO and POS indexes, exposed for epoch-chain compaction (which
/// folds base + deltas into new sorted arrays and needs fresh stats
/// without a TripleStore). Two linear passes, no sorting: triple and
/// distinct-object counts come from POS runs, distinct subjects from
/// counting (s,p) runs in SPO.
std::unordered_map<TermId, PredicateStats> ComputePredicateStats(
    std::span<const EncodedTriple> spo_sorted,
    std::span<const EncodedTriple> pos_sorted);

/// Heap vs file-backed split of a store's footprint: `heap_bytes` is
/// malloc'd memory (dictionary, owned indexes, stats), `mapped_bytes` the
/// borrowed snapshot image a zero-copy load serves from. Report both —
/// mapped pages are real resident memory under load even though they are
/// evictable.
struct StoreMemory {
  size_t heap_bytes = 0;
  size_t mapped_bytes = 0;
};

/// In-memory RDF triple store with dictionary encoding and three sorted
/// index permutations (SPO, POS, OSP), so that every triple pattern with
/// bound positions maps to a contiguous binary-searchable range.
///
/// Usage: Add() triples (cheap append), then Freeze() once before querying.
/// Further Add() calls invalidate the indexes; Freeze() rebuilds them.
/// This mirrors the paper's setting: the KG is loaded/bootstrapped once and
/// then queried read-only.
///
/// Each permutation is stored in one of two formats behind the IndexRange
/// seam (rdf/index_cursor.h): raw sorted EncodedTriple arrays — owned
/// vectors or spans borrowed from a memory-mapped snapshot image — or the
/// compressed block format of rdf/compressed_index.h (again owned or
/// borrowed). Match() always answers with an IndexRange; raw ranges expose
/// the classic zero-copy spans, compressed ranges decode block-at-a-time
/// into caller scratch. The first mutation (Add/AddEncoded/Freeze)
/// transparently materializes owned raw storage, so the mutable API keeps
/// working after any kind of load.
///
/// Concurrent-read contract: after Freeze() returns, every const member
/// (Match, CountMatches, Exists, Lookup, term, predicate_stats, ...) is
/// safe to call from any number of threads simultaneously — the read paths
/// are pure binary searches / hash lookups over immutable storage, and
/// compressed-block decoding goes through thread-local or caller-owned
/// scratch. The contract is voided by any concurrent mutation: Add(),
/// AddEncoded(), Intern(), and Freeze() must never overlap a read. Debug
/// builds enforce this with an active-reader counter asserted inside the
/// mutators (see ReadGuard below).
class TripleStore {
 public:
  TripleStore();
  ~TripleStore();
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// --- Loading -----------------------------------------------------------

  /// Interns the terms and appends the triple. Duplicate triples are kept
  /// (deduplicated at Freeze()).
  void Add(const Term& s, const Term& p, const Term& o);

  /// Appends an already-encoded triple; the ids must come from dictionary().
  void AddEncoded(EncodedTriple t);

  /// Sorts and deduplicates the three index permutations and computes
  /// predicate statistics; when index_format() is kCompressed the sorted
  /// permutations are then compressed and the raw arrays released. Must be
  /// called after loading, before querying. SPO comes from one stable
  /// counting sort by subject plus a sort of each subject's run by (p, o);
  /// OSP and POS from one counting sort each over the dense term ids. The
  /// build is O(n + |dictionary| + sum of k log k) over subject runs of
  /// length k — near linear when subjects carry few triples each, O(n log
  /// n) in the worst case of one shared subject. When `pool` is non-null
  /// the three permutations are compressed as concurrent tasks; the
  /// resulting store is bit-identical to a serial Freeze().
  void Freeze(util::ThreadPool* pool = nullptr);

  bool frozen() const { return frozen_; }

  /// Monotone counter bumped by every Freeze(). Caches keyed on query
  /// results (e.g. engine::QueryEngine) include the epoch in their keys so
  /// a re-Freeze() — the only way new data becomes visible — invalidates
  /// every entry derived from the previous index state. 0 = never frozen.
  /// Snapshot restore (AdoptFrozen*) reinstalls the epoch the image was
  /// saved at, so cache keys behave identically across a save/load cycle.
  /// Live stores (EnterLive) answer with the current epoch chain's epoch,
  /// which every published ingest batch / compaction bumps.
  uint64_t freeze_epoch() const;

  /// --- Live ingestion (rdf/delta_layer.h, src/store/) ---------------------

  /// Switches a frozen store into live mode: the frozen indexes become the
  /// immutable base of an epoch chain, the dictionary enters its
  /// concurrent-append mode, and new data arrives as delta layers
  /// published via PublishChain() (store::Ingestor drives this). Live
  /// stores reject the freeze-once mutators (Add/Freeze/Adopt*); reads
  /// keep the frozen-store concurrency contract and additionally tolerate
  /// concurrent chain publication — a query pins one chain for its
  /// duration with ReadPin. Irreversible for the store's lifetime.
  void EnterLive();

  bool live() const { return live_.load(std::memory_order_acquire); }

  /// The chain the calling thread should read: the innermost ReadPin's
  /// chain when one is active on this thread, else a fresh atomic load of
  /// the latest published chain. Null on non-live stores.
  std::shared_ptr<const EpochChain> live_chain() const;

  /// Atomically replaces the current chain (ingest batch publication,
  /// compaction). In-flight readers keep serving their pinned chain; new
  /// ReadPins see `chain`. Refreshes the store.delta.* gauges.
  void PublishChain(std::shared_ptr<const EpochChain> chain);

  /// Rebuilds and publishes a chain over the store's own frozen base from
  /// snapshot-restored delta layers: merged stats, visible-triple count
  /// and delta totals are recomputed here, so the loader only supplies
  /// the layers and the epoch the image was saved at. Requires live().
  void RestoreChain(std::vector<std::shared_ptr<const DeltaLayer>> layers,
                    uint64_t epoch);

  /// Number of delta layers above the base (0 on non-live stores).
  uint64_t chain_depth() const;

  /// The whole permutation as a base-plus-deltas view of an explicit
  /// chain (rather than the calling thread's pinned one). Compaction
  /// folds a snapshot of the chain while newer batches keep publishing,
  /// so it needs ranges over exactly the chain it snapshotted. The
  /// returned range keeps `chain` alive.
  IndexRange ChainPermutationRange(std::shared_ptr<const EpochChain> chain,
                                   Perm perm) const;

  /// Point-in-time chain summary for /healthz and the introspection
  /// report. `live == false` zeroes the rest.
  struct LiveInfo {
    bool live = false;
    uint64_t epoch = 0;
    uint64_t chain_depth = 0;
    uint64_t delta_adds = 0;
    uint64_t delta_dels = 0;
    uint64_t visible_triples = 0;
    bool compacted_base = false;  // chain base is a compaction product
  };
  LiveInfo live_info() const;

  /// Pins the current epoch chain for the calling thread: every store
  /// read between construction and destruction (Match, size,
  /// freeze_epoch, stats, ...) answers from the pinned chain even if
  /// ingest or compaction publishes newer chains meanwhile — one query
  /// sees one epoch. No-op on non-live stores. Scoped, per-thread,
  /// nestable (innermost pin wins).
  class ReadPin {
   public:
    explicit ReadPin(const TripleStore& store);
    ~ReadPin();
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

   private:
    const TripleStore* store_ = nullptr;  // null => store was not live
  };

  /// --- Index format -------------------------------------------------------

  /// The format the next Freeze() will build. Defaults to
  /// DefaultIndexFormat(); snapshot adoption serves whatever format the
  /// image holds regardless of this setting.
  IndexFormat index_format() const { return format_; }
  void set_index_format(IndexFormat f) { format_ = f; }

  /// True when the store currently serves compressed block indexes.
  bool compressed_index() const { return spo_blocks_ != nullptr; }

  /// --- Snapshot restore (src/storage/) -----------------------------------

  /// Installs a fully built frozen image: the three arrays must already be
  /// sorted in their permutation orders and deduplicated, `stats` must
  /// match them, and every id must be interned in dictionary(). Marks the
  /// store frozen at `epoch`. Replaces any previous triple data.
  void AdoptFrozen(std::vector<EncodedTriple> spo,
                   std::vector<EncodedTriple> pos,
                   std::vector<EncodedTriple> osp,
                   std::unordered_map<TermId, PredicateStats> stats,
                   uint64_t epoch);

  /// Zero-copy variant: the spans alias externally owned memory (typically
  /// a memory-mapped snapshot) which `keepalive` keeps valid; the store
  /// holds the keepalive until destruction or the first mutation (which
  /// materializes owned copies first). Same preconditions as AdoptFrozen.
  void AdoptFrozenView(std::span<const EncodedTriple> spo,
                       std::span<const EncodedTriple> pos,
                       std::span<const EncodedTriple> osp,
                       std::unordered_map<TermId, PredicateStats> stats,
                       uint64_t epoch, std::shared_ptr<const void> keepalive);

  /// Compressed-format adoption: the three permutations arrive as
  /// CompressedPermutation objects whose skip/payload storage is either
  /// owned or borrowed from `keepalive` (which may be null when all three
  /// own their storage). storage/ validates every block before calling
  /// this. Same frozen-at-epoch semantics as AdoptFrozen.
  void AdoptFrozenCompressed(CompressedPermutation spo,
                             CompressedPermutation pos,
                             CompressedPermutation osp,
                             std::unordered_map<TermId, PredicateStats> stats,
                             uint64_t epoch,
                             std::shared_ptr<const void> keepalive);

  /// True while the indexes borrow a loaded snapshot image — mapped file
  /// or heap buffer (diagnostics; flips to false when a mutation
  /// materializes owned copies).
  bool borrows_snapshot() const { return keepalive_ != nullptr; }

  /// --- Term access -------------------------------------------------------

  Dictionary& dictionary() { return dict_; }
  const Dictionary& dictionary() const { return dict_; }

  /// Interns (or finds) a term id. Mutates the dictionary: must not be
  /// called while other threads read a frozen store (query paths use the
  /// read-only Lookup() instead).
  TermId Intern(const Term& t) {
    assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
           "TripleStore::Intern() during concurrent reads of a frozen store");
    assert(!live() &&
           "use dictionary().InternLive() on live stores (Intern is the "
           "freeze-once mutator)");
    return dict_.Intern(t);
  }
  /// Finds an existing term id; kInvalidTermId when absent.
  TermId Lookup(const Term& t) const { return dict_.Lookup(t); }
  const Term& term(TermId id) const { return dict_.term(id); }

  /// --- Matching (requires frozen()) --------------------------------------

  /// All triples matching the pattern, as a contiguous sorted range inside
  /// one of the index permutations. Triple component order is always s/p/o
  /// regardless of which permutation serves it. The range is valid until
  /// the store's next mutation (exactly the old span lifetime rule).
  IndexRange Match(const TriplePattern& pattern) const;

  /// Number of triples matching a pattern. Pure index-range arithmetic:
  /// compressed stores answer from the skip table plus at most two block
  /// decodes, raw stores from two binary searches.
  uint64_t CountMatches(const TriplePattern& pattern) const;

  /// True if at least one triple matches.
  bool Exists(const TriplePattern& pattern) const {
    return !Match(pattern).empty();
  }

  /// The whole permutation as an IndexRange (merge joins, full scans).
  IndexRange PermutationRange(Perm perm) const;

  /// Distinct predicate ids appearing on triples with subject `s`.
  std::vector<TermId> PredicatesOfSubject(TermId s) const;

  /// Distinct predicate ids appearing on triples with object `o`.
  std::vector<TermId> PredicatesOfObject(TermId o) const;

  /// Distinct predicates in the whole store.
  std::vector<TermId> AllPredicates() const;

  /// Statistics for a predicate (zeroes for unknown predicates).
  PredicateStats predicate_stats(TermId p) const;

  /// All predicate statistics (snapshot serialization).
  const std::unordered_map<TermId, PredicateStats>& all_predicate_stats()
      const {
    return stats_;
  }

  /// The three sorted index permutations as contiguous spans (canonical
  /// triple list = spo_span()). Raw-format stores only — compressed stores
  /// have no contiguous triple arrays (use PermutationRange / the snapshot
  /// writer's compressed path); calling these on one is a programming
  /// error. Require frozen().
  std::span<const EncodedTriple> spo_span() const {
    assert(!compressed_index());
    return SpoView();
  }
  std::span<const EncodedTriple> pos_span() const {
    assert(!compressed_index());
    return PosView();
  }
  std::span<const EncodedTriple> osp_span() const {
    assert(!compressed_index());
    return OspView();
  }

  /// Compressed permutations (null on raw-format stores). Snapshot
  /// serialization reads the skip/payload parts through these.
  const CompressedPermutation* spo_blocks() const { return spo_blocks_.get(); }
  const CompressedPermutation* pos_blocks() const { return pos_blocks_.get(); }
  const CompressedPermutation* osp_blocks() const { return osp_blocks_.get(); }

  /// --- Size accounting ----------------------------------------------------

  uint64_t size() const;

  /// Heap vs mapped breakdown (see StoreMemory). A zero-copy loaded store
  /// reports its borrowed image under mapped_bytes instead of silently
  /// dropping it from the total.
  StoreMemory MemoryBreakdown() const;

  /// Total footprint in bytes: heap + mapped.
  size_t MemoryUsage() const {
    StoreMemory m = MemoryBreakdown();
    return m.heap_bytes + m.mapped_bytes;
  }

 private:
  /// Debug-only witness that a read is in flight: Match() holds one for
  /// the duration of the index lookup, and the mutators assert the count
  /// is zero. This catches "Add()/Intern() raced a query" bugs in tests
  /// without imposing any cost on release builds.
  class ReadGuard {
   public:
#ifndef NDEBUG
    explicit ReadGuard(const TripleStore* s) : store_(s) {
      store_->active_readers_.fetch_add(1, std::memory_order_relaxed);
    }
    ~ReadGuard() {
      store_->active_readers_.fetch_sub(1, std::memory_order_relaxed);
    }
   private:
    const TripleStore* store_;
#else
    explicit ReadGuard(const TripleStore*) {}
#endif
  };

  /// Owned-or-borrowed raw view selection. While keepalive_ is set (and
  /// the store is raw-format) the spans alias the mapped image; otherwise
  /// they are the owned vectors.
  std::span<const EncodedTriple> SpoView() const {
    return keepalive_ ? spo_view_ : std::span<const EncodedTriple>(spo_);
  }
  std::span<const EncodedTriple> PosView() const {
    return keepalive_ ? pos_view_ : std::span<const EncodedTriple>(pos_);
  }
  std::span<const EncodedTriple> OspView() const {
    return keepalive_ ? osp_view_ : std::span<const EncodedTriple>(osp_);
  }

  /// Converts any borrowed or compressed representation back into owned
  /// raw vectors and drops the keepalive, so mutation can proceed on owned
  /// storage. No-op for owned raw stores.
  void Materialize();

  /// Freeze() phases: sort and deduplicate the permutations, compute the
  /// predicate stats, and (compressed format) encode the blocks.
  void BuildIndexes();
  void ComputeStats();
  void CompressIndexes(util::ThreadPool* pool);
  /// PermutationRange over the store's own frozen arrays/blocks, ignoring
  /// any epoch chain (the chain's base when EpochChain::base is null).
  IndexRange ClassicPermutationRange(Perm perm) const;
  /// Live read path: the whole permutation as a base-plus-deltas view of
  /// the calling thread's pinned chain (single-source fast path when the
  /// chain has no layers and the store's own arrays are the base).
  IndexRange LivePermutationRange(Perm perm) const;
  /// The chain reads on this thread should use (see live_chain()).
  std::shared_ptr<const EpochChain> PinnedChain() const;
  /// size() of the store's own frozen arrays (the chain-base size).
  uint64_t ClassicSize() const;
  /// Refreshes store.epoch / store.delta.* / store.triples after a chain
  /// publication.
  void UpdateChainGauges(const EpochChain& chain) const;
  /// Refreshes the store.* gauges (triples, heap/mapped bytes, per-index
  /// bytes) after any freeze/adopt.
  void UpdateStoreGauges() const;
  void ResetIndexState();

  Dictionary dict_;
  // The three permutations each store full (s,p,o) triples sorted by a
  // different key order. spo_ doubles as the canonical triple list.
  std::vector<EncodedTriple> spo_;  // sorted by (s, p, o)
  std::vector<EncodedTriple> pos_;  // sorted by (p, o, s)
  std::vector<EncodedTriple> osp_;  // sorted by (o, s, p)
  // Borrowed-index state (AdoptFrozenView): spans into `keepalive_`.
  std::span<const EncodedTriple> spo_view_;
  std::span<const EncodedTriple> pos_view_;
  std::span<const EncodedTriple> osp_view_;
  // Compressed-format state (Freeze under kCompressed / snapshot
  // adoption); when set, the raw vectors/views above are empty.
  std::unique_ptr<CompressedPermutation> spo_blocks_;
  std::unique_ptr<CompressedPermutation> pos_blocks_;
  std::unique_ptr<CompressedPermutation> osp_blocks_;
  std::shared_ptr<const void> keepalive_;
  std::unordered_map<TermId, PredicateStats> stats_;
  IndexFormat format_ = IndexFormat::kRaw;
  bool frozen_ = false;
  uint64_t freeze_epoch_ = 0;
  // Live-mode state (EnterLive): the current epoch chain, replaced
  // atomically by every publication. live_ flips true exactly once.
  std::atomic<bool> live_{false};
  std::atomic<std::shared_ptr<const EpochChain>> chain_;
  mutable std::atomic<int> active_readers_{0};
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_TRIPLE_STORE_H_
