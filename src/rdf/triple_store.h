#ifndef RE2XOLAP_RDF_TRIPLE_STORE_H_
#define RE2XOLAP_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
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
}  // namespace re2xolap::util

namespace re2xolap::rdf {

struct DeltaLayer;
struct EpochChain;

/// Per-predicate cardinality statistics used by the query planner for
/// selectivity-ordered join planning.
struct PredicateStats {
  uint64_t triple_count = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

/// Per-predicate statistics from the same deduplicated triples sorted
/// two ways — (s,p,o) and (p,o,s) — the exact computation Freeze() runs
/// over its SPO and POS indexes, exposed for epoch-chain compaction (which
/// folds base + deltas into new sorted arrays and needs fresh stats
/// without a TripleStore). Two linear passes, no sorting: triple and
/// distinct-object counts come from POS runs, distinct subjects from
/// counting (s,p) runs in SPO. Both passes split into chunks that run on
/// `pool` (null: the calling thread alone); the result does not depend
/// on the pool.
std::unordered_map<TermId, PredicateStats> ComputePredicateStats(
    std::span<const EncodedTriple> spo_sorted,
    std::span<const EncodedTriple> pos_sorted,
    util::ThreadPool* pool = nullptr);

/// Threads for one pass over `triples` triples of a load buffer, the
/// rule Freeze() and qb::Generate() size their pools by: one per core, at
/// most 8, and the calling thread alone below 2^16 triples, where starting
/// threads costs more than it saves.
size_t LoadThreads(size_t triples);

/// Heap vs file-backed split of a store's footprint: `heap_bytes` is
/// malloc'd memory (dictionary, owned indexes, stats), `mapped_bytes` the
/// borrowed snapshot image a zero-copy load serves from. Report both —
/// mapped pages are real resident memory under load even though they are
/// evictable.
struct StoreMemory {
  size_t heap_bytes = 0;
  size_t mapped_bytes = 0;
};

/// The one immutable holder of a frozen index pair: the SPO and POS
/// arrays, their predicate statistics and the owner that keeps the arrays
/// valid. Freeze() and compaction build one over vectors they move in
/// (never copy); AdoptFrozenView() builds one over a loaded snapshot
/// image. A frozen store reads its own base; a live store's EpochChain
/// (rdf/delta_layer.h) always points at one, so a compacted base is read
/// exactly like the store's first one.
struct IndexBase {
  std::span<const EncodedTriple> spo;  // sorted by (s, p, o)
  std::span<const EncodedTriple> pos;  // sorted by (p, o, s)
  /// Keeps `spo` and `pos` valid: the built vectors, or the image.
  std::shared_ptr<const void> owner;
  std::unordered_map<TermId, PredicateStats> stats;
  /// True when the arrays alias a loaded snapshot image (reported as
  /// mapped bytes) rather than vectors built in this process.
  bool borrowed = false;

  /// A base owning freshly built, sorted and deduplicated arrays.
  static std::shared_ptr<const IndexBase> Build(
      TripleVector spo, TripleVector pos,
      std::unordered_map<TermId, PredicateStats> stats);

  /// Adds the arrays (heap or mapped) and the stats (heap) to `m`.
  void AddMemory(StoreMemory* m) const;
};

/// In-memory RDF triple store with dictionary encoding and two stored
/// index permutations (SPO, POS). The third order, OSP, is a view over
/// POS: for a fixed predicate a POS run is already in (o, s) order, so a
/// K-way merge of the per-predicate runs (clipped to a bound object) is
/// exactly the OSP sequence. Every triple pattern therefore maps to one
/// sorted range: a contiguous slice of SPO or POS, or that merge.
///
/// Usage: Add() triples (cheap append), then Freeze() once before querying.
/// Further Add() calls invalidate the indexes; Freeze() rebuilds them.
/// This mirrors the paper's setting: the KG is loaded/bootstrapped once and
/// then queried read-only.
///
/// The two stored permutations live in one IndexBase: vectors Freeze()
/// built, or spans into a loaded snapshot image. Match() answers with an
/// IndexRange (rdf/index_cursor.h) over it — a zero-copy span, or a merged
/// view (the OSP order over several predicate runs, or on a live store the
/// base plus its delta layers). The first mutation (Add/AddEncoded/Freeze)
/// copies the base back into the load buffer, so the mutable API keeps
/// working after a zero-copy load.
///
/// Concurrent-read contract: after Freeze() returns, every const member
/// (Match, CountMatches, Exists, Lookup, term, predicate_stats, ...) is
/// safe to call from any number of threads simultaneously — the read paths
/// are pure binary searches / hash lookups over immutable storage, and
/// merged reads go through thread-local or caller-owned scratch. The
/// contract is voided by any concurrent mutation: Add(), AddEncoded(),
/// Intern(), and Freeze() must never overlap a read. Debug builds enforce
/// this with an active-reader counter asserted inside the mutators (see
/// ReadGuard below).
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
  /// Inline: a generator or parser appends every triple through it.
  void AddEncoded(EncodedTriple t) {
    assert(dict_.IsValid(t.s) && dict_.IsValid(t.p) && dict_.IsValid(t.o));
    assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
           "TripleStore::Add() during concurrent reads of a frozen store");
    assert(!live() && "live stores mutate via store::Ingestor, not Add()");
    if (base_ != nullptr) Reopen();
    pending_.push_back(t);
  }

  /// Pre-sizes the unsorted triple list for `triples` Add()s in total, so
  /// a loader that knows its count appends without regrowing the list.
  void Reserve(size_t triples);

  /// Appends `n` unwritten triples inside the capacity Reserve() made
  /// (asserted: a regrowth would copy the whole list) and returns them, so
  /// a loader can fill its slots out of order or from several threads.
  /// The caller must write every slot with ids from dictionary() before
  /// Freeze(), which asserts it in debug builds; no AddEncoded() checks
  /// run on them.
  std::span<EncodedTriple> AppendUnwritten(size_t n);

  /// Sorts and deduplicates the two stored permutations and computes
  /// predicate statistics. Must be called after loading, before querying.
  /// SPO comes from a counting sort by subject plus a sort of each
  /// subject's run by (p, o); POS from a stable counting sort by predicate
  /// over SPO plus a stable sort by object inside each predicate run. The
  /// build is O(n + |dictionary| + sum of k log k) over subject runs of
  /// length k — near linear when subjects carry few triples each,
  /// O(n log n) in the worst case of one shared subject. It runs on a
  /// thread pool Freeze() owns, sized by LoadThreads(). The bytes do not
  /// depend on the thread count. Peak memory is two copies of the
  /// triples. The sorted arrays move into a fresh IndexBase.
  void Freeze();

  bool frozen() const { return base_ != nullptr || live(); }

  /// Monotone counter bumped whenever new data becomes visible: by every
  /// Freeze() and, on a live store, by every published chain (an ingest
  /// batch or a compaction). Caches keyed on query results (e.g.
  /// engine::QueryEngine) include the epoch in their keys, so every entry
  /// derived from an earlier index state is invalidated. 0 = never frozen.
  /// Snapshot restore (AdoptFrozenView) reinstalls the epoch the image was
  /// saved at, so cache keys behave identically across a save/load cycle.
  /// Live stores (EnterLive) answer with the current epoch chain's epoch,
  /// which every published ingest batch / compaction bumps.
  uint64_t freeze_epoch() const;

  /// --- Live ingestion (rdf/delta_layer.h, src/store/) ---------------------

  /// Switches a frozen store into live mode: the store's IndexBase becomes
  /// the base of an epoch chain (the store keeps no other reference to
  /// it), `layers` — a snapshot's saved delta chain, oldest first — sit
  /// above it at the store's freeze epoch, the dictionary enters its
  /// concurrent-append mode, and new data arrives as delta layers
  /// published via PublishChain() (store::Ingestor drives this). Live
  /// stores reject the freeze-once mutators (Add/Freeze/AdoptFrozenView);
  /// reads keep the frozen-store concurrency contract and additionally
  /// tolerate concurrent chain publication — a query pins one chain for
  /// its duration with ReadPin. Irreversible for the store's lifetime.
  void EnterLive(std::vector<std::shared_ptr<const DeltaLayer>> layers = {});

  bool live() const { return live_.load(std::memory_order_acquire); }

  /// The chain the calling thread should read: the innermost ReadPin's
  /// chain when one is active on this thread, else the latest published
  /// chain. Null on non-live stores.
  std::shared_ptr<const EpochChain> live_chain() const;

  /// Replaces the current chain under a mutex (ingest batch publication,
  /// compaction). In-flight readers keep serving their pinned chain; new
  /// ReadPins see `chain`. Refreshes the store.delta.* gauges.
  void PublishChain(std::shared_ptr<const EpochChain> chain);

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

  /// --- Snapshot restore (src/storage/) -----------------------------------

  /// Installs a frozen image without copying it: the spans alias
  /// externally owned memory (typically a memory-mapped snapshot) which
  /// `keepalive` keeps valid, as the owner of the store's IndexBase. Both
  /// arrays must already be sorted in their permutation orders and
  /// deduplicated, `stats` must match them, and every id must be interned
  /// in dictionary(). Marks the store frozen at `epoch`. Replaces any
  /// previous triple data.
  void AdoptFrozenView(std::span<const EncodedTriple> spo,
                       std::span<const EncodedTriple> pos,
                       std::unordered_map<TermId, PredicateStats> stats,
                       uint64_t epoch, std::shared_ptr<const void> keepalive);

  /// True while the base reads borrow a loaded snapshot image — mapped
  /// file or heap buffer (diagnostics; false once a mutation or a
  /// compaction replaces that base).
  bool borrows_snapshot() const;

  /// --- Term access -------------------------------------------------------

  Dictionary& dictionary() { return dict_; }
  const Dictionary& dictionary() const { return dict_; }

  /// Interns (or finds) a term id. Mutates the dictionary: must not be
  /// called while other threads read a frozen store (query paths use the
  /// read-only Lookup() instead).
  TermId Intern(TermView t) {
    assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
           "TripleStore::Intern() during concurrent reads of a frozen store");
    assert(!live() &&
           "use dictionary().InternLive() on live stores (Intern is the "
           "freeze-once mutator)");
    return dict_.Intern(t);
  }
  /// Finds an existing term id; kInvalidTermId when absent.
  TermId Lookup(TermView t) const { return dict_.Lookup(t); }
  /// The term for a valid id, as a view into the dictionary: valid until
  /// the next Intern()/Add() while loading, and for the store's lifetime
  /// once it is frozen (Dictionary's view lifetime rule).
  TermView term(TermId id) const { return dict_.term(id); }

  /// --- Matching (requires frozen()) --------------------------------------

  /// All triples matching the pattern, as a sorted range in one of the
  /// permutation orders. Triple component order is always s/p/o
  /// regardless of which permutation serves it. A bound object with an
  /// unbound predicate reads the OSP view: the pattern's slice of each
  /// predicate run, zero-copy when only one slice is non-empty, else their
  /// merge. On a frozen store the range is valid until the store's next
  /// mutation (exactly the old span lifetime rule); on a live store it
  /// owns the chain it reads, so it outlives any later publication.
  IndexRange Match(const TriplePattern& pattern) const;

  /// Number of triples matching a pattern. Pure index-range arithmetic:
  /// two binary searches.
  uint64_t CountMatches(const TriplePattern& pattern) const;

  /// True if at least one triple matches.
  bool Exists(const TriplePattern& pattern) const {
    return !Match(pattern).empty();
  }

  /// The whole permutation as an IndexRange (merge joins, full scans).
  /// kOsp is the merge of every predicate run of POS.
  IndexRange PermutationRange(Perm perm) const;

  /// Distinct predicate ids appearing on triples with subject `s`.
  std::vector<TermId> PredicatesOfSubject(TermId s) const;

  /// Distinct predicate ids appearing on triples with object `o`.
  std::vector<TermId> PredicatesOfObject(TermId o) const;

  /// Distinct predicates in the whole store.
  std::vector<TermId> AllPredicates() const;

  /// Statistics for a predicate (zeroes for unknown predicates).
  PredicateStats predicate_stats(TermId p) const;

  /// The IndexBase reads start from: the pinned chain's base on live
  /// stores, the store's own otherwise. Holding the pointer keeps the
  /// arrays valid. Requires frozen().
  std::shared_ptr<const IndexBase> index_base() const;

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

  /// The base of a frozen, non-live store.
  const IndexBase& FrozenBase() const {
    assert(base_ != nullptr && !live() &&
           "frozen-store base read on an unfrozen or live store");
    return *base_;
  }

  /// Reopens a frozen store for loading: copies the base's SPO array into
  /// the load buffer and drops the base. No-op while unfrozen.
  void Reopen();

  /// Freeze()'s index build on `pool`: sorts and deduplicates the load
  /// buffer into SPO order and counting-sorts `pos` from it.
  void BuildIndexes(util::ThreadPool& pool, TripleVector* pos);
  /// The OSP view of `chain` (null: the frozen store's base): every POS
  /// source — base, layer inserts, layer tombstones — cut into its
  /// predicate runs, each clipped to object `o` and subject `s`
  /// (kInvalidTermId: unbound), merged in (o, s, p) order. Ranges over a
  /// chain own it.
  IndexRange OspMerge(const std::shared_ptr<const EpochChain>& chain,
                      TermId o, TermId s) const;
  /// The chain reads on this thread should use (see live_chain()).
  std::shared_ptr<const EpochChain> PinnedChain() const;
  /// The latest published chain.
  std::shared_ptr<const EpochChain> CurrentChain() const;
  /// Swaps in `chain` as the latest published chain.
  void SetChain(std::shared_ptr<const EpochChain> chain);
  /// Refreshes store.epoch / store.delta.* / store.triples after a chain
  /// publication.
  void UpdateChainGauges(const EpochChain& chain) const;
  /// Refreshes the store.* gauges (triples, heap/mapped bytes, per-index
  /// bytes) after any freeze/adopt.
  void UpdateStoreGauges() const;

  Dictionary dict_;
  // The load buffer: every triple added while unfrozen (after Reopen(),
  // the previous base's triples too), unsorted and possibly repeated.
  TripleVector pending_;
  // The frozen indexes of a non-live store; null while unfrozen, and
  // handed to the epoch chain by EnterLive().
  std::shared_ptr<const IndexBase> base_;
  uint64_t freeze_epoch_ = 0;
  // Live-mode state (EnterLive): the current epoch chain, swapped under
  // chain_mu_ by every publication (readers copy the pointer under the
  // same lock and read the chain without it). live_ flips true exactly
  // once.
  std::atomic<bool> live_{false};
  mutable std::mutex chain_mu_;
  std::shared_ptr<const EpochChain> chain_;
  mutable std::atomic<int> active_readers_{0};
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_TRIPLE_STORE_H_
