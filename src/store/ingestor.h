#ifndef RE2XOLAP_STORE_INGESTOR_H_
#define RE2XOLAP_STORE_INGESTOR_H_

// Live ingestion driver for an epoch-chain TripleStore (ROADMAP item 3).
//
// The Ingestor owns the write side of a live store: it parses N-Triples
// batches, interns new terms through the dictionary's live path, seals
// each batch into an immutable rdf::DeltaLayer, and publishes a new
// EpochChain atomically — readers never see a half-applied batch, and a
// query pinned to the previous chain keeps serving it untouched. When the
// chain grows past the configured thresholds a background compaction task
// (on util::ThreadPool) folds base + sealed layers into a fresh sorted
// base and publishes a depth-0 (or shallower) chain, again atomically and
// without ever blocking readers or ingest.
//
// Concurrency: IngestText() and the publish step of compaction serialize
// on one mutex; the expensive compaction merge runs outside it. All reads
// (queries) are lock-free against both.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>

#include "rdf/triple_store.h"
#include "util/result.h"
#include "util/status.h"

namespace re2xolap::util {
class ExecGuard;
class ThreadPool;
}  // namespace re2xolap::util

namespace re2xolap::store {

/// What one ingest batch does with its statements.
enum class IngestOp : uint8_t {
  kInsert = 0,
  kDelete = 1,
};

struct IngestorConfig {
  /// Fold the chain once the layers hold this many delta triples
  /// (inserts + tombstones) in total. 0 disables the size trigger.
  uint64_t compact_threshold_triples = 64 * 1024;
  /// Fold the chain once it is this many layers deep. 0 disables the
  /// depth trigger.
  uint64_t compact_threshold_layers = 4;
  /// Schedule compaction automatically after a publish that crosses a
  /// threshold. Explicit Compact() always works regardless.
  bool auto_compact = true;
};

/// What an accepted batch did to the store.
struct IngestReceipt {
  /// Epoch the batch is visible at (the pre-batch epoch when the batch
  /// was a no-op and nothing was published).
  uint64_t epoch = 0;
  /// Triples actually inserted (after dedup and already-visible drops).
  uint64_t added = 0;
  /// Triples actually deleted (after dedup and not-visible drops).
  uint64_t deleted = 0;
  /// Chain depth after the batch.
  uint64_t chain_depth = 0;
};

class Ingestor {
 public:
  /// `store` must outlive the Ingestor and be live (TripleStore::
  /// EnterLive()) before the first IngestText(). `pool` runs background
  /// compactions and parallelizes the compaction merge; it may be null
  /// (no auto-compaction, serial explicit Compact()).
  Ingestor(rdf::TripleStore* store, util::ThreadPool* pool,
           IngestorConfig config = {});
  /// Blocks until any in-flight background compaction finishes.
  ~Ingestor();

  Ingestor(const Ingestor&) = delete;
  Ingestor& operator=(const Ingestor&) = delete;

  /// Applies one batch of N-Triples statements (rdf::ParseNTriples
  /// grammar) as inserts or deletes. Set semantics: duplicate statements
  /// collapse, inserting a visible triple is a no-op, deleting an absent
  /// one is a no-op; a batch whose effect is empty publishes nothing (the
  /// epoch does not move, caches stay warm). `guard` is polled at parse
  /// and encode boundaries; a tripped guard rejects the batch before
  /// publication (batches are all-or-nothing). Failpoint: store.ingest.
  util::Result<IngestReceipt> IngestText(std::string_view text, IngestOp op,
                                         const util::ExecGuard* guard);

  /// Folds the current chain's layers into a fresh compacted base and
  /// publishes it (visible data unchanged, epoch bumped). Runs on the
  /// calling thread; waits first for any in-flight background compaction.
  /// No-op on a depth-0 chain. Failpoint: store.compact.
  util::Status Compact(const util::ExecGuard* guard = nullptr);

  /// True while a background compaction is running (tests, /healthz).
  bool compaction_inflight() const;

  const IngestorConfig& config() const { return config_; }

 private:
  /// The compaction body: snapshot the chain, merge outside the locks,
  /// publish under the ingest mutex. Caller owns the inflight flag.
  /// `merge_pool` parallelizes the fold and its predicate stats; it must
  /// be null when the caller already runs on a pool worker
  /// (BackgroundCompact) — a nested ParallelFor would wait behind its own
  /// occupied worker.
  util::Status CompactNow(const util::ExecGuard* guard,
                          util::ThreadPool* merge_pool);
  util::Status BackgroundCompact();
  /// Schedules a background compaction when `chain` crosses a threshold
  /// and none is running. Must NOT be called with ingest_mu_ held (a
  /// workerless pool runs the task inline, and CompactNow relocks).
  void MaybeScheduleCompaction(const rdf::EpochChain& chain);
  /// Submits one background compaction; the caller has set
  /// compact_inflight_. When the fold finishes it resubmits itself while
  /// the published chain is still over a threshold, else clears the flag.
  void SubmitCompaction();
  /// True when `chain` crosses a compaction threshold.
  bool CompactionDue(const rdf::EpochChain& chain) const;

  rdf::TripleStore* store_;
  util::ThreadPool* pool_;
  IngestorConfig config_;

  /// Serializes batch application and chain publication (ingest and the
  /// compaction publish step). Never held during the compaction merge.
  std::mutex ingest_mu_;
  uint64_t batch_seq_ = 0;

  mutable std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compact_inflight_ = false;
};

}  // namespace re2xolap::store

#endif  // RE2XOLAP_STORE_INGESTOR_H_
