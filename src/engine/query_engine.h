#ifndef RE2XOLAP_ENGINE_QUERY_ENGINE_H_
#define RE2XOLAP_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/executor.h"
#include "sparql/plan.h"
#include "sparql/result_table.h"
#include "storage/snapshot.h"
#include "util/result.h"

namespace re2xolap::engine {

class QueryEngine;

/// A dataset + engine pair reconstructed from a snapshot image by
/// QueryEngine::OpenSnapshot. `engine` reads `data.store`, so keep the pair
/// together (moving the struct is fine; the unique_ptr targets are stable).
struct EngineSnapshot {
  storage::LoadedSnapshot data;
  std::unique_ptr<QueryEngine> engine;
};

/// Shared, immutable handle to a materialized result. Cache hits hand the
/// same table to every caller, so results must never be mutated through a
/// handle (enforced by const).
using TableHandle = std::shared_ptr<const sparql::ResultTable>;

/// Cache sizing knobs. Zero capacity disables the corresponding cache; an
/// engine with both caches off plans and executes every call afresh, the
/// uncached run that tests and ablation benches compare against.
struct EngineConfig {
  /// Max distinct plans kept (LRU beyond that). 0 disables plan caching.
  size_t plan_cache_capacity = 256;
  /// Total byte budget across all result-cache shards, charged per entry
  /// by an estimate of its resident size. 0 disables result caching.
  size_t result_cache_bytes = 8u << 20;
  /// Lock shards for the result cache; each shard owns an equal slice of
  /// the byte budget and its own LRU list, so concurrent validation
  /// threads rarely contend on one mutex.
  size_t result_cache_shards = 4;
  /// Bounded retry for transient (kUnavailable) execution failures: total
  /// attempts = 1 + max_transient_retries. 0 disables retry. Cache
  /// lookups and planning are not repeated — only the execution proper.
  int max_transient_retries = 2;
  /// Backoff before retry k is `retry_backoff_millis << (k-1)` (simple
  /// exponential). 0 retries immediately.
  uint64_t retry_backoff_millis = 1;
};

/// Point-in-time counters of one engine instance (global metrics aggregate
/// across engines; tests assert on these to stay isolated).
struct EngineCacheStats {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_evictions = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_evictions = 0;
  uint64_t retries = 0;  // transient-failure re-executions
  size_t plan_entries = 0;
  size_t result_entries = 0;
  size_t result_bytes = 0;  // resident cost estimate across shards
};

/// The only way to execute a query: owns the full parse→plan→execute
/// pipeline (sparql::Execute is its private executor) plus two caches
/// keyed on the normalized query text and the store's freeze epoch.
///
/// - Plan cache: LRU map of normalized query → immutable Plan. Plans are
///   read-only during execution, so one cached plan serves concurrent
///   executions.
/// - Result cache: sharded, byte-budgeted LRU of normalized query →
///   TableHandle. Entries are charged an estimate of their resident size;
///   a shard over its slice of the budget evicts least-recently-used
///   entries.
///
/// Invalidation: every Execute compares the store's freeze_epoch()
/// against the epoch the caches were built at; a re-Freeze() (the only
/// way new data becomes visible) clears both caches, and the epoch is
/// also part of every key, so a stale entry can never be served even if
/// it races the clear.
///
/// Concurrency: all public methods are safe to call from multiple threads
/// once the store is frozen (the store's own read contract). Lookups and
/// inserts take one small mutex (plan cache) or one shard mutex (result
/// cache); execution itself runs lock-free.
///
/// Caching policy: timeouts are not part of the key (they bound latency,
/// not the result); errored executions are never cached; profiled runs
/// (ExecOptions::profile) bypass the result cache because EXPLAIN ANALYZE
/// must observe a real execution. On a result-cache hit the ExecStats
/// sink is zeroed — a hit scans nothing and plans nothing.
///
/// Robustness: an ExecOptions::guard is checked once on entry (an already
/// expired/cancelled request does no work, not even a cache probe) and
/// then enforced by the executor; guard violations are errors and are
/// therefore never cached. Transient (kUnavailable) execution failures —
/// including those injected via the `engine.execute` failpoint — are
/// retried up to EngineConfig::max_transient_retries times with
/// exponential backoff; cache counters still count once per logical
/// Execute because only the execution proper is repeated.
class QueryEngine {
 public:
  explicit QueryEngine(const rdf::TripleStore& store,
                       EngineConfig config = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `query`, serving from / filling the caches.
  util::Result<TableHandle> Execute(const sparql::SelectQuery& query,
                                    const sparql::ExecOptions& options = {},
                                    sparql::ExecStats* stats = nullptr);

  /// Convenience: parse + Execute. Text that fails to parse still
  /// appends its one query-log record (status ParseError, fingerprinted
  /// on the raw text).
  util::Result<TableHandle> ExecuteText(std::string_view text,
                                        const sparql::ExecOptions& options = {},
                                        sparql::ExecStats* stats = nullptr);

  /// Drops every cached plan and result and records the store's current
  /// freeze epoch. Called automatically when the epoch moves.
  void InvalidateCaches();

  /// Serializes this engine's (frozen) store into a snapshot image at
  /// `path`. Store-only: text-index and schema-graph sections are written
  /// by core::Session::SaveSnapshot, which sees those structures.
  util::Status SaveSnapshot(
      const std::string& path,
      const storage::SnapshotWriteOptions& options = {}) const;

  /// Boots a store + engine from a snapshot image. The engine's caches
  /// start empty but are keyed on the image's restored freeze_epoch, so
  /// they behave exactly as they would on the store the image was saved
  /// from.
  static util::Result<EngineSnapshot> OpenSnapshot(
      const std::string& path,
      const storage::SnapshotLoadOptions& options = {},
      EngineConfig config = {});

  /// Snapshot of this instance's cache counters.
  EngineCacheStats cache_stats() const;

  const rdf::TripleStore& store() const { return store_; }
  const EngineConfig& config() const { return config_; }

 private:
  struct PlanEntry {
    std::string key;
    std::shared_ptr<const sparql::Plan> plan;
  };
  struct ResultEntry {
    std::string key;
    TableHandle table;
    size_t cost = 0;
    /// Query-log fingerprint of the normalized query, stored at insert
    /// time so cache hits record their identity without rehashing the
    /// query text (0 when the recorder was disabled at insert).
    uint64_t fingerprint = 0;
  };
  struct ResultShard {
    mutable std::mutex mu;
    std::list<ResultEntry> lru;  // front = most recent
    std::unordered_map<std::string, std::list<ResultEntry>::iterator> index;
    size_t bytes = 0;
  };

  /// Clears caches if the store has been re-frozen since they were built;
  /// returns the current epoch.
  uint64_t SyncEpoch();

  std::shared_ptr<const sparql::Plan> PlanLookup(const std::string& key);
  void PlanInsert(const std::string& key,
                  std::shared_ptr<const sparql::Plan> plan);

  ResultShard& ShardFor(const std::string& key);
  /// On a hit, `fingerprint` (when non-null) receives the entry's stored
  /// query-log fingerprint.
  TableHandle ResultLookup(const std::string& key, uint64_t* fingerprint);
  void ResultInsert(const std::string& key, const TableHandle& table,
                    uint64_t fingerprint);

  const rdf::TripleStore& store_;
  const EngineConfig config_;

  std::atomic<uint64_t> seen_epoch_;

  mutable std::mutex plan_mu_;
  std::list<PlanEntry> plan_lru_;  // front = most recent
  std::unordered_map<std::string, std::list<PlanEntry>::iterator> plan_index_;

  std::vector<std::unique_ptr<ResultShard>> shards_;

  // Per-instance counters (relaxed; exact under the test's sync points).
  std::atomic<uint64_t> plan_hits_{0}, plan_misses_{0}, plan_evictions_{0};
  std::atomic<uint64_t> result_hits_{0}, result_misses_{0},
      result_evictions_{0};
  std::atomic<uint64_t> retries_{0};
};

/// Bytes a materialized table holds (ResultTable::AllocatedBytes: the
/// object, its column arrays by capacity and its column names); the unit
/// the result cache charges entries in.
size_t EstimateTableCost(const sparql::ResultTable& table);

}  // namespace re2xolap::engine

#endif  // RE2XOLAP_ENGINE_QUERY_ENGINE_H_
