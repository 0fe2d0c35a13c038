#ifndef RE2XOLAP_OBS_QUERY_LOG_H_
#define RE2XOLAP_OBS_QUERY_LOG_H_

// The query telemetry layer: an always-on, bounded-overhead flight
// recorder of every query-shaped operation the system performs. Each
// call of engine::QueryEngine::Execute / ExecuteText (the one way to run
// a query), a core::Session exploration interaction, or a storage
// snapshot save/load appends exactly one fixed-layout
// QueryRecord into a lock-sharded ring buffer (modeled on the Tracer
// shards): identity, cache outcome, guard verdict, degradation flags,
// and the parse/plan/exec latency breakdown survive the call, so a
// served system can answer "what has this process been doing?" without
// having been asked in advance.
//
// On top of the ring:
//  - slow-query capture: records that exceed a configurable latency
//    threshold, or that end in kTimeout / kResourceExhausted /
//    kCancelled, additionally retain the query text and the rendered
//    ExplainAnalyze operator tree in a bounded slow-query log;
//  - an optional JSONL structured-log sink (RE2XOLAP_QUERY_LOG=<path>),
//    buffered and flushed off the hot path;
//  - WriteIntrospectionReport: a human-readable system snapshot
//    aggregating the ring plus metrics-registry highlights.
//
// Overhead contract: one relaxed enabled-load when disabled; when
// enabled (the default), an append is one relaxed id fetch_add plus one
// sharded-lock ring write — no allocation unless the JSONL sink is armed
// or the record qualifies for slow capture.
//
// Layering: obs sits below util in the link graph, so this header keeps
// its own tiny mirror of util::StatusCode names (RecordStatusName);
// query_log_test pins it to the canonical enum.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace re2xolap::obs {

/// What kind of operation a QueryRecord describes.
enum class QueryOp : uint8_t {
  kEngineExecute = 0,   // engine::QueryEngine::Execute / ExecuteText
  kSessionSynthesize,   // core::Session::Start (ReOLAP synthesis)
  kSessionRefine,       // core::Session::Refine (disaggregate/subset/...)
  kSessionExclude,      // core::Session::ExcludeNegative
  kSessionSlice,        // core::Session::Slice
  kSnapshotSave,        // storage::SaveSnapshot
  kSnapshotLoad,        // storage::LoadSnapshot
};
inline constexpr size_t kQueryOpCount = 7;

/// Stable display name ("engine.execute", "session.synthesize", ...).
const char* QueryOpName(QueryOp op);

/// Result-cache outcome of one execution. kNone: the operation has no
/// cache (sessions, snapshots) or never reached it (a guard reject, a
/// parse error); kBypass: caching
/// was disabled or deliberately skipped (profiled runs).
enum class CacheOutcome : uint8_t { kNone = 0, kHit, kMiss, kBypass };
const char* CacheOutcomeName(CacheOutcome outcome);

/// Mirror of util::StatusCodeToString for the status byte stored in
/// records (see the layering note above).
const char* RecordStatusName(uint8_t code);

/// 64-bit FNV-1a of a normalized query text — the query's identity in
/// records (two textually identical queries collide on purpose).
uint64_t FingerprintQuery(std::string_view normalized_text);

/// One flight-recorder entry. Fixed layout, no owned strings: appending
/// never allocates. `id` and `start_micros` are assigned by Append.
struct QueryRecord {
  uint64_t id = 0;           // monotone per process, 1-based
  uint64_t fingerprint = 0;  // FingerprintQuery of the query text; 0 = n/a
  uint64_t freeze_epoch = 0;
  QueryOp op = QueryOp::kEngineExecute;
  CacheOutcome cache = CacheOutcome::kNone;
  uint8_t status = 0;        // util::StatusCode value; 0 = OK
  bool degraded = false;     // partial answer (graceful degradation)
  uint32_t retries = 0;      // transient-failure re-executions
  uint64_t rows_out = 0;
  uint64_t triples_scanned = 0;
  uint64_t intermediate_bindings = 0;
  double plan_millis = 0;
  double exec_millis = 0;
  double total_millis = 0;   // whole call, entry to return
  int64_t start_micros = 0;  // since the process trace epoch
};

/// A slow-query log entry: the record plus the bounded context captured
/// with it (query text and rendered ExplainAnalyze tree, when available).
struct SlowQueryEntry {
  QueryRecord record;
  std::string query;   // normalized query text ("" when not applicable)
  std::string detail;  // rendered operator tree / diagnostic ("" if none)
};

/// Recorder sizing and capture policy. Zero capacities disable the
/// corresponding retention (records are still counted).
struct QueryLogConfig {
  /// Records retained across all ring shards (oldest evicted first).
  size_t ring_capacity = 4096;
  /// Slow-query entries retained (oldest evicted first).
  size_t slow_capacity = 64;
  /// Latency threshold for slow capture, in milliseconds. Records at or
  /// above it are captured; < 0 disables latency-based capture (error
  /// statuses are still captured). Overridable with
  /// RE2XOLAP_QUERY_LOG_SLOW_MS.
  double slow_threshold_millis = 250.0;
  /// JSONL structured-log sink; armed by a non-empty path (or the
  /// RE2XOLAP_QUERY_LOG environment variable at process start).
  std::string sink_path;
};

/// Process-global flight recorder. Always on by default; SetEnabled(false)
/// exists for overhead measurement and tests only.
///
/// Concurrency: Append selects one of kShards mutex-protected rings by
/// thread tag (concurrent recorders rarely contend); snapshots and the
/// introspection report take each shard lock briefly in turn.
class QueryLog {
 public:
  static QueryLog& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Replaces the recorder configuration. Retained records and slow
  /// entries are dropped (their ids stay consumed); the JSONL sink is
  /// re-pointed (an unopenable path disarms the sink with one stderr
  /// warning). Not safe to race with Append in the middle of a workload —
  /// configure at startup or between requests.
  void Configure(QueryLogConfig config);
  QueryLogConfig config() const;

  /// Appends one record: assigns the monotone id (and, when the caller
  /// left start_micros at 0, a start timestamp derived from now −
  /// total_millis) into `rec`, writes a copy into the ring, and (when
  /// armed) buffers its JSONL line. Returns the assigned id (0 when
  /// disabled).
  uint64_t Append(QueryRecord& rec);

  /// True when `rec` qualifies for slow capture: total_millis at or above
  /// the threshold, or a guard-verdict status (kTimeout /
  /// kResourceExhausted / kCancelled).
  bool ShouldCapture(const QueryRecord& rec) const;

  /// Retains `rec` with its context in the bounded slow-query log.
  void CaptureSlow(const QueryRecord& rec, std::string query,
                   std::string detail);

  /// Append + conditional slow capture in one step, for call sites that
  /// assemble a finished record directly instead of via QueryRecordScope
  /// (session interactions, snapshot save/load).
  void AppendCompleted(QueryRecord& rec, std::string query,
                       std::string detail = {});

  /// Records appended since process start (monotone; survives Clear).
  /// Ids are handed out exactly once per appended record, so this is the
  /// id counter minus its starting value — no second atomic on the
  /// append path.
  uint64_t total_appended() const {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Copies out the retained records, ordered by id (oldest first).
  std::vector<QueryRecord> Snapshot() const;

  /// Copies out the retained slow-query entries, oldest first.
  std::vector<SlowQueryEntry> SlowSnapshot() const;

  /// Drops every retained record and slow entry (ids stay monotone,
  /// configuration and sink unchanged).
  void Clear();

  /// Flushes the JSONL sink buffer to disk (no-op when disarmed). Called
  /// automatically when the buffer fills and at process exit.
  void Flush();

  /// Writes a human-readable system snapshot: totals, per-operation
  /// breakdown (count, errors, cache hit ratio, latency), status and
  /// degradation breakdown, per-epoch counts, the top `top_n` slowest
  /// retained records, the slow-query log (with captured operator
  /// trees), and metrics-registry highlights (incl. engine cache
  /// counters and thread-pool occupancy).
  void WriteIntrospectionReport(std::ostream& os, size_t top_n = 10) const;

  /// Formats one record as a single JSONL object (no trailing newline).
  static std::string ToJsonLine(const QueryRecord& rec);

 private:
  static constexpr size_t kShards = 16;
  /// Cache-line aligned so concurrent appenders on different shards never
  /// false-share a spinlock word.
  struct alignas(64) Shard {
    /// Spinlock, not a mutex: the critical section is one fixed-size
    /// record copy (appenders) or one short ring walk (snapshots), and
    /// thread-tag sharding makes contention rare — a futex round trip
    /// would cost more than the section it protects.
    mutable std::atomic_flag busy;
    std::vector<QueryRecord> ring;  // fixed capacity slots
    uint64_t head = 0;              // next slot to overwrite (wraps)
    uint64_t appended = 0;          // total ever appended to this shard
  };

  QueryLog();
  size_t ShardCapacityLocked() const;
  void SinkLine(const QueryRecord& rec);
  void FlushLocked();

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_id_{1};

  std::array<Shard, kShards> shards_;

  mutable std::mutex slow_mu_;
  std::deque<SlowQueryEntry> slow_;

  mutable std::mutex config_mu_;
  QueryLogConfig config_;
  std::atomic<bool> sink_armed_{false};
  std::atomic<int64_t> slow_threshold_micros_{250000};

  std::mutex sink_mu_;
  std::string sink_buffer_;
  std::FILE* sink_file_ = nullptr;
};

/// RAII collector for one query-shaped call (QueryEngine::Execute, or
/// QueryEngine::ExecuteText when the text fails to parse). The outermost
/// scope on a thread owns the call's record; a scope opened inside it
/// stays inactive, so one top-level call can never append two records.
/// The destructor stamps total_millis, appends the record, and captures
/// it into the slow-query log when it qualifies.
///
/// Session interactions and snapshot operations deliberately do NOT use
/// this scope (they append directly): an engine execution inside a
/// session interaction is a real query and records as one.
class QueryRecordScope {
 public:
  explicit QueryRecordScope(QueryOp op);
  /// Same, adopting a start timestamp the caller already holds (trace
  /// base, see obs::TraceMicrosAt) instead of reading the clock — the
  /// engine's execute path shares its latency timer's start point this
  /// way. A zero `start_micros` falls back to reading the clock.
  QueryRecordScope(QueryOp op, int64_t start_micros);
  ~QueryRecordScope();

  QueryRecordScope(const QueryRecordScope&) = delete;
  QueryRecordScope& operator=(const QueryRecordScope&) = delete;

  /// True for the outermost scope of an enabled recorder; inactive
  /// scopes ignore every mutation and append nothing.
  bool active() const { return active_; }

  /// The record under construction (writes to an inactive scope's record
  /// are harmless and discarded).
  QueryRecord& rec() { return rec_; }

  /// Attaches the normalized query text: sets the fingerprint and keeps
  /// the text for slow capture.
  void SetQueryText(std::string text);

  /// Same, with a precomputed fingerprint (0 falls back to hashing) —
  /// lets the engine's cache-hit path reuse the fingerprint stored with
  /// the cached entry instead of rehashing the query text.
  void SetQueryText(std::string text, uint64_t fingerprint);

  /// Attaches the rendered operator tree (or other diagnostic) retained
  /// on slow capture.
  void SetDetail(std::string detail) { detail_ = std::move(detail); }

  /// Milliseconds since construction.
  double ElapsedMillis() const;

  /// Whether the record as it stands (status set, elapsed time so far)
  /// would be captured into the slow-query log — callers use this to
  /// decide whether rendering an ExplainAnalyze tree is worth it.
  bool WillCapture() const;

 private:
  bool active_ = false;
  QueryRecord rec_;  // start_micros doubles as the scope's start reference
  std::string query_;
  std::string detail_;
};

}  // namespace re2xolap::obs

#endif  // RE2XOLAP_OBS_QUERY_LOG_H_
