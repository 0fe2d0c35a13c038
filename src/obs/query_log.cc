#include "obs/query_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace re2xolap::obs {

namespace {

thread_local int tls_scope_depth = 0;

/// RAII guard for a Shard's spinlock.
class ShardLock {
 public:
  explicit ShardLock(std::atomic_flag& busy) : busy_(busy) {
    while (busy_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~ShardLock() { busy_.clear(std::memory_order_release); }
  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

 private:
  std::atomic_flag& busy_;
};

/// The sink buffer is flushed to disk once it crosses this size, so disk
/// writes are amortized over many records and stay off most hot paths.
constexpr size_t kSinkFlushBytes = 64 * 1024;

constexpr uint8_t kStatusTimeout = 7;            // util::StatusCode::kTimeout
constexpr uint8_t kStatusResourceExhausted = 8;  // ...::kResourceExhausted
constexpr uint8_t kStatusCancelled = 11;         // ...::kCancelled

std::string FormatMillis(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

const char* QueryOpName(QueryOp op) {
  switch (op) {
    case QueryOp::kEngineExecute:
      return "engine.execute";
    case QueryOp::kSparqlExecute:
      return "sparql.execute";
    case QueryOp::kSessionSynthesize:
      return "session.synthesize";
    case QueryOp::kSessionRefine:
      return "session.refine";
    case QueryOp::kSessionExclude:
      return "session.exclude";
    case QueryOp::kSessionSlice:
      return "session.slice";
    case QueryOp::kSnapshotSave:
      return "snapshot.save";
    case QueryOp::kSnapshotLoad:
      return "snapshot.load";
  }
  return "?";
}

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kNone:
      return "none";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kBypass:
      return "bypass";
  }
  return "?";
}

const char* RecordStatusName(uint8_t code) {
  // Mirrors util::StatusCodeToString (obs cannot link util; the pairing
  // is pinned by QueryLogTest.StatusNamesMatchUtilStatusCodes).
  static constexpr const char* kNames[] = {
      "OK",        "InvalidArgument", "NotFound",          "AlreadyExists",
      "ParseError", "TypeError",      "ExecutionError",    "Timeout",
      "ResourceExhausted", "Internal", "Unavailable",      "Cancelled",
  };
  constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  return code < kCount ? kNames[code] : "Unknown";
}

uint64_t FingerprintQuery(std::string_view normalized_text) {
  // FNV-1a 64, folded over native-endian 8-byte words with a byte-wise
  // tail. The word folding cuts the serial multiply chain 8× versus
  // byte-at-a-time FNV — this runs on every recorded query, including the
  // engine's cache-hit path, so the hash must cost tens of nanoseconds on
  // a ~200-char normalized query, not hundreds. Texts shorter than 8
  // bytes take only the tail loop and hash exactly like classic FNV-1a.
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = 14695981039346656037ull;
  const char* p = normalized_text.data();
  size_t n = normalized_text.size();
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kPrime;
  }
  for (; n > 0; --n, ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * kPrime;
  }
  return h;
}

// --- QueryLog ---------------------------------------------------------------

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog;  // leaked: alive for exit-time appends
  return *log;
}

QueryLog::QueryLog() {
  QueryLogConfig config;
  if (const char* slow = std::getenv("RE2XOLAP_QUERY_LOG_SLOW_MS")) {
    config.slow_threshold_millis = std::strtod(slow, nullptr);
  }
  if (const char* path = std::getenv("RE2XOLAP_QUERY_LOG")) {
    if (*path != '\0') config.sink_path = path;
  }
  Configure(std::move(config));
  // Flush whatever the sink buffered when the process exits normally
  // (the singleton is leaked, so the hook always has a live object).
  std::atexit([] { QueryLog::Global().Flush(); });
}

size_t QueryLog::ShardCapacityLocked() const {
  return (config_.ring_capacity + kShards - 1) / kShards;
}

void QueryLog::Configure(QueryLogConfig config) {
  std::lock_guard<std::mutex> config_lock(config_mu_);
  config_ = std::move(config);
  slow_threshold_micros_.store(
      config_.slow_threshold_millis < 0
          ? -1
          : static_cast<int64_t>(config_.slow_threshold_millis * 1000.0),
      std::memory_order_relaxed);
  const size_t shard_cap = ShardCapacityLocked();
  for (Shard& shard : shards_) {
    ShardLock lock(shard.busy);
    shard.ring.clear();
    shard.ring.resize(shard_cap);
    shard.appended = 0;
  }
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    if (sink_file_ != nullptr) {
      if (!sink_buffer_.empty()) {
        std::fwrite(sink_buffer_.data(), 1, sink_buffer_.size(), sink_file_);
        sink_buffer_.clear();
      }
      std::fclose(sink_file_);
      sink_file_ = nullptr;
    }
    sink_armed_.store(false, std::memory_order_relaxed);
    if (!config_.sink_path.empty()) {
      sink_file_ = std::fopen(config_.sink_path.c_str(), "a");
      if (sink_file_ == nullptr) {
        std::fprintf(stderr,
                     "re2xolap: cannot open query log sink %s; sink disabled\n",
                     config_.sink_path.c_str());
      } else {
        sink_armed_.store(true, std::memory_order_relaxed);
      }
    }
  }
}

QueryLogConfig QueryLog::config() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_;
}

uint64_t QueryLog::Append(QueryRecord& rec) {
  if (!enabled()) return 0;
  rec.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (rec.start_micros == 0) {
    // Direct appenders (session/snapshot ops) never stamped a start;
    // derive it. QueryRecordScope stamps at construction, sparing the
    // hot path this clock read.
    rec.start_micros =
        TraceNowMicros() - static_cast<int64_t>(rec.total_millis * 1000.0);
  }
  Shard& shard = shards_[ThisThreadTag() % kShards];
  {
    ShardLock lock(shard.busy);
    if (!shard.ring.empty()) {
      // An incrementing wrap index, not `appended % size`: the hardware
      // division would cost more than the record copy.
      shard.ring[shard.head] = rec;
      if (++shard.head == shard.ring.size()) shard.head = 0;
      ++shard.appended;
    }
  }
  if (sink_armed_.load(std::memory_order_relaxed)) SinkLine(rec);
  return rec.id;
}

void QueryLog::AppendCompleted(QueryRecord& rec, std::string query,
                               std::string detail) {
  if (!enabled()) return;
  Append(rec);
  if (ShouldCapture(rec)) {
    CaptureSlow(rec, std::move(query), std::move(detail));
  }
}

bool QueryLog::ShouldCapture(const QueryRecord& rec) const {
  if (rec.status == kStatusTimeout || rec.status == kStatusResourceExhausted ||
      rec.status == kStatusCancelled) {
    return true;
  }
  const int64_t threshold = slow_threshold_micros_.load(std::memory_order_relaxed);
  return threshold >= 0 &&
         rec.total_millis * 1000.0 >= static_cast<double>(threshold);
}

void QueryLog::CaptureSlow(const QueryRecord& rec, std::string query,
                           std::string detail) {
  if (!enabled()) return;
  size_t capacity;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    capacity = config_.slow_capacity;
  }
  if (capacity == 0) return;
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_.push_back(SlowQueryEntry{rec, std::move(query), std::move(detail)});
  while (slow_.size() > capacity) slow_.pop_front();
}

std::vector<QueryRecord> QueryLog::Snapshot() const {
  std::vector<QueryRecord> out;
  for (const Shard& shard : shards_) {
    ShardLock lock(shard.busy);
    const size_t n = std::min<uint64_t>(shard.appended, shard.ring.size());
    for (size_t i = 0; i < n; ++i) out.push_back(shard.ring[i]);
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<SlowQueryEntry> QueryLog::SlowSnapshot() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<SlowQueryEntry>(slow_.begin(), slow_.end());
}

void QueryLog::Clear() {
  for (Shard& shard : shards_) {
    ShardLock lock(shard.busy);
    shard.appended = 0;
  }
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_.clear();
}

std::string QueryLog::ToJsonLine(const QueryRecord& rec) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, rec.fingerprint);
  std::string line = "{\"id\": " + std::to_string(rec.id);
  line += ", \"op\": \"";
  line += QueryOpName(rec.op);
  line += "\", \"fingerprint\": \"";
  line += fp;
  line += "\", \"epoch\": " + std::to_string(rec.freeze_epoch);
  line += ", \"cache\": \"";
  line += CacheOutcomeName(rec.cache);
  line += "\", \"status\": \"";
  line += RecordStatusName(rec.status);
  line += "\", \"degraded\": ";
  line += rec.degraded ? "true" : "false";
  line += ", \"retries\": " + std::to_string(rec.retries);
  line += ", \"rows\": " + std::to_string(rec.rows_out);
  line += ", \"scanned\": " + std::to_string(rec.triples_scanned);
  line += ", \"bindings\": " + std::to_string(rec.intermediate_bindings);
  line += ", \"plan_ms\": " + FormatMillis(rec.plan_millis);
  line += ", \"exec_ms\": " + FormatMillis(rec.exec_millis);
  line += ", \"total_ms\": " + FormatMillis(rec.total_millis);
  line += ", \"start_us\": " + std::to_string(rec.start_micros);
  line += "}";
  return line;
}

void QueryLog::SinkLine(const QueryRecord& rec) {
  std::string line = ToJsonLine(rec);
  line += '\n';
  std::lock_guard<std::mutex> lock(sink_mu_);
  if (sink_file_ == nullptr) return;
  sink_buffer_ += line;
  if (sink_buffer_.size() >= kSinkFlushBytes) FlushLocked();
}

void QueryLog::FlushLocked() {
  if (sink_file_ == nullptr || sink_buffer_.empty()) return;
  std::fwrite(sink_buffer_.data(), 1, sink_buffer_.size(), sink_file_);
  std::fflush(sink_file_);
  sink_buffer_.clear();
}

void QueryLog::Flush() {
  std::lock_guard<std::mutex> lock(sink_mu_);
  FlushLocked();
}

// --- introspection report ---------------------------------------------------

namespace {

struct OpAggregate {
  uint64_t count = 0;
  uint64_t errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t degraded = 0;
  uint64_t retries = 0;
  double total_millis = 0;
  double max_millis = 0;
};

}  // namespace

void QueryLog::WriteIntrospectionReport(std::ostream& os, size_t top_n) const {
  std::vector<QueryRecord> records = Snapshot();
  std::vector<SlowQueryEntry> slow = SlowSnapshot();
  QueryLogConfig cfg = config();

  os << "== re2xolap introspection report ==\n";
  os << "records appended: " << total_appended() << " (ring retains "
     << records.size() << " of " << cfg.ring_capacity
     << "), slow-query entries: " << slow.size() << " of " << cfg.slow_capacity
     << "\n";
  os << "slow threshold: ";
  if (cfg.slow_threshold_millis < 0) {
    os << "disabled";
  } else {
    os << FormatMillis(cfg.slow_threshold_millis) << " ms";
  }
  os << ", jsonl sink: "
     << (cfg.sink_path.empty() ? std::string("off") : cfg.sink_path) << "\n";

  // Store memory footprint as last published by the active TripleStore.
  // Heap-owned and snapshot-mapped bytes are reported separately: a
  // zero-copy mmap boot keeps its index bytes in the mapped bucket, which
  // older MemoryUsage() accounting silently dropped.
  {
    auto& reg = MetricsRegistry::Global();
    const double heap = reg.GetGauge("store.bytes.heap").value();
    const double mapped = reg.GetGauge("store.bytes.mapped").value();
    if (heap > 0 || mapped > 0) {
      os << "\n-- store memory --\n";
      os << "  triples: "
         << static_cast<uint64_t>(reg.GetGauge("store.triples").value())
         << "\n";
      os << "  heap bytes: " << static_cast<uint64_t>(heap)
         << ", mapped bytes: " << static_cast<uint64_t>(mapped)
         << ", total: " << static_cast<uint64_t>(heap + mapped) << "\n";
      os << "  index bytes: spo="
         << static_cast<uint64_t>(
                reg.GetGauge("store.index.spo.bytes").value())
         << " pos="
         << static_cast<uint64_t>(
                reg.GetGauge("store.index.pos.bytes").value())
         << " osp="
         << static_cast<uint64_t>(
                reg.GetGauge("store.index.osp.bytes").value())
         << "\n";
    }
    // Epoch chain (live stores only: store.epoch is published exclusively
    // by chain publications, so it stays 0 on freeze-once stores).
    const double chain_epoch = reg.GetGauge("store.epoch").value();
    if (chain_epoch > 0) {
      os << "\n-- live ingestion (epoch chain) --\n";
      os << "  epoch: " << static_cast<uint64_t>(chain_epoch)
         << ", chain depth: "
         << static_cast<uint64_t>(reg.GetGauge("store.delta.layers").value())
         << "\n";
      os << "  delta triples: "
         << static_cast<uint64_t>(reg.GetGauge("store.delta.triples").value())
         << ", tombstones: "
         << static_cast<uint64_t>(
                reg.GetGauge("store.delta.tombstones").value())
         << "\n";
      os << "  ingest batches: "
         << reg.GetCounter("store.delta.ingest.batches").value()
         << " (+" << reg.GetCounter("store.delta.ingest.triples").value()
         << " / -" << reg.GetCounter("store.delta.ingest.deletes").value()
         << " triples), compactions: "
         << reg.GetCounter("store.delta.compactions").value() << "\n";
    }
  }

  // Per-operation breakdown.
  std::array<OpAggregate, kQueryOpCount> by_op{};
  std::map<uint8_t, uint64_t> by_status;
  std::map<uint64_t, uint64_t> by_epoch;
  for (const QueryRecord& r : records) {
    OpAggregate& agg = by_op[static_cast<size_t>(r.op) % kQueryOpCount];
    ++agg.count;
    if (r.status != 0) ++by_status[r.status], ++agg.errors;
    if (r.cache == CacheOutcome::kHit) ++agg.cache_hits;
    if (r.cache == CacheOutcome::kMiss) ++agg.cache_misses;
    if (r.degraded) ++agg.degraded;
    agg.retries += r.retries;
    agg.total_millis += r.total_millis;
    agg.max_millis = std::max(agg.max_millis, r.total_millis);
    ++by_epoch[r.freeze_epoch];
  }

  os << "\n-- by operation (retained records) --\n";
  for (size_t i = 0; i < kQueryOpCount; ++i) {
    const OpAggregate& agg = by_op[i];
    if (agg.count == 0) continue;
    os << "  " << QueryOpName(static_cast<QueryOp>(i)) << ": " << agg.count
       << " calls, " << agg.errors << " errors";
    const uint64_t probes = agg.cache_hits + agg.cache_misses;
    if (probes > 0) {
      os << ", cache hit " << agg.cache_hits << "/" << probes << " ("
         << FormatMillis(100.0 * static_cast<double>(agg.cache_hits) /
                         static_cast<double>(probes))
       << "%)";
    }
    if (agg.degraded > 0) os << ", degraded " << agg.degraded;
    if (agg.retries > 0) os << ", retries " << agg.retries;
    os << ", avg "
       << FormatMillis(agg.total_millis / static_cast<double>(agg.count))
       << " ms, max " << FormatMillis(agg.max_millis) << " ms\n";
  }

  if (!by_status.empty()) {
    os << "\n-- error breakdown --\n";
    for (const auto& [code, n] : by_status) {
      os << "  " << RecordStatusName(code) << ": " << n << "\n";
    }
  }

  if (by_epoch.size() > 1 || (by_epoch.size() == 1 && !records.empty())) {
    os << "\n-- by freeze epoch --\n";
    for (const auto& [epoch, n] : by_epoch) {
      os << "  epoch " << epoch << ": " << n << " records\n";
    }
  }

  if (!records.empty() && top_n > 0) {
    std::vector<const QueryRecord*> slowest;
    slowest.reserve(records.size());
    for (const QueryRecord& r : records) slowest.push_back(&r);
    const size_t keep = std::min(top_n, slowest.size());
    std::partial_sort(slowest.begin(), slowest.begin() + keep, slowest.end(),
                      [](const QueryRecord* a, const QueryRecord* b) {
                        return a->total_millis > b->total_millis;
                      });
    os << "\n-- top " << keep << " slowest retained --\n";
    char fp[32];
    for (size_t i = 0; i < keep; ++i) {
      const QueryRecord& r = *slowest[i];
      std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint);
      os << "  #" << r.id << " " << QueryOpName(r.op) << " "
         << FormatMillis(r.total_millis) << " ms, status "
         << RecordStatusName(r.status) << ", cache "
         << CacheOutcomeName(r.cache) << ", rows " << r.rows_out
         << ", fingerprint " << fp << "\n";
    }
  }

  if (!slow.empty()) {
    os << "\n-- slow-query log --\n";
    for (const SlowQueryEntry& e : slow) {
      os << "  #" << e.record.id << " " << QueryOpName(e.record.op) << " "
         << FormatMillis(e.record.total_millis) << " ms, status "
         << RecordStatusName(e.record.status) << ", scanned "
         << e.record.triples_scanned << "\n";
      if (!e.query.empty()) os << "    query: " << e.query << "\n";
      if (!e.detail.empty()) {
        // Indent the rendered operator tree under its entry.
        os << "    ";
        for (char c : e.detail) {
          os << c;
          if (c == '\n') os << "    ";
        }
        os << "\n";
      }
    }
  }

  // Thread-pool occupancy: tasks started minus finished = running now.
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t pool_started =
      registry.GetCounter("pool.tasks.started").value();
  const uint64_t pool_finished =
      registry.GetCounter("pool.tasks.finished").value();
  os << "\n-- thread pool --\n  tasks: " << pool_started << " started, "
     << pool_finished << " finished, " << pool_started - pool_finished
     << " running\n";

  // Metrics-registry highlights: engine cache counters, guard verdicts,
  // and the latency histograms with tail quantiles (p50..p99.9).
  os << "\n-- metrics registry --\n" << registry.ToJson() << "\n";
}

// --- QueryRecordScope -------------------------------------------------------

QueryRecordScope::QueryRecordScope(QueryOp op)
    : QueryRecordScope(op, 0) {}

QueryRecordScope::QueryRecordScope(QueryOp op, int64_t start_micros) {
  active_ = ++tls_scope_depth == 1 && QueryLog::Global().enabled();
  if (!active_) return;
  rec_.op = op;
  // Doubles as the scope's start-of-call reference. A caller that shares
  // an existing clock read (the engine passes its latency timer's start)
  // spares this one.
  rec_.start_micros = start_micros != 0 ? start_micros : TraceNowMicros();
}

QueryRecordScope::~QueryRecordScope() {
  --tls_scope_depth;
  if (!active_) return;
  // A caller that already measured the call (the engine's cache-hit path
  // reuses its latency-histogram clock read) spares us this one.
  if (rec_.total_millis == 0) rec_.total_millis = ElapsedMillis();
  QueryLog& log = QueryLog::Global();
  log.Append(rec_);
  if (log.ShouldCapture(rec_)) {
    log.CaptureSlow(rec_, std::move(query_), std::move(detail_));
  }
}

void QueryRecordScope::SetQueryText(std::string text) {
  if (!active_) return;
  rec_.fingerprint = FingerprintQuery(text);
  query_ = std::move(text);
}

void QueryRecordScope::SetQueryText(std::string text, uint64_t fingerprint) {
  if (!active_) return;
  rec_.fingerprint =
      fingerprint != 0 ? fingerprint : FingerprintQuery(text);
  query_ = std::move(text);
}

double QueryRecordScope::ElapsedMillis() const {
  if (!active_) return 0;
  return static_cast<double>(TraceNowMicros() - rec_.start_micros) / 1000.0;
}

bool QueryRecordScope::WillCapture() const {
  if (!active_) return false;
  QueryRecord preview = rec_;
  preview.total_millis = ElapsedMillis();
  return QueryLog::Global().ShouldCapture(preview);
}

}  // namespace re2xolap::obs
