#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "sparql/ast.h"
#include "sparql/explain.h"
#include "sparql/parser.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace re2xolap::engine {

namespace {

struct EngineMetrics {
  obs::Counter& plan_hits;
  obs::Counter& plan_misses;
  obs::Counter& plan_evictions;
  obs::Counter& result_hits;
  obs::Counter& result_misses;
  obs::Counter& result_evictions;
  obs::Counter& retries;
  obs::Histogram& hit_millis;
  obs::Histogram& miss_millis;

  static EngineMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static EngineMetrics m{
        reg.GetCounter("engine.plan_cache.hits"),
        reg.GetCounter("engine.plan_cache.misses"),
        reg.GetCounter("engine.plan_cache.evictions"),
        reg.GetCounter("engine.result_cache.hits"),
        reg.GetCounter("engine.result_cache.misses"),
        reg.GetCounter("engine.result_cache.evictions"),
        reg.GetCounter("engine.retries"),
        reg.GetHistogram("engine.execute.hit.millis"),
        reg.GetHistogram("engine.execute.miss.millis"),
    };
    return m;
  }
};

/// Cache key: freeze epoch | planner flags | normalized query text. The
/// epoch prefix makes entries from a previous index state unreachable
/// even if they survive an invalidation race; the planner flag
/// distinguishes plans (and the results they produce are identical, but
/// keeping the keys uniform costs one byte). Timeouts are deliberately
/// not part of the key: they bound latency, not the answer, and errored
/// runs are never inserted.
std::string CacheKey(const std::string& normalized_query,
                     const sparql::ExecOptions& options, uint64_t epoch) {
  std::string key = std::to_string(epoch);
  key += options.plan.use_join_reordering ? "|r|" : "|-|";
  key += normalized_query;
  return key;
}

/// Stamps the call's outcome on the flight-recorder record and renders
/// the operator tree while the stats sink is still alive when the record
/// qualifies for slow capture.
void FinishRecord(obs::QueryRecordScope& record,
                  const sparql::ExecStats* stats, util::StatusCode code,
                  int retries, uint64_t rows) {
  if (!record.active()) return;
  obs::QueryRecord& rec = record.rec();
  rec.status = static_cast<uint8_t>(code);
  rec.retries = static_cast<uint32_t>(retries);
  rec.rows_out = rows;
  if (stats != nullptr) {
    rec.triples_scanned = stats->triples_scanned;
    rec.intermediate_bindings = stats->intermediate_bindings;
    rec.plan_millis = stats->plan_millis;
    rec.exec_millis = stats->exec_millis;
  }
  if (stats != nullptr && !stats->profile.label.empty() &&
      record.WillCapture()) {
    record.SetDetail(sparql::RenderProfile(stats->profile,
                                           /*include_timing=*/true));
  }
}

}  // namespace

size_t EstimateTableCost(const sparql::ResultTable& table) {
  size_t cost = sizeof(sparql::ResultTable);
  for (const std::string& c : table.columns()) {
    cost += sizeof(std::string) + c.capacity();
  }
  cost += table.rows().capacity() * sizeof(sparql::Row);
  for (const sparql::Row& r : table.rows()) {
    cost += r.capacity() * sizeof(sparql::Cell);
  }
  return cost;
}

QueryEngine::QueryEngine(const rdf::TripleStore& store, EngineConfig config)
    : store_(store),
      config_(config),
      seen_epoch_(store.freeze_epoch()) {
  size_t n_shards = std::max<size_t>(1, config_.result_cache_shards);
  shards_.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<ResultShard>());
  }
}

uint64_t QueryEngine::SyncEpoch() {
  uint64_t epoch = store_.freeze_epoch();
  if (seen_epoch_.load(std::memory_order_acquire) != epoch) {
    InvalidateCaches();
  }
  return epoch;
}

void QueryEngine::InvalidateCaches() {
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    plan_lru_.clear();
    plan_index_.clear();
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
  seen_epoch_.store(store_.freeze_epoch(), std::memory_order_release);
}

EngineCacheStats QueryEngine::cache_stats() const {
  EngineCacheStats s;
  s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  s.plan_evictions = plan_evictions_.load(std::memory_order_relaxed);
  s.result_hits = result_hits_.load(std::memory_order_relaxed);
  s.result_misses = result_misses_.load(std::memory_order_relaxed);
  s.result_evictions = result_evictions_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    s.plan_entries = plan_lru_.size();
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.result_entries += shard->lru.size();
    s.result_bytes += shard->bytes;
  }
  return s;
}

std::shared_ptr<const sparql::Plan> QueryEngine::PlanLookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto it = plan_index_.find(key);
  if (it == plan_index_.end()) return nullptr;
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
  return it->second->plan;
}

void QueryEngine::PlanInsert(const std::string& key,
                             std::shared_ptr<const sparql::Plan> plan) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto it = plan_index_.find(key);
  if (it != plan_index_.end()) {
    // A concurrent miss planned the same query; keep the incumbent.
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
    return;
  }
  plan_lru_.push_front(PlanEntry{key, std::move(plan)});
  plan_index_[key] = plan_lru_.begin();
  while (plan_lru_.size() > config_.plan_cache_capacity) {
    plan_index_.erase(plan_lru_.back().key);
    plan_lru_.pop_back();
    plan_evictions_.fetch_add(1, std::memory_order_relaxed);
    EngineMetrics::Get().plan_evictions.Inc();
  }
}

QueryEngine::ResultShard& QueryEngine::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

TableHandle QueryEngine::ResultLookup(const std::string& key,
                                      uint64_t* fingerprint) {
  ResultShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (fingerprint != nullptr) *fingerprint = it->second->fingerprint;
  return it->second->table;
}

void QueryEngine::ResultInsert(const std::string& key,
                               const TableHandle& table,
                               uint64_t fingerprint) {
  // Fault-injection site: `cache.insert=skip` turns the cache write into
  // a no-op (the caller still gets its result; only reuse is lost).
  if (util::FailpointSkip("cache.insert")) return;
  const size_t cost = EstimateTableCost(*table);
  const size_t budget =
      std::max<size_t>(1, config_.result_cache_bytes / shards_.size());
  // An entry bigger than a whole shard's budget would evict everything
  // and immediately exceed the budget itself — don't admit it.
  if (cost > budget) return;
  ResultShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;  // concurrent miss cached the same result first
  }
  shard.lru.push_front(ResultEntry{key, table, cost, fingerprint});
  shard.index[key] = shard.lru.begin();
  shard.bytes += cost;
  while (shard.bytes > budget && shard.lru.size() > 1) {
    ResultEntry& victim = shard.lru.back();
    shard.bytes -= victim.cost;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    result_evictions_.fetch_add(1, std::memory_order_relaxed);
    EngineMetrics::Get().result_evictions.Inc();
  }
}

util::Result<TableHandle> QueryEngine::Execute(
    const sparql::SelectQuery& query, const sparql::ExecOptions& options,
    sparql::ExecStats* stats) {
  EngineMetrics& metrics = EngineMetrics::Get();
  obs::Span span("engine.execute");
  util::WallTimer timer;
  // The record shares the timer's clock read: a recorded cache hit costs
  // zero clock reads beyond what the latency histogram already takes.
  obs::QueryRecordScope record(obs::QueryOp::kEngineExecute,
                               obs::TraceMicrosAt(timer.start()));

  // An already expired / cancelled / over-budget request does no work at
  // all — not even a cache probe.
  if (options.guard != nullptr) {
    util::Status guard_status = options.guard->Check();
    if (!guard_status.ok()) {
      span.SetAttr("status", util::StatusCodeToString(guard_status.code()));
      if (record.active()) {
        // Identity still matters on the reject path: guard-tripped
        // records land in the slow-query log with their query text.
        record.SetQueryText(sparql::ToSparql(query));
        record.rec().status = static_cast<uint8_t>(guard_status.code());
      }
      return guard_status;
    }
  }

  // Pin the store's epoch chain for the whole request (no-op on classic
  // stores): every index read below — cache-key epoch, planning stats,
  // execution — sees one consistent chain even while ingest or compaction
  // publish newer epochs concurrently.
  rdf::TripleStore::ReadPin pin(store_);
  const uint64_t epoch = SyncEpoch();
  span.SetAttr("epoch", epoch);
  std::string normalized = sparql::ToSparql(query);
  const std::string key = CacheKey(normalized, options, epoch);
  if (record.active()) {
    record.rec().freeze_epoch = epoch;
    // Fingerprinting waits until the cache outcome is known: hits reuse
    // the fingerprint stored with the cached entry.
  }

  // Profiled runs bypass the result cache: EXPLAIN ANALYZE has to observe
  // a real execution, and its operator tree would be meaningless for a
  // table served from memory.
  const bool use_result_cache =
      config_.result_cache_bytes > 0 && !options.profile;

  if (use_result_cache) {
    uint64_t cached_fingerprint = 0;
    if (TableHandle hit = ResultLookup(key, &cached_fingerprint)) {
      result_hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.result_hits.Inc();
      // A hit scans nothing and plans nothing; see ExplorationStats for
      // the same convention.
      if (stats != nullptr) *stats = sparql::ExecStats{};
      const double hit_millis = timer.ElapsedMillis();
      metrics.hit_millis.Observe(hit_millis);
      span.SetAttr("cache", "hit");
      span.SetAttr("rows", static_cast<uint64_t>(hit->rows().size()));
      span.SetAttr("status", "OK");
      if (record.active()) {
        record.rec().cache = obs::CacheOutcome::kHit;
        record.rec().rows_out = hit->rows().size();
        // Hand the record the latency we just measured, so its scope
        // destructor skips a second clock read.
        record.rec().total_millis = hit_millis;
        record.SetQueryText(std::move(normalized), cached_fingerprint);
      }
      return hit;
    }
    result_misses_.fetch_add(1, std::memory_order_relaxed);
    metrics.result_misses.Inc();
  }
  span.SetAttr("cache", use_result_cache ? "miss" : "bypass");
  if (record.active()) {
    record.rec().cache =
        use_result_cache ? obs::CacheOutcome::kMiss : obs::CacheOutcome::kBypass;
    record.SetQueryText(std::move(normalized));
  }

  // From here on a stats sink is always present when the recorder is
  // active, so slow and guard-tripped runs carry an operator tree.
  sparql::ExecStats local_stats;
  if (record.active() && stats == nullptr) stats = &local_stats;

  // Resolve the plan once: a cache hit or a single planning pass. ASK
  // queries are rewritten into existence probes before planning, so the
  // executor plans them itself and no plan applies here.
  std::shared_ptr<const sparql::Plan> plan;
  if (!query.is_ask) {
    const bool use_plan_cache = config_.plan_cache_capacity > 0;
    if (use_plan_cache) plan = PlanLookup(key);
    if (plan != nullptr) {
      plan_hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.plan_hits.Inc();
      if (stats != nullptr) stats->plan_millis = 0;
    } else {
      if (use_plan_cache) {
        plan_misses_.fetch_add(1, std::memory_order_relaxed);
        metrics.plan_misses.Inc();
      }
      util::WallTimer plan_timer;
      util::Result<sparql::Plan> planned =
          sparql::PlanQuery(store_, query, options.plan);
      if (!planned.ok()) {
        span.SetAttr("status",
                     util::StatusCodeToString(planned.status().code()));
        FinishRecord(record, stats, planned.status().code(), /*retries=*/0,
                     /*rows=*/0);
        return planned.status();
      }
      if (stats != nullptr) stats->plan_millis = plan_timer.ElapsedMillis();
      plan = std::make_shared<const sparql::Plan>(std::move(planned).value());
      if (use_plan_cache) PlanInsert(key, plan);
    }
  }

  // Execution proper, with bounded retry on transient (kUnavailable)
  // failures — including those injected via the `engine.execute`
  // failpoint. The cache lookups and planning above run exactly once per
  // logical Execute, so hit/miss counters are unaffected by retries.
  util::Result<sparql::ResultTable> executed = util::Status::Internal("");
  int attempt = 0;
  for (;; ++attempt) {
    util::Status fp = util::FailpointStatus("engine.execute");
    // Re-check the guard per attempt: a request cancelled or expired
    // while this loop slept (injected delay, retry backoff) must not
    // start another execution — the executor's own polling only fires
    // every few batches, too late for small queries.
    if (options.guard != nullptr) {
      if (util::Status st = options.guard->Check(); !st.ok()) {
        executed = st;
        break;
      }
    }
    if (!fp.ok()) {
      executed = fp;
    } else {
      executed = sparql::Execute(store_, query, plan.get(), options, stats);
    }
    if (executed.ok() || !executed.status().IsUnavailable() ||
        attempt >= config_.max_transient_retries) {
      break;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    metrics.retries.Inc();
    if (config_.retry_backoff_millis > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          config_.retry_backoff_millis << attempt));
    }
  }
  if (!executed.ok()) {
    span.SetAttr("status", util::StatusCodeToString(executed.status().code()));
    FinishRecord(record, stats, executed.status().code(), attempt, /*rows=*/0);
    return executed.status();
  }

  auto handle = std::make_shared<const sparql::ResultTable>(
      std::move(executed).value());
  if (use_result_cache) {
    ResultInsert(key, handle, record.rec().fingerprint);
  }
  metrics.miss_millis.Observe(timer.ElapsedMillis());
  span.SetAttr("rows", static_cast<uint64_t>(handle->rows().size()));
  span.SetAttr("status", "OK");
  FinishRecord(record, stats, util::StatusCode::kOk, attempt,
               handle->rows().size());
  return TableHandle(handle);
}

util::Result<TableHandle> QueryEngine::ExecuteText(
    std::string_view text, const sparql::ExecOptions& options,
    sparql::ExecStats* stats) {
  util::Result<sparql::SelectQuery> query = sparql::ParseQuery(text);
  if (!query.ok()) {
    // Unparseable text never reaches Execute, so its record is written
    // here, fingerprinted on the raw text (there is no normalized form).
    obs::QueryRecordScope record(obs::QueryOp::kEngineExecute);
    if (record.active()) {
      record.SetQueryText(std::string(text));
      record.rec().freeze_epoch = store_.freeze_epoch();
      record.rec().status = static_cast<uint8_t>(query.status().code());
    }
    return query.status();
  }
  return Execute(*query, options, stats);
}

util::Status QueryEngine::SaveSnapshot(
    const std::string& path,
    const storage::SnapshotWriteOptions& options) const {
  return storage::SaveSnapshot(path, store_, /*text=*/nullptr,
                               /*vsg=*/nullptr, options);
}

util::Result<EngineSnapshot> QueryEngine::OpenSnapshot(
    const std::string& path, const storage::SnapshotLoadOptions& options,
    EngineConfig config) {
  RE2X_ASSIGN_OR_RETURN(storage::LoadedSnapshot data,
                        storage::LoadSnapshot(path, options));
  EngineSnapshot out;
  out.data = std::move(data);
  out.engine = std::make_unique<QueryEngine>(*out.data.store, config);
  return out;
}

}  // namespace re2xolap::engine
