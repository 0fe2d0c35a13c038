#ifndef RE2XOLAP_BENCH_E2E_HTTP_PHASE_H_
#define RE2XOLAP_BENCH_E2E_HTTP_PHASE_H_

// The measured run: kClients closed-loop client threads (for ingest_mixed
// three /query readers plus one paced /ingest writer), each with its own
// keep-alive connection to the in-process server, for a warm-up and then
// the measured window. Everything the metrics and checks need is kept in
// HttpPhase.

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/e2e/backends.h"
#include "bench/e2e/workload.h"

namespace re2xolap::e2e {

/// Sampled sessions whose HTTP results the reference replay re-checks.
inline constexpr size_t kVerifySessions = 4;

/// What the clients of a run draw from. The clients take items -- whole
/// sessions, or single pool queries -- from one shared sequence that
/// cycles through a seeded permutation of the list, so every run of a
/// workload does the same mix of work.
struct Inputs {
  std::vector<SessionScript> sessions;            // explore workloads
  QueryPool queries;                              // query_hot, ingest_mixed
  std::vector<ObservationTemplate> observations;  // ingest_mixed
  std::vector<size_t> order;                      // run order of the list

  /// List index of the idx-th item of the run. explore_cold's fixed
  /// script runs each session once; the other workloads cycle.
  size_t Item(size_t idx) const { return order[idx % order.size()]; }
  const SessionScript& Session(size_t idx) const { return sessions[Item(idx)]; }
  const std::string& Query(size_t idx) const { return queries.texts[Item(idx)]; }
};

struct HttpPhase {
  std::vector<OpRecord> ops;         // every client's ops, phase clock
  size_t window_first = 0;           // first item started in the window
  size_t started = 0;                // items started
  double begin_s = 0;                // measured window, phase clock
  double end_s = 0;
  // End of the part of the window in which every client had work: the
  // window end, except for explore_cold, whose fixed script runs dry
  // before its last sessions finish.
  double busy_end_s = 0;
  Scrape before, after;              // GET /metrics at the window edges
  server::ServerStats stats_begin, stats_end;
  engine::EngineCacheStats cache_begin, cache_end;
  uint64_t epoch_begin = 0, epoch_end = 0;
  std::vector<double> chain_depths;  // live_info() every 100 ms
  uint64_t visible_begin = 0;        // live store triples before the writer
  uint64_t batches_sent = 0;
  std::vector<double> ingest_lag_ms; // writer send time minus due time
  double process_cpu_ms = 0;         // process CPU time from window start to the end
  double client_cpu_ms = 0;          // the client threads' share of it
  // One body per distinct table part of each pool query's responses.
  std::map<size_t, std::map<uint64_t, std::string>> query_bodies;
  std::vector<std::pair<size_t, SessionObservation>> observed;
};

inline bool InWindow(const HttpPhase& p, const OpRecord& op) {
  return op.start_s >= p.begin_s && op.start_s + op.ms / 1000.0 <= p.end_s;
}

inline HttpPhase RunHttpPhase(const WorkloadSpec& w, Deployment& d,
                              const Inputs& in, uint64_t seed, double warmup_s,
                              double seconds) {
  HttpPhase p;
  const uint16_t port = d.server->port();
  const Clock::time_point origin = Clock::now();
  const auto warm_end =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(warmup_s));
  const bool fixed_script = w.kind == Kind::kExplore && !w.hot;
  const auto end = warm_end + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      fixed_script ? seconds * kColdCapFactor
                                                   : seconds));
  if (w.kind == Kind::kIngest) {
    p.visible_begin = d.store()->live_info().visible_triples;
  }

  std::mutex mu;
  std::atomic<size_t> next_item{0};
  std::atomic<size_t> first_window{SIZE_MAX};
  std::atomic<size_t> started{0};
  std::atomic<size_t> done_clients{0};
  double exhausted_s = 0;  // explore_cold: when the script ran dry
  const size_t readers = w.kind == Kind::kIngest ? kClients - 1 : kClients;

  // Records that item `idx` starts, and whether it is in the window.
  auto mark = [&](size_t idx) {
    if (Clock::now() >= warm_end) {
      size_t cur = first_window.load();
      while (idx < cur && !first_window.compare_exchange_weak(cur, idx)) {
      }
    }
    size_t prev = started.load();
    while (idx + 1 > prev && !started.compare_exchange_weak(prev, idx + 1)) {
    }
  };

  auto scrape = [&](server::HttpClient& client, Scrape* out) {
    auto resp = client.Get("/metrics");
    if (resp.ok() && resp->status == 200) *out = ParsePrometheus(resp->body);
  };

  auto client_main = [&](size_t t) {
    server::HttpClient client("127.0.0.1", port, /*timeout_millis=*/120'000);
    OpRecorder rec(origin, end);
    bool scraped = false;
    double cpu_begin = -1;
    rec.before_op = [&] {
      if (Clock::now() < warm_end) return;
      if (cpu_begin < 0) cpu_begin = CpuMillis(CLOCK_THREAD_CPUTIME_ID);
      if (t == 0 && !scraped) {
        scraped = true;
        scrape(client, &p.before);
      }
    };
    std::map<size_t, std::map<uint64_t, std::string>> bodies;
    if (w.kind == Kind::kExplore) {
      for (;;) {
        const size_t idx = next_item.fetch_add(1);
        if (fixed_script && idx >= in.sessions.size()) {
          // The script ran dry: from here on fewer clients are busy
          // (the first client to notice records when).
          const double now_s =
              std::chrono::duration<double>(Clock::now() - origin).count();
          std::lock_guard<std::mutex> lock(mu);
          if (exhausted_s == 0) exhausted_s = now_s;
          break;
        }
        if (Clock::now() >= end) break;
        mark(idx);
        const size_t first = first_window.load();
        const bool verify = first != SIZE_MAX && idx < first + kVerifySessions + 2;
        rec.BeginItem(idx);
        HttpExplorer explorer(&client);
        SessionObservation seen;
        RunSession(explorer, in.Session(idx), rec, verify ? &seen : nullptr);
        if (seen.complete) {
          std::lock_guard<std::mutex> lock(mu);
          p.observed.emplace_back(idx, std::move(seen));
        }
      }
    } else {
      while (rec.BeginOp()) {
        const size_t idx = next_item.fetch_add(1);
        mark(idx);
        rec.BeginItem(idx);
        const size_t i = in.Item(idx);
        OpResult res = rec.Timed(
            Route::kQuery, [&] { return HttpQuery(&client, in.queries.texts[i]); });
        if (res.ok && w.kind == Kind::kQuery) {
          const std::string_view table = TablePart(res.body);
          auto& seen = bodies[i];
          const uint64_t h = util::Xxh64(table.data(), table.size());
          if (!seen.count(h)) seen.emplace(h, std::move(res.body));
        }
      }
    }
    if (t == 0) scrape(client, &p.after);
    const double cpu = cpu_begin < 0 ? 0 : CpuMillis(CLOCK_THREAD_CPUTIME_ID) - cpu_begin;
    std::lock_guard<std::mutex> lock(mu);
    p.client_cpu_ms += cpu;
    p.ops.insert(p.ops.end(), rec.ops.begin(), rec.ops.end());
    for (auto& [i, seen] : bodies) p.query_bodies[i].merge(seen);
    done_clients.fetch_add(1);
  };

  // ingest_mixed's writer: open loop at a fixed rate, each batch timed
  // from the moment it was due, so a stall shows in later batches too.
  auto writer_main = [&] {
    server::HttpClient client("127.0.0.1", port, /*timeout_millis=*/120'000);
    std::vector<OpRecord> ops;
    std::vector<double> lag;
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kIngestBatchesPerSecond));
    uint64_t k = 0;
    double cpu_begin = -1;
    for (;; ++k) {
      const Clock::time_point due = origin + interval * static_cast<int64_t>(k);
      if (due >= end) break;
      if (cpu_begin < 0 && due >= warm_end) cpu_begin = CpuMillis(CLOCK_THREAD_CPUTIME_ID);
      const std::string batch = IngestBatch(in.observations, seed, k);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      lag.push_back(std::chrono::duration<double, std::milli>(sent - due).count());
      OpResult res = HttpIngest(&client, batch);
      OpRecord rec;
      rec.route = Route::kIngest;
      rec.ok = res.ok;
      rec.added = res.added;
      rec.start_s = std::chrono::duration<double>(due - origin).count();
      rec.ms = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      ops.push_back(rec);
    }
    const double cpu = cpu_begin < 0 ? 0 : CpuMillis(CLOCK_THREAD_CPUTIME_ID) - cpu_begin;
    std::lock_guard<std::mutex> lock(mu);
    p.client_cpu_ms += cpu;
    p.ops.insert(p.ops.end(), ops.begin(), ops.end());
    p.ingest_lag_ms = std::move(lag);
    p.batches_sent = k;
    done_clients.fetch_add(1);
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < readers; ++t) threads.emplace_back(client_main, t);
  if (w.kind == Kind::kIngest) threads.emplace_back(writer_main);

  std::this_thread::sleep_until(warm_end);
  const double process_cpu_begin = CpuMillis(CLOCK_PROCESS_CPUTIME_ID);
  p.begin_s = warmup_s;
  p.stats_begin = d.server->stats();
  p.cache_begin = d.engine->cache_stats();
  p.epoch_begin = d.store()->freeze_epoch();
  while (done_clients.load() < threads.size() && Clock::now() < end) {
    if (w.kind == Kind::kIngest) {
      p.chain_depths.push_back(
          static_cast<double>(d.store()->live_info().chain_depth));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (std::thread& th : threads) th.join();
  p.process_cpu_ms = CpuMillis(CLOCK_PROCESS_CPUTIME_ID) - process_cpu_begin;
  p.end_s = std::chrono::duration<double>(end - origin).count();
  if (fixed_script) {
    // The window of a fixed script holds all of it.
    p.end_s = 0;
    for (const OpRecord& op : p.ops) {
      p.end_s = std::max(p.end_s, op.start_s + op.ms / 1000.0);
    }
  }
  p.busy_end_s = exhausted_s > 0 ? exhausted_s : p.end_s;
  p.stats_end = d.server->stats();
  p.cache_end = d.engine->cache_stats();
  p.epoch_end = d.store()->freeze_epoch();
  p.started = started.load();
  p.window_first = std::min(first_window.load(), p.started);
  std::sort(p.observed.begin(), p.observed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return p;
}

}  // namespace re2xolap::e2e

#endif  // RE2XOLAP_BENCH_E2E_HTTP_PHASE_H_
