#ifndef RE2XOLAP_BENCH_E2E_REPLAY_H_
#define RE2XOLAP_BENCH_E2E_REPLAY_H_

// The in-process replay of a finished HTTP phase: the same client threads
// perform the same seeded operations (the warm-up part untimed, then the
// window part) directly on core::Session / engine::QueryEngine /
// store::Ingestor, over a fresh engine with the server's cache settings.
// With the tracer on, the bench-owned spans of backends.h record every
// call; the same replay with it off gives the wall time that
// trace.overhead_ratio compares against. Also the traced run's probes of
// the cache-hit path and of the front door's share of a Start.

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/e2e/http_phase.h"

namespace re2xolap::e2e {

/// Distinct queries whose cache-hit path the traced run times.
inline constexpr size_t kHitProbes = 32;

/// Times the engine's result-cache hit path on up to kHitProbes distinct
/// `queries` (first-seen order), once nothing writes: each is executed
/// until cached, then once more under an "e2e.engine.hit_probe" span.
/// Queries whose results the cache would not admit are skipped.
inline void ProbeHits(engine::QueryEngine& engine,
                      const std::vector<std::string>& queries) {
  const engine::EngineConfig& config = engine.config();
  const size_t admit = config.result_cache_bytes / config.result_cache_shards;
  std::unordered_set<std::string> seen;
  for (const std::string& text : queries) {
    if (seen.size() == kHitProbes) break;
    if (!seen.insert(text).second) continue;
    auto first = engine.ExecuteText(text);
    if (!first.ok() || engine::EstimateTableCost(**first) > admit) continue;
    obs::Span span("e2e.engine.hit_probe");
    sparql::ExecStats stats;
    auto again = engine.ExecuteText(text, {}, &stats);
    span.SetAttr("hit", static_cast<uint64_t>(again.ok() && IsHit(stats)));
  }
}

/// Sessions and rounds per session of ProbeStartOverhead.
inline constexpr size_t kStartProbes = 8;
inline constexpr size_t kStartRounds = 5;

/// What the front door adds to a Start request, which reports no engine
/// time of its own: once the load has stopped, the Start of each of the
/// first kStartProbes sessions of the list runs once in-process to warm
/// the caches, then kStartRounds times over HTTP and in-process by turns,
/// on the server's own engine. Returns the median over sessions of the
/// difference between their median HTTP and in-process latencies (0 when
/// the workload has no sessions).
inline double ProbeStartOverhead(Deployment& d, const Inputs& in) {
  server::HttpClient client("127.0.0.1", d.server->port(), 120'000);
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  std::vector<double> diffs;
  for (size_t i = 0; i < std::min(kStartProbes, in.sessions.size()); ++i) {
    const std::vector<std::string>& tuple = in.sessions[i].tuple;
    LocalExplorer local(d.env, d.engine.get());
    local.Create();
    local.Start(tuple);
    std::vector<double> http_ms, local_ms;
    for (size_t round = 0; round < kStartRounds; ++round) {
      HttpExplorer remote(&client);
      if (!remote.Create().ok) return 0;
      Clock::time_point t0 = Clock::now();
      const bool ok = remote.Start(tuple).ok;
      http_ms.push_back(ms_since(t0));
      remote.Delete();
      t0 = Clock::now();
      if (!ok || !local.Start(tuple).ok) return 0;
      local_ms.push_back(ms_since(t0));
    }
    diffs.push_back(Percentile(http_ms, 0.5) - Percentile(local_ms, 0.5));
  }
  return Percentile(diffs, 0.5);
}

/// Replays the phase and returns the wall time (s) of its window part;
/// `probe_hits` adds the ProbeHits step at the end.
inline double Replay(const WorkloadSpec& w, Deployment& d, const Inputs& in,
                     const HttpPhase& p, uint64_t seed, uint64_t* next_batch,
                     bool probe_hits) {
  engine::QueryEngine engine(*d.store());
  std::vector<std::string> executed;
  std::mutex mu;

  // Items [first, last) on every client thread. For ingest_mixed the last
  // thread is the writer, which keeps its rate while the window's readers
  // run.
  auto items = [&](size_t first, size_t last, bool window) {
    const Clock::time_point origin = Clock::now();
    std::atomic<size_t> next{first};
    std::atomic<bool> readers_done{false};
    std::atomic<size_t> running{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClients; ++t) {
      const bool writer = w.kind == Kind::kIngest && t == kClients - 1;
      if (!writer) running.fetch_add(1);
      threads.emplace_back([&, writer] {
        OpRecorder rec(origin, Clock::time_point::max(), /*record=*/false);
        std::vector<std::string> texts;
        if (writer && window) {
          const auto interval = std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(1.0 / kIngestBatchesPerSecond));
          for (int64_t k = 0; !readers_done.load(); ++k) {
            const std::string batch =
                IngestBatch(in.observations, seed, (*next_batch)++);
            std::this_thread::sleep_until(origin + interval * k);
            rec.Timed(Route::kIngest,
                      [&] { return LocalIngest(d.ingestor.get(), batch); });
          }
        }
        for (size_t idx = next.fetch_add(1); !writer && idx < last;
             idx = next.fetch_add(1)) {
          rec.BeginItem(idx);
          if (w.kind == Kind::kExplore) {
            LocalExplorer explorer(d.env, &engine, &texts);
            RunSession(explorer, in.Session(idx), rec, nullptr);
          } else {
            rec.Timed(Route::kQuery,
                      [&] { return LocalQuery(&engine, in.Query(idx)); });
          }
        }
        if (!writer && running.fetch_sub(1) == 1) readers_done.store(true);
        std::lock_guard<std::mutex> lock(mu);
        executed.insert(executed.end(), texts.begin(), texts.end());
      });
    }
    for (std::thread& th : threads) th.join();
    return std::chrono::duration<double>(Clock::now() - origin).count();
  };

  items(0, p.window_first, false);
  const double wall_s = items(p.window_first, p.started, true);
  if (probe_hits) {
    ProbeHits(engine, w.kind == Kind::kExplore ? executed : in.queries.texts);
  }
  return wall_s;
}

}  // namespace re2xolap::e2e

#endif  // RE2XOLAP_BENCH_E2E_REPLAY_H_
