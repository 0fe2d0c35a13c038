// Closed-loop load harness for the HTTP front door (ISSUE PR 9): 64
// concurrent clients drive POST /query against a live server::Server
// over a generated Eurostat-shaped dataset, in two phases:
//
//   steady    capacity C = 8 workers, deep queue: every request admitted;
//             measures end-to-end QPS and p50/p99/p99.9 latency through
//             the full socket -> admission queue -> engine -> response
//             path (result cache warm after the first pass, as in a real
//             exploration session re-executing queries).
//   overload  C = 4, queue of 8, and a 10ms injected delay per engine
//             execution (engine.execute failpoint): demand exceeds
//             service rate, so admission control must shed. Verifies the
//             robustness contract under pressure: every response is a
//             well-formed 200 / 503(+Retry-After) / 504, in-flight
//             executions never exceed C, and the server stays up.
//
// Ends with a drain measurement: RequestStop + Stop while clients are
// still issuing requests, timing the graceful drain. Results land in
// BENCH_server.json.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "engine/query_engine.h"
#include "server/http_client.h"
#include "server/server.h"
#include "sparql/ast.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace re2xolap {
namespace {

struct LoadResult {
  std::vector<double> latencies_millis;  // successful (200) requests
  uint64_t ok = 0;
  uint64_t shed_503 = 0;          // 503 with Retry-After
  uint64_t unavailable_503 = 0;   // 503 without Retry-After
  uint64_t timeout_504 = 0;
  uint64_t other = 0;
  uint64_t transport_errors = 0;
  double wall_millis = 0;
};

/// `clients` closed-loop threads, each with its own keep-alive
/// connection, hammering POST /query for `duration_millis`.
LoadResult RunClosedLoop(uint16_t port, size_t clients,
                         const std::vector<std::string>& queries,
                         uint64_t duration_millis) {
  LoadResult total;
  std::vector<LoadResult> per_thread(clients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  util::WallTimer wall;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient client("127.0.0.1", port, /*timeout_millis=*/10'000);
      LoadResult& mine = per_thread[t];
      size_t i = t;  // stagger which query each client starts with
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& q = queries[i++ % queries.size()];
        util::WallTimer timer;
        auto resp = client.Post("/query?timeout_ms=5000", q);
        if (!resp.ok()) {
          ++mine.transport_errors;
          continue;
        }
        switch (resp->status) {
          case 200:
            ++mine.ok;
            mine.latencies_millis.push_back(timer.ElapsedMillis());
            break;
          case 503:
            if (!resp->Header("retry-after").empty()) {
              ++mine.shed_503;
            } else {
              ++mine.unavailable_503;
            }
            break;
          case 504:
            ++mine.timeout_504;
            break;
          default:
            ++mine.other;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_millis));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  total.wall_millis = wall.ElapsedMillis();
  for (LoadResult& mine : per_thread) {
    total.ok += mine.ok;
    total.shed_503 += mine.shed_503;
    total.unavailable_503 += mine.unavailable_503;
    total.timeout_504 += mine.timeout_504;
    total.other += mine.other;
    total.transport_errors += mine.transport_errors;
    total.latencies_millis.insert(total.latencies_millis.end(),
                                  mine.latencies_millis.begin(),
                                  mine.latencies_millis.end());
  }
  return total;
}

void RecordPhase(bench::JsonBenchLog& log, const std::string& phase,
                 size_t clients, const server::ServerStats& stats,
                 LoadResult result) {
  const double qps =
      result.wall_millis > 0
          ? static_cast<double>(result.ok) / (result.wall_millis / 1000.0)
          : 0;
  log.AddRecord()
      .Str("phase", phase)
      .Int("clients", static_cast<long long>(clients))
      .Int("ok", static_cast<long long>(result.ok))
      .Int("shed_503", static_cast<long long>(result.shed_503))
      .Int("unavailable_503", static_cast<long long>(result.unavailable_503))
      .Int("timeout_504", static_cast<long long>(result.timeout_504))
      .Int("other", static_cast<long long>(result.other))
      .Int("transport_errors", static_cast<long long>(result.transport_errors))
      .Num("wall_millis", result.wall_millis)
      .Num("qps", qps)
      .Num("p50_millis", bench::Percentile(result.latencies_millis, 0.50))
      .Num("p99_millis", bench::Percentile(result.latencies_millis, 0.99))
      .Num("p999_millis", bench::Percentile(result.latencies_millis, 0.999))
      .Int("server_max_inflight", static_cast<long long>(stats.max_inflight))
      .Int("server_shed", static_cast<long long>(stats.shed))
      .Int("server_requests", static_cast<long long>(stats.requests));
  std::cout << phase << ": " << clients << " clients, " << result.ok
            << " ok (" << bench::Ms(qps) << " qps), " << result.shed_503
            << " shed, p50="
            << bench::Ms(bench::Percentile(result.latencies_millis, 0.5))
            << "ms p99="
            << bench::Ms(bench::Percentile(result.latencies_millis, 0.99))
            << "ms, server peak in-flight " << stats.max_inflight << "\n";
}

}  // namespace
}  // namespace re2xolap

int main() {
  using namespace re2xolap;
  const size_t kClients = 64;

  uint64_t obs = bench::DefaultObservations("Eurostat") / 4;
  bench::BenchEnv env = bench::MakeEnv("Eurostat", obs);
  engine::QueryEngine engine(env.store());

  // Synthesize a small pool of real exploration queries via ReOLAP so
  // the server executes what a session actually would.
  std::vector<std::string> queries;
  {
    core::Session session(&env.store(), env.vsg.get(), env.text.get(),
                          &engine);
    util::Rng rng(42);
    for (int attempt = 0; attempt < 16 && queries.size() < 6; ++attempt) {
      std::vector<std::string> tuple = bench::SampleExampleTuple(env, 2, rng);
      if (tuple.empty()) continue;
      auto candidates = session.Start(tuple);
      if (!candidates.ok()) continue;
      for (const core::CandidateQuery& c : *candidates) {
        if (queries.size() < 6) queries.push_back(sparql::ToSparql(c.query));
      }
    }
  }
  if (queries.empty()) {
    std::cerr << "no queries synthesized; dataset too small?\n";
    return 1;
  }
  std::cout << "query pool: " << queries.size() << " synthesized queries\n";

  bench::JsonBenchLog log("server");

  // Phase 1: steady state, everything admitted.
  {
    server::Dataset dataset{&env.store(), &engine, env.vsg.get(),
                            env.text.get()};
    server::ServerConfig config;
    config.worker_threads = 8;
    config.queue_capacity = 256;
    server::Server srv(dataset, config);
    if (util::Status st = srv.Start(); !st.ok()) {
      std::cerr << "start: " << st << "\n";
      return 1;
    }
    LoadResult r = RunClosedLoop(srv.port(), kClients, queries, 3000);
    server::ServerStats stats = srv.stats();
    srv.Stop();
    if (stats.max_inflight > config.worker_threads) {
      std::cerr << "FAIL: in-flight " << stats.max_inflight << " exceeded C="
                << config.worker_threads << "\n";
      return 1;
    }
    RecordPhase(log, "steady", kClients, stats, std::move(r));
  }

  // Phase 2: overload — capacity 4, queue 8, 10ms injected execution
  // delay; 64 closed-loop clients exceed the service rate and the
  // admission queue must shed.
  {
    server::Dataset dataset{&env.store(), &engine, env.vsg.get(),
                            env.text.get()};
    server::ServerConfig config;
    config.worker_threads = 4;
    config.queue_capacity = 8;
    server::Server srv(dataset, config);
    if (util::Status st = srv.Start(); !st.ok()) {
      std::cerr << "start: " << st << "\n";
      return 1;
    }
    util::Status fp = util::FailpointRegistry::Global().Configure(
        "engine.execute=delay:10");
    if (!fp.ok()) {
      std::cerr << "failpoint: " << fp << "\n";
      return 1;
    }
    LoadResult r = RunClosedLoop(srv.port(), kClients, queries, 2000);
    util::FailpointRegistry::Global().DisarmAll();
    server::ServerStats stats = srv.stats();

    // Drain while clients would still be coming: time Stop itself.
    util::WallTimer drain;
    srv.Stop();
    const double drain_millis = drain.ElapsedMillis();

    if (stats.max_inflight > config.worker_threads) {
      std::cerr << "FAIL: in-flight " << stats.max_inflight << " exceeded C="
                << config.worker_threads << "\n";
      return 1;
    }
    if (r.shed_503 == 0) {
      std::cerr << "FAIL: overload phase produced no shed responses\n";
      return 1;
    }
    RecordPhase(log, "overload", kClients, stats, std::move(r));
    log.AddRecord()
        .Str("phase", "drain")
        .Num("drain_millis", drain_millis)
        .Int("server_shed", static_cast<long long>(stats.shed));
    std::cout << "drain: " << bench::Ms(drain_millis) << "ms\n";
  }

  log.Write("BENCH_server.json");
  return 0;
}
