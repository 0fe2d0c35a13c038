// End-to-end exploration benchmark: one workload per process against an
// in-process server::Server driven over real HTTP (see README.md).
//
//   bench_e2e --workload=W --seed=S [--seconds=N] [--trace-dir=DIR]
//             [--out=FILE] [--smoke]
//
// Without --trace-dir the run reports the end-to-end metrics; with it, a
// traced run replays the same client scripts in-process under
// bench-owned spans and reports the per-layer metrics, writing a Chrome
// trace and a per-layer JSON into DIR. Every run checks its answers and
// prints, as its last line, {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every check passed.

#include <sys/resource.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench/e2e/replay.h"

namespace re2xolap::e2e {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;  // non-empty = traced run
  std::string out;
  bool smoke = false;
};

/// Set-ups per untraced run: at least kSetups, and more for fast ones,
/// until they took kMinSetupSeconds together (at most kMaxSetups).
/// setup_s is their median.
constexpr size_t kSetups = 5;
constexpr size_t kMaxSetups = 20;
constexpr double kMinSetupSeconds = 2;

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* key) -> const char* {
      const size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) o->workload = v;
    else if (const char* v = value("--seed=")) o->seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds=")) o->seconds = std::strtod(v, nullptr);
    else if (const char* v = value("--trace-dir=")) o->trace_dir = v;
    else if (const char* v = value("--out=")) o->out = v;
    else if (a == "--smoke") o->smoke = true;
    else return false;
  }
  return !o->workload.empty() && o->seconds > 0;
}

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const {
    if (checks.empty()) return false;
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

// --- correctness ------------------------------------------------------------

engine::EngineConfig CachesOff() {
  engine::EngineConfig c;
  c.plan_cache_capacity = 0;
  c.result_cache_bytes = 0;
  return c;
}

/// query_hot: every distinct table part a pool query's responses carried
/// must equal the uncached answer computed when the pool was built.
Check CheckQueryResponses(const HttpPhase& p, const QueryPool& pool) {
  Check c{"query responses equal the uncached engine", true, ""};
  size_t bodies = 0;
  for (const auto& [i, seen] : p.query_bodies) {
    for (const auto& [hash, body] : seen) {
      RowDigest got;
      ++bodies;
      if (!DigestResponseRows(body, &got) || !(got == pool.reference[i])) {
        c.ok = false;
        c.detail = "query " + std::to_string(i) + " answered " +
                   std::to_string(got.rows) + " rows, expected " +
                   std::to_string(pool.reference[i].rows);
        return c;
      }
    }
  }
  c.ok = bodies > 0;
  c.detail = std::to_string(bodies) + " distinct bodies of " +
             std::to_string(p.query_bodies.size()) + " queries";
  return c;
}

/// Explore workloads: sampled sessions replayed in-process on an engine
/// with both caches off must see the same options and results.
Check CheckSessions(Deployment& d, const Inputs& in, const HttpPhase& p,
                    size_t required) {
  Check c{"sampled sessions equal an uncached replay", true, ""};
  engine::QueryEngine uncached(*d.store(), CachesOff());
  size_t verified = 0;
  for (const auto& [idx, seen] : p.observed) {
    if (verified == kVerifySessions) break;
    LocalExplorer explorer(d.env, &uncached);
    OpRecorder rec(Clock::now(), Clock::time_point::max(), /*record=*/false);
    SessionObservation ref;
    RunSession(explorer, in.Session(idx), rec, &ref);
    if (ref.options != seen.options || !(ref.results == seen.results)) {
      c.ok = false;
      c.detail = "session " + std::to_string(idx) + " differs";
      return c;
    }
    ++verified;
  }
  c.ok = verified >= required;
  c.detail = std::to_string(verified) + " sessions verified";
  return c;
}

/// ingest_mixed, after the writer stopped and the chain is compacted:
/// every pool query answers as an uncached engine on the same store, and
/// the acknowledged additions account for the store's growth.
std::vector<Check> CheckIngest(Deployment& d, const Inputs& in,
                               const HttpPhase& p) {
  std::vector<Check> checks;
  util::Status compacted = d.ingestor->Compact();
  uint64_t added = 0;
  for (const OpRecord& op : p.ops) {
    if (op.route == Route::kIngest && op.ok) added += op.added;
  }
  const uint64_t visible = d.store()->live_info().visible_triples;
  checks.push_back({"acknowledged additions equal store growth",
                    compacted.ok() && visible - p.visible_begin == added,
                    std::to_string(added) + " acknowledged, store grew by " +
                        std::to_string(visible - p.visible_begin)});

  // One thread per client connection; each checks every kClients-th query.
  engine::QueryEngine uncached(*d.store(), CachesOff());
  Check c{"final answers equal the uncached engine", true, ""};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient client("127.0.0.1", d.server->port(), 120'000);
      for (size_t i = t; i < in.queries.texts.size(); i += kClients) {
        OpResult res = HttpQuery(&client, in.queries.texts[i]);
        auto table = uncached.ExecuteText(in.queries.texts[i]);
        RowDigest got;
        if (res.ok && table.ok() && DigestResponseRows(res.body, &got) &&
            got == DigestTable(**table)) {
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        c.ok = false;
        c.detail = "query " + std::to_string(i) + " differs";
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (c.ok) c.detail = std::to_string(in.queries.texts.size()) + " queries";
  checks.push_back(c);
  return checks;
}

// --- metrics ----------------------------------------------------------------

/// The metrics BENCHMARK.json bounds as end-to-end, reported by untraced
/// runs: the ones that repeat within 10 % on every workload (README.md
/// has the measured spreads). A traced run reports the per-layer metrics
/// and, beside them, the client-side numbers not named here.
const std::set<std::string>& EndToEndNames() {
  static const std::set<std::string> names = {"setup_s", "rss_setup_mb"};
  return names;
}

bool Counted(const WorkloadSpec& w, const OpRecord& op) {
  return w.kind != Kind::kIngest || op.route == Route::kQuery;
}

bool Executes(const OpRecord& op) {
  return op.route == Route::kExecute || op.route == Route::kQuery;
}

auto OnRoute(Route want) {
  return [want](const OpRecord& op) { return op.route == want; };
}

/// Latencies (ms) of the window's successful ops matching `pred`.
template <typename Pred>
std::vector<double> Latencies(const HttpPhase& p, Pred pred) {
  std::vector<double> v;
  for (const OpRecord& op : p.ops) {
    if (op.ok && InWindow(p, op) && pred(op)) v.push_back(op.ms);
  }
  return v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double RssPeakMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Successful ops matching `pred` completed per second while every client
/// was busy. An op that straddles an edge of that span counts with the
/// share of its duration inside it, so slow ops do not quantize the rate.
template <typename Pred>
double Rate(const HttpPhase& p, Pred pred) {
  double done = 0;
  for (const OpRecord& op : p.ops) {
    if (!op.ok || !pred(op)) continue;
    const double start = op.start_s, end = op.start_s + op.ms / 1000.0;
    const double inside = std::min(end, p.busy_end_s) - std::max(start, p.begin_s);
    if (inside > 0) done += end > start ? inside / (end - start) : 1;
  }
  return Ratio(done, p.busy_end_s - p.begin_s);
}

/// Geometric mean, over the distinct requests of the window, of each
/// one's fastest latency. Two ops are the same request when they come
/// from the same session (or pool query) of the list at the same step.
/// Contention from other tenants of the host only ever slows a request
/// down, so the fastest repetition is the steadiest figure for its cost;
/// a request made once counts with its one latency.
double LatencyFloor(const WorkloadSpec& w, const Inputs& in, const HttpPhase& p) {
  std::map<std::pair<size_t, size_t>, double> fastest;
  for (const OpRecord& op : p.ops) {
    if (!op.ok || !InWindow(p, op) || !Counted(w, op)) continue;
    auto [it, fresh] = fastest.try_emplace({in.Item(op.item), op.step}, op.ms);
    if (!fresh) it->second = std::min(it->second, op.ms);
  }
  double log_sum = 0;
  for (const auto& [request, ms] : fastest) log_sum += std::log(std::max(ms, 1e-6));
  return fastest.empty() ? 0 : std::exp(log_sum / static_cast<double>(fastest.size()));
}

/// What the clients saw in the measured window, plus set-up time and
/// memory.
std::vector<Metric> ClientMetrics(const WorkloadSpec& w, const Inputs& in,
                                  const HttpPhase& p, const Report& r,
                                  const std::vector<double>& setup_s,
                                  double rss_setup_mb) {
  const auto counted = Latencies(p, [&](const OpRecord& op) { return Counted(w, op); });
  const auto executes = Latencies(p, Executes);
  const auto acks = Latencies(p, OnRoute(Route::kIngest));
  return {
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"rss_setup_mb", rss_setup_mb, "MiB"},
      {"throughput_rps", Rate(p, [&](const OpRecord& op) { return Counted(w, op); }),
       "1/s"},
      {"latency_p50_ms", Percentile(counted, 0.5), "ms"},
      {"latency_p90_ms", Percentile(counted, 0.9), "ms"},
      {"latency_p99_ms", Percentile(counted, 0.99), "ms"},
      {"latency_floor_ms", LatencyFloor(w, in, p), "ms"},
      {"latency_samples", static_cast<double>(counted.size()), "count"},
      {"execute_p50_ms", Percentile(executes, 0.5), "ms"},
      {"execute_p90_ms", Percentile(executes, 0.9), "ms"},
      {"rss_peak_mb", RssPeakMiB(), "MiB"},
      {"failed_share",
       Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio"},
      {"sessions_per_s", Rate(p, OnRoute(Route::kDelete)), "1/s"},
      {"start_p50_ms", Percentile(Latencies(p, OnRoute(Route::kStart)), 0.5), "ms"},
      {"refine_p50_ms", Percentile(Latencies(p, OnRoute(Route::kRefine)), 0.5), "ms"},
      {"ingest_ack_p50_ms", Percentile(acks, 0.5), "ms"},
      {"ingest_ack_p90_ms", Percentile(acks, 0.9), "ms"},
      {"ingest_lag_p90_ms", Percentile(p.ingest_lag_ms, 0.9), "ms"},
  };
}

double Attr(const obs::SpanEvent& ev, const char* key) {
  for (const obs::SpanAttr& a : ev.attrs) {
    if (a.key == key) return std::strtod(a.value.c_str(), nullptr);
  }
  return 0;
}

std::string AttrText(const obs::SpanEvent& ev, const char* key) {
  for (const obs::SpanAttr& a : ev.attrs) {
    if (a.key == key) return a.value;
  }
  return "";
}

/// p50 over the window's successful `route` requests of the HTTP latency
/// minus the plan + exec time the response reported: what the front door
/// and the engine's bookkeeping add to each request.
double OverheadP50(const HttpPhase& p, Route route) {
  std::vector<double> v;
  for (const OpRecord& op : p.ops) {
    if (op.ok && op.route == route && InWindow(p, op)) v.push_back(op.ms - op.engine_ms);
  }
  return Percentile(v, 0.5);
}

std::vector<Metric> LayerMetrics(const WorkloadSpec& w, Deployment& d,
                                 const Inputs& in, const HttpPhase& p,
                                 double start_overhead_ms, double wall_off,
                                 double wall_on) {
  // Spans of the traced replay (and, for the /query workloads, of the
  // pool synthesis, which holds their only Start/Refine calls).
  std::vector<double> hit_us, miss_ms, plan_ms, exec_ms, start_ms, refine_ms,
      similarity_ms, ingest_ms;
  double scanned = 0, bindings = 0, miss_rows = 0;
  for (const obs::SpanEvent& ev : obs::Tracer::Global().Snapshot()) {
    const double ms = ev.dur_micros / 1000.0;
    if (ev.name == "e2e.engine.hit_probe") {
      if (Attr(ev, "hit") != 0) hit_us.push_back(ev.dur_micros);
    } else if (ev.name == "e2e.engine.execute") {
      if (Attr(ev, "hit") == 0) {
        miss_ms.push_back(ms);
        exec_ms.push_back(Attr(ev, "exec_ms"));
        if (Attr(ev, "plan_ms") > 0) plan_ms.push_back(Attr(ev, "plan_ms"));
        scanned += Attr(ev, "scanned");
        bindings += Attr(ev, "bindings");
        miss_rows += Attr(ev, "rows");
      }
    } else if (ev.name == "e2e.core.start") {
      start_ms.push_back(ms);
    } else if (ev.name == "e2e.core.refine") {
      refine_ms.push_back(ms);
      if (AttrText(ev, "kind") == "Similarity") similarity_ms.push_back(ms);
    } else if (ev.name == "e2e.store.ingest") {
      ingest_ms.push_back(ms);
    }
  }

  auto counted = [&](const OpRecord& op) { return Counted(w, op); };
  auto delta = [](uint64_t end, uint64_t begin) { return static_cast<double>(end - begin); };
  const double hits = delta(p.cache_end.result_hits, p.cache_begin.result_hits);
  const double misses = delta(p.cache_end.result_misses, p.cache_begin.result_misses);
  const double plan_hits = delta(p.cache_end.plan_hits, p.cache_begin.plan_hits);
  const double plan_misses = delta(p.cache_end.plan_misses, p.cache_begin.plan_misses);
  std::vector<double> bytes, rows;
  for (const OpRecord& op : p.ops) {
    if (!op.ok || !InWindow(p, op)) continue;
    if (counted(op)) bytes.push_back(static_cast<double>(op.bytes) / 1024.0);
    if (Executes(op)) rows.push_back(static_cast<double>(op.rows));
  }
  const bool explore = w.kind == Kind::kExplore;
  const double starts = explore ? static_cast<double>(Latencies(p, OnRoute(Route::kStart)).size())
                                : static_cast<double>(in.queries.starts);
  const double probes = explore
                            ? p.after.Value("reolap_probes") - p.before.Value("reolap_probes")
                            : static_cast<double>(in.queries.validation_probes);
  double live_read_ratio = 1;  // frozen stores never take the merged read path
  if (w.kind == Kind::kIngest) {
    std::vector<double> live;
    for (const OpRecord& op : p.ops) {
      if (op.ok && op.route == Route::kQuery && InWindow(p, op)) live.push_back(op.engine_ms);
    }
    live_read_ratio = Ratio(Percentile(live, 0.5), Percentile(in.queries.uncached_ms, 0.5));
  }
  const std::vector<double>& depths = p.chain_depths;
  const engine::EngineCacheStats cache = d.engine->cache_stats();
  // The process's CPU time from the window start until the clients
  // stopped, less the client threads' own, per request served meanwhile.
  double served = 0;
  for (const OpRecord& op : p.ops) served += op.ok && op.start_s >= p.begin_s;
  const double cpu_per_request = Ratio(p.process_cpu_ms - p.client_cpu_ms, served);

  return {
      {"server.overhead_query_p50_ms", OverheadP50(p, Route::kQuery), "ms"},
      {"server.overhead_execute_p50_ms", OverheadP50(p, Route::kExecute), "ms"},
      {"server.overhead_start_p50_ms", start_overhead_ms, "ms"},
      {"server.queue_wait_p50_ms",
       DeltaQuantile(p.before, p.after, "server_queue_wait_millis", 0.5), "ms"},
      {"server.queue_wait_p90_ms",
       DeltaQuantile(p.before, p.after, "server_queue_wait_millis", 0.9), "ms"},
      {"server.response_kb_mean", Mean(bytes), "KiB"},
      {"server.max_inflight", static_cast<double>(p.stats_end.max_inflight), "count"},
      {"server.shed", delta(p.stats_end.shed, p.stats_begin.shed), "count"},
      {"server.cpu_ms_per_request", cpu_per_request, "ms"},
      {"engine.result_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"engine.result_hits", hits, "count"},
      {"engine.result_misses", misses, "count"},
      {"engine.plan_hit_ratio", Ratio(plan_hits, plan_hits + plan_misses), "ratio"},
      {"engine.result_evictions",
       delta(p.cache_end.result_evictions, p.cache_begin.result_evictions), "count"},
      {"engine.hit_p50_us", Percentile(hit_us, 0.5), "us"},
      {"engine.miss_p50_ms", Percentile(miss_ms, 0.5), "ms"},
      {"engine.epoch_bumps", static_cast<double>(p.epoch_end - p.epoch_begin), "count"},
      {"engine.result_cache_mb", static_cast<double>(cache.result_bytes) / kMiB, "MiB"},
      {"sparql.plan_p50_ms", Percentile(plan_ms, 0.5), "ms"},
      {"sparql.exec_p50_ms", Percentile(exec_ms, 0.5), "ms"},
      {"sparql.scanned_per_row", Ratio(scanned, miss_rows), "count"},
      {"sparql.bindings_per_row", Ratio(bindings, miss_rows), "count"},
      {"core.start_p50_ms", Percentile(start_ms, 0.5), "ms"},
      {"core.validation_probes_per_start", Ratio(probes, starts), "count"},
      {"core.refine_p50_ms", Percentile(refine_ms, 0.5), "ms"},
      {"core.similarity_p50_ms", Percentile(similarity_ms, 0.5), "ms"},
      {"core.rows_per_execute", Mean(rows), "count"},
      {"rdf.live_read_ratio", live_read_ratio, "ratio"},
      {"store.chain_depth_mean", Mean(depths), "count"},
      {"store.chain_depth_max", Percentile(depths, 1.0), "count"},
      {"store.compactions",
       p.after.Value("store_delta_compactions") - p.before.Value("store_delta_compactions"),
       "count"},
      {"store.compact_p50_ms",
       DeltaQuantile(p.before, p.after, "store_delta_compact_millis", 0.5), "ms"},
      {"store.ingest_p50_ms", Percentile(ingest_ms, 0.5), "ms"},
      {"store.heap_mb",
       static_cast<double>(d.store()->MemoryBreakdown().heap_bytes) / kMiB, "MiB"},
      {"setup.generate_ms", d.times.generate_ms, "ms"},
      {"setup.vsg_build_ms", d.times.vsg_ms, "ms"},
      {"setup.text_index_ms", d.times.text_ms, "ms"},
      {"setup.server_start_ms", d.times.serve_ms, "ms"},
      {"trace.overhead_ratio", Ratio(wall_on, wall_off), "ratio"},
  };
}

// --- output -------------------------------------------------------------------

std::string ChecksJson(const std::vector<Check>& checks) {
  std::string out = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + server::JsonEscape(checks[i].name) +
           "\", \"ok\": " + (checks[i].ok ? "true" : "false") +
           ", \"detail\": \"" + server::JsonEscape(checks[i].detail) + "\"}";
  }
  return out + "]";
}

std::string ResultLine(const Report& r) {
  return std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(r.metrics) + "}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Run(const Options& o) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload " << o.workload << "\n";
    return 2;
  }
  const WorkloadSpec& w = *spec;
  const bool traced = !o.trace_dir.empty();
  const uint64_t observations = o.smoke ? 3000 : w.observations;
  const double warmup_s = o.smoke ? std::min(w.warmup_s, 0.5) : w.warmup_s;

  // Set up several times and report the median; the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  Inputs in;
  HotBuild hot;
  size_t setups = traced ? 1 : kSetups;
  for (size_t k = 0; k < setups; ++k) {
    const bool last = k + 1 == setups;
    d.reset();
    d = std::make_unique<Deployment>();
    util::Status st = BuildData(w.dataset, observations, d.get());
    if (st.ok() && last) {
      // Inputs come from the frozen store, before ingest can change it.
      obs::Tracer::Global().SetEnabled(traced);
      if (w.kind == Kind::kExplore && !w.hot) {
        const size_t per_client = std::max<size_t>(
            1, static_cast<size_t>(std::lround(o.seconds * kColdSessionsPerClientSecond)));
        in.sessions = ColdSessions(d->env, per_client * kClients);
      } else if (w.kind != Kind::kExplore) {
        auto pool = BuildQueryPool(d->env);
        if (!pool.ok()) st = pool.status();
        else in.queries = std::move(pool).value();
        if (w.kind == Kind::kIngest) in.observations = SampleObservations(d->env, 256);
      }
      obs::Tracer::Global().SetEnabled(false);
    }
    if (st.ok()) st = Serve(w.kind == Kind::kIngest, d.get());
    if (!st.ok()) {
      std::cerr << "setup failed: " << st << "\n";
      return 2;
    }
    setup_s.push_back(d->times.total_s());
    if (k == 0 && !last) {
      const double wanted = std::ceil(kMinSetupSeconds / std::max(setup_s[0], 1e-3));
      setups = std::clamp(static_cast<size_t>(wanted), kSetups, kMaxSetups);
    }
    // explore_hot's sessions are built on the serving engine, which they
    // leave warm; not part of set-up time.
    if (last && w.kind == Kind::kExplore && w.hot) {
      in.sessions = HotSessions(d->env, d->engine.get(), &hot);
      std::cout << "explore_hot sessions: " << hot.results << " distinct results ("
                << hot.result_bytes / 1024 << " KiB), " << hot.moved << " picks moved, "
                << hot.skipped << " skipped\n";
    }
  }
  const size_t items = w.kind == Kind::kExplore ? in.sessions.size() : in.queries.texts.size();
  in.order = Permutation(items, Mix(o.seed, kOrderStream));

  const double rss_setup_mb = RssPeakMiB();
  HttpPhase p = RunHttpPhase(w, *d, in, o.seed, warmup_s, o.seconds);

  Report r;
  for (const OpRecord& op : p.ops) {
    if (!InWindow(p, op)) continue;
    ++r.attempted;
    if (!op.ok) ++r.failed;
  }
  if (w.kind == Kind::kQuery) r.checks.push_back(CheckQueryResponses(p, in.queries));
  if (w.kind == Kind::kExplore) {
    r.checks.push_back(CheckSessions(*d, in, p, o.smoke ? 1 : kVerifySessions));
  }
  if (w.kind == Kind::kIngest) {
    for (Check& c : CheckIngest(*d, in, p)) r.checks.push_back(std::move(c));
  }

  const std::set<std::string>& e2e = EndToEndNames();
  for (Metric& m : ClientMetrics(w, in, p, r, setup_s, rss_setup_mb)) {
    if (e2e.count(m.name) != static_cast<size_t>(traced ? 0 : 1)) continue;
    r.metrics.push_back(std::move(m));
  }
  if (traced) {
    const double start_overhead_ms = ProbeStartOverhead(*d, in);
    uint64_t next_batch = p.batches_sent;
    const double wall_off = Replay(w, *d, in, p, o.seed, &next_batch, false);
    obs::Tracer::Global().SetEnabled(true);
    const double wall_on = Replay(w, *d, in, p, o.seed, &next_batch, true);
    obs::Tracer::Global().SetEnabled(false);
    for (Metric& m : LayerMetrics(w, *d, in, p, start_overhead_ms, wall_off, wall_on)) {
      r.metrics.push_back(std::move(m));
    }
  }

  const std::string stem = o.workload + "-seed" + std::to_string(o.seed);
  std::string run_json = "{\"workload\": \"" + o.workload +
                         "\", \"seed\": " + std::to_string(o.seed) +
                         ", \"seconds\": " + JsonNumber(o.seconds) +
                         ", \"traced\": " + (traced ? "true" : "false") +
                         ", \"smoke\": " + (o.smoke ? "true" : "false") +
                         ", \"correct\": " + (r.correct() ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(r.attempted) +
                         ", \"failed\": " + std::to_string(r.failed) +
                         ", \"metrics\": " + MetricsJson(r.metrics) +
                         ", \"checks\": " + ChecksJson(r.checks) + "}\n";
  bool wrote = o.out.empty() || WriteFile(o.out, run_json);
  if (traced) {
    wrote = WriteFile(o.trace_dir + "/" + stem + ".layers.json", run_json) && wrote;
    wrote = WriteFile(o.trace_dir + "/" + stem + ".trace.json",
                      obs::Tracer::Global().ChromeTraceJson()) && wrote;
  }

  for (const Check& c : r.checks) {
    std::cout << (c.ok ? "check ok   " : "CHECK FAIL ") << c.name << ": " << c.detail
              << "\n";
  }
  for (const Metric& m : r.metrics) {
    std::cout << o.workload << " " << m.name << " " << JsonNumber(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << ResultLine(r) << std::endl;
  return r.correct() && wrote ? 0 : 1;
}

}  // namespace
}  // namespace re2xolap::e2e

int main(int argc, char** argv) {
  re2xolap::e2e::Options options;
  if (!re2xolap::e2e::ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: bench_e2e --workload=explore_hot|explore_cold|query_hot|"
                 "ingest_mixed --seed=S [--seconds=N] [--trace-dir=DIR] "
                 "[--out=FILE] [--smoke]\n";
    return 2;
  }
  return re2xolap::e2e::Run(options);
}
