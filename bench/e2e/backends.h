#ifndef RE2XOLAP_BENCH_E2E_BACKENDS_H_
#define RE2XOLAP_BENCH_E2E_BACKENDS_H_

// The client scripts of bench_e2e and the two ways they reach the system:
// over HTTP against the running server, or in-process through the same
// core/engine/store calls the server's handlers make. One script runner
// drives both, so the traced replay performs exactly the operations the
// HTTP clients performed, and the uncached reference replays sampled
// sessions the same way.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/e2e_util.h"
#include "bench/e2e/workload.h"
#include "core/session.h"
#include "engine/query_engine.h"
#include "obs/trace.h"
#include "server/http_client.h"
#include "store/ingestor.h"

namespace re2xolap::e2e {

using Clock = std::chrono::steady_clock;

enum class Route : uint8_t {
  kCreate,
  kStart,
  kPick,
  kExecute,
  kRefine,
  kPickRefinement,
  kDelete,
  kQuery,
  kIngest,
};

/// What one operation returned, as far as the metrics and checks need.
struct OpResult {
  bool ok = false;
  size_t options = 0;    // candidates (start) or refinements (refine)
  uint64_t rows = 0;     // result rows (execute, query)
  uint64_t bytes = 0;    // response body size (HTTP only)
  double engine_ms = 0;  // plan + exec time the server reported (execute, query)
  uint64_t added = 0;    // triples an ingest batch added
  RowDigest digest;      // when requested
  std::string body;      // /query response body (HTTP only)
};

struct OpRecord {
  Route route = Route::kQuery;
  bool ok = false;
  double start_s = 0;  // since the phase origin
  double ms = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  double engine_ms = 0;
  uint64_t added = 0;
  size_t item = 0;  // index of the session or query in the run's sequence
  size_t step = 0;  // position of the op within its session
};

/// Per-thread operation log with the phase clock: ops are refused once
/// the phase deadline passed, and `before_op` lets one client scrape
/// /metrics on its own connection when the measured window opens.
class OpRecorder {
 public:
  OpRecorder(Clock::time_point origin, Clock::time_point deadline,
             bool record = true)
      : origin_(origin), deadline_(deadline), record_(record) {}

  std::function<void()> before_op;

  /// Stamps the ops recorded from here on with `item`, counting their
  /// steps from 0.
  void BeginItem(size_t item) {
    item_ = item;
    step_ = 0;
  }

  bool BeginOp() {
    if (Clock::now() >= deadline_) return false;
    if (before_op) before_op();
    return true;
  }

  /// Runs `call`, timing it; returns its result.
  template <typename F>
  OpResult Timed(Route route, F&& call) {
    const Clock::time_point t0 = Clock::now();
    OpResult res = call();
    if (record_) {
      OpRecord rec;
      rec.route = route;
      rec.ok = res.ok;
      rec.start_s = std::chrono::duration<double>(t0 - origin_).count();
      rec.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                   .count();
      rec.rows = res.rows;
      rec.bytes = res.bytes;
      rec.engine_ms = res.engine_ms;
      rec.added = res.added;
      rec.item = item_;
      rec.step = step_;
      ops.push_back(rec);
    }
    ++step_;
    return res;
  }

  std::vector<OpRecord> ops;

 private:
  Clock::time_point origin_;
  Clock::time_point deadline_;
  bool record_;
  size_t item_ = 0;
  size_t step_ = 0;
};

/// One explorer's view of a session; the HTTP and in-process backends
/// implement it.
class ExploreBackend {
 public:
  virtual ~ExploreBackend() = default;
  virtual OpResult Create() = 0;
  virtual OpResult Start(const std::vector<std::string>& tuple) = 0;
  virtual OpResult Pick(size_t index) = 0;
  virtual OpResult Execute(bool digest) = 0;
  virtual OpResult Refine(core::RefinementKind kind) = 0;
  virtual OpResult PickRefinement(size_t index) = 0;
  virtual OpResult Delete() = 0;
};

inline const char* KindParam(core::RefinementKind kind) {
  switch (kind) {
    case core::RefinementKind::kDisaggregate: return "disaggregate";
    case core::RefinementKind::kSimilarity: return "similarity";
    case core::RefinementKind::kTopK: return "topk";
    case core::RefinementKind::kRollUp: return "rollup";
    case core::RefinementKind::kPercentile: return "percentile";
    case core::RefinementKind::kCluster: return "cluster";
  }
  return "";
}

/// Fills `res` from an HTTP round trip; ok = 200.
inline OpResult FromHttp(const util::Result<server::ClientResponse>& resp) {
  OpResult res;
  if (!resp.ok()) return res;
  res.ok = resp->status == 200;
  res.bytes = resp->body.size();
  return res;
}

/// Fills the table fields of a successful /execute or /query response:
/// its row count and the plan + exec time of its "stats" (0 on a hit).
inline void FromTable(std::string_view body, OpResult* res) {
  res->rows = UintField(body, "\"row_count\": ");
  res->engine_ms = NumberField(body, "\"plan_millis\": ") +
                   NumberField(body, "\"exec_millis\": ");
}

class HttpExplorer : public ExploreBackend {
 public:
  explicit HttpExplorer(server::HttpClient* client) : client_(client) {}

  OpResult Create() override {
    auto resp = client_->Post("/session", "");
    OpResult res = FromHttp(resp);
    if (res.ok) {
      id_ = StringField(resp->body, "\"session\": \"");
      res.ok = !id_.empty();
    }
    return res;
  }
  OpResult Start(const std::vector<std::string>& tuple) override {
    std::string body;
    for (const std::string& v : tuple) body += v + "\n";
    auto resp = client_->Post(Path("start"), body);
    OpResult res = FromHttp(resp);
    if (res.ok) res.options = Count(resp->body, "{\"index\": ");
    return res;
  }
  OpResult Pick(size_t index) override {
    return FromHttp(client_->Post(Path("pick?index=" + std::to_string(index)), ""));
  }
  OpResult Execute(bool digest) override {
    auto resp = client_->Post(Path("execute"), "");
    OpResult res = FromHttp(resp);
    if (res.ok) {
      FromTable(resp->body, &res);
      if (digest) res.ok = DigestResponseRows(resp->body, &res.digest);
    }
    return res;
  }
  OpResult Refine(core::RefinementKind kind) override {
    auto resp = client_->Post(Path(std::string("refine?kind=") + KindParam(kind)), "");
    OpResult res = FromHttp(resp);
    if (res.ok) res.options = Count(resp->body, "{\"index\": ");
    return res;
  }
  OpResult PickRefinement(size_t index) override {
    return FromHttp(client_->Post(
        Path("pick_refinement?index=" + std::to_string(index)), ""));
  }
  OpResult Delete() override {
    return FromHttp(client_->Request("DELETE", "/session/" + id_));
  }

 private:
  std::string Path(const std::string& verb) const {
    return "/session/" + id_ + "/" + verb;
  }

  server::HttpClient* client_;
  std::string id_;
};

inline bool IsHit(const sparql::ExecStats& s) {
  return s.exec_millis == 0 && s.triples_scanned == 0;
}

/// Annotates a bench-owned engine span with what the call did (a cache
/// hit zeroes the ExecStats).
inline void TagEngineSpan(obs::Span& span, const sparql::ExecStats& stats,
                          uint64_t rows) {
  span.SetAttr("hit", static_cast<uint64_t>(IsHit(stats)));
  span.SetAttr("plan_ms", stats.plan_millis);
  span.SetAttr("exec_ms", stats.exec_millis);
  span.SetAttr("scanned", stats.triples_scanned);
  span.SetAttr("bindings", stats.intermediate_bindings);
  span.SetAttr("rows", rows);
}

/// In-process explorer: a core::Session on a shared engine, exactly as
/// the server's session routes hold one.
class LocalExplorer : public ExploreBackend {
 public:
  /// `executed`, when set, collects the text of every executed query.
  LocalExplorer(const bench::BenchEnv& env, engine::QueryEngine* engine,
                std::vector<std::string>* executed = nullptr)
      : env_(env), engine_(engine), executed_(executed) {}

  OpResult Create() override {
    session_ = std::make_unique<core::Session>(&env_.store(), env_.vsg.get(),
                                               env_.text.get(), engine_);
    return Ok();
  }
  OpResult Start(const std::vector<std::string>& tuple) override {
    obs::Span span("e2e.core.start");
    auto candidates = session_->Start(tuple);
    OpResult res;
    res.ok = candidates.ok();
    if (res.ok) res.options = candidates->size();
    return res;
  }
  OpResult Pick(size_t index) override {
    OpResult res;
    res.ok = session_->PickCandidate(index).ok();
    return res;
  }
  OpResult Execute(bool digest) override {
    obs::Span span("e2e.engine.execute");
    auto table = session_->Execute(sparql::ExecOptions{});
    OpResult res;
    res.ok = table.ok();
    if (!res.ok) return res;
    res.rows = (*table)->row_count();
    TagEngineSpan(span, session_->last_exec_stats(), res.rows);
    if (digest) res.digest = DigestTable(**table);
    if (executed_ != nullptr) {
      executed_->push_back(sparql::ToSparql(session_->current().query));
    }
    return res;
  }
  OpResult Refine(core::RefinementKind kind) override {
    obs::Span span("e2e.core.refine");
    span.SetAttr("kind", core::RefinementKindName(kind));
    auto refined = session_->Refine(kind);
    OpResult res;
    res.ok = refined.ok();
    if (res.ok) res.options = refined->size();
    return res;
  }
  OpResult PickRefinement(size_t index) override {
    OpResult res;
    res.ok = session_->PickRefinement(index).ok();
    return res;
  }
  OpResult Delete() override {
    session_.reset();
    return Ok();
  }

 private:
  static OpResult Ok() {
    OpResult res;
    res.ok = true;
    return res;
  }

  const bench::BenchEnv& env_;
  engine::QueryEngine* engine_;
  std::vector<std::string>* executed_;
  std::unique_ptr<core::Session> session_;
};

/// What a verified session saw: option counts (start, then each refine)
/// and the digest of every executed result.
struct SessionObservation {
  std::vector<uint64_t> options;
  std::vector<RowDigest> results;
  bool complete = false;
};

/// Runs one scripted session: create, start, pick, execute, then per
/// round refine, pick one refinement and execute it, and finally delete.
/// A round offering no refinement, or whose pick the script skips, picks
/// and executes nothing. Returns false when an op failed or the phase
/// ended mid-session.
inline bool RunSession(ExploreBackend& b, const SessionScript& script,
                       OpRecorder& rec, SessionObservation* seen) {
  OpResult res;
  auto step = [&](Route route, auto&& call) {
    if (!rec.BeginOp()) return false;
    res = rec.Timed(route, call);
    return res.ok;
  };
  const bool digest = seen != nullptr;
  auto execute = [&] {
    if (!step(Route::kExecute, [&] { return b.Execute(digest); })) {
      return false;
    }
    if (seen) seen->results.push_back(res.digest);
    return true;
  };

  if (!step(Route::kCreate, [&] { return b.Create(); })) return false;
  if (!step(Route::kStart, [&] { return b.Start(script.tuple); })) {
    return false;
  }
  if (seen) seen->options.push_back(res.options);
  const size_t pick = res.options > 0 ? script.Pick(0, res.options) : kSkipRound;
  if (pick != kSkipRound) {
    if (!step(Route::kPick, [&] { return b.Pick(pick); })) return false;
    if (!execute()) return false;
    for (size_t round = 0; round < std::size(kRounds); ++round) {
      const core::RefinementKind kind = kRounds[round];
      if (!step(Route::kRefine, [&] { return b.Refine(kind); })) return false;
      if (seen) seen->options.push_back(res.options);
      if (res.options == 0) continue;
      const size_t i = script.Pick(round + 1, res.options);
      if (i == kSkipRound) continue;
      if (!step(Route::kPickRefinement, [&] { return b.PickRefinement(i); })) {
        return false;
      }
      if (!execute()) return false;
    }
  }
  if (!step(Route::kDelete, [&] { return b.Delete(); })) return false;
  if (seen) seen->complete = true;
  return true;
}

/// POST /query of pool entry `i`.
inline OpResult HttpQuery(server::HttpClient* client, const std::string& text) {
  auto resp = client->Post("/query", text);
  OpResult res = FromHttp(resp);
  if (res.ok) {
    FromTable(resp->body, &res);
    res.body = std::move(resp->body);
  }
  return res;
}

/// The same query through an engine in-process, as HandleQuery runs it.
inline OpResult LocalQuery(engine::QueryEngine* engine, const std::string& text) {
  obs::Span span("e2e.engine.execute");
  sparql::ExecStats stats;
  auto table = engine->ExecuteText(text, {}, &stats);
  OpResult res;
  res.ok = table.ok();
  if (res.ok) res.rows = (*table)->row_count();
  TagEngineSpan(span, stats, res.rows);
  return res;
}

inline OpResult HttpIngest(server::HttpClient* client, const std::string& batch) {
  auto resp = client->Post("/ingest", batch);
  OpResult res = FromHttp(resp);
  if (res.ok) res.added = UintField(resp->body, "\"added\": ");
  return res;
}

inline OpResult LocalIngest(store::Ingestor* ingestor, const std::string& batch) {
  obs::Span span("e2e.store.ingest");
  auto receipt = ingestor->IngestText(batch, store::IngestOp::kInsert, nullptr);
  OpResult res;
  res.ok = receipt.ok();
  if (res.ok) res.added = receipt->added;
  return res;
}

}  // namespace re2xolap::e2e

#endif  // RE2XOLAP_BENCH_E2E_BACKENDS_H_
