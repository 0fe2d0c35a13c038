#ifndef RE2XOLAP_SERVER_SERVER_H_
#define RE2XOLAP_SERVER_SERVER_H_

// The multi-session HTTP/1.1 front door (ROADMAP item 1): SPARQL
// execution, ReOLAP synthesis, and ExRef refinements served over one
// shared engine::QueryEngine on a frozen store, built directly on POSIX
// sockets with the repo's from-scratch discipline. The organizing
// principle is staying up under overload:
//
//  - Admission control: one acceptor thread multiplexes the listen
//    socket and every idle keep-alive connection; a connection whose
//    request bytes arrive is stamped with its *arrival time* and pushed
//    into a bounded request queue drained by `worker_threads` workers.
//    The worker count IS the in-flight concurrency cap C — at most C
//    requests execute at any instant, excess waits in the queue, and a
//    request arriving with the queue full is shed immediately with
//    503 + Retry-After. Nothing queues unboundedly. With
//    per_client_queue_cap set, admission is additionally fair per
//    client: a single chatty peer IP can only occupy its share of the
//    queue, and its overflow is shed while other clients keep getting
//    in.
//  - Arrival-anchored deadlines: every request executes under a
//    util::ExecGuard whose deadline is anchored at the arrival stamp
//    (ExecGuard's arrival constructor), so queue wait counts against the
//    deadline and a request that waited its budget away is answered 504
//    without executing.
//  - Slow-client protection: reads and writes run over nonblocking
//    sockets with poll() timeouts; a client that trickles its request or
//    refuses to drain the response is cut off (408 / connection close)
//    instead of pinning a worker.
//  - Per-session state: exploration sessions (core::Session, all sharing
//    the server's engine and its caches) live in a SessionManager with a
//    bounded population and idle-TTL eviction.
//  - Graceful drain: Stop() (or SIGTERM via the async-signal-safe
//    RequestStop()) stops accepting, sheds new requests on live
//    connections, lets queued + in-flight requests finish within a grace
//    period, then guard-cancels stragglers (they answer 503 Cancelled),
//    joins every thread, and flushes the query log.
//  - Observability: server.* counters/gauges/histograms in the global
//    registry, exported at GET /metrics in Prometheus text exposition
//    format; GET /healthz reports engine + store-epoch status.
//
// Failpoints (chaos CI): `server.accept` (post-accept), `server.parse`
// (before request parsing), `server.write` (before response write) — an
// injected error surfaces as a typed 503 or a clean connection close,
// never a crash or a leaked session.
//
// Routes (bodies are plain text; responses JSON unless noted):
//   GET  /healthz                          liveness + epoch status
//   GET  /metrics                          Prometheus text/plain;version=0.0.4
//   POST /query                            body = SPARQL SELECT/ASK text
//   POST /ingest?op=insert|delete          body = N-Triples statements
//                                          (live stores only; admission-
//                                          controlled like /query)
//   POST /session                          create session -> {"session": id}
//   POST /session/<id>/start               body = example values, one/line
//   POST /session/<id>/pick?index=N        choose a synthesized candidate
//   POST /session/<id>/execute             run the current query
//   POST /session/<id>/refine?kind=K       K in disaggregate|rollup|topk|
//                                          percentile|similarity|cluster
//   POST /session/<id>/pick_refinement?index=N
//   POST /session/<id>/exclude             body = negative values, one/line
//   POST /session/<id>/slice?index=N       pin an example dimension
//   POST /session/<id>/back                undo the last step
//   DELETE /session/<id>                   end the session
// Request knobs (query parameters): timeout_ms (clamped to
// max_deadline_millis), max_rows, max_bytes (guard budgets), limit
// (response row cap).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unordered_map>

#include "core/session.h"
#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "server/http.h"
#include "server/session_manager.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace re2xolap::store {
class Ingestor;
}

namespace re2xolap::server {

/// The dataset a Server serves. `store` and `engine` are required (the
/// store frozen); `vsg`/`text` enable session routes and may be null for
/// store-only images; `ingestor` enables POST /ingest on a live store
/// (rdf::TripleStore::EnterLive + store::Ingestor). All pointers are
/// non-owning and must outlive the server.
struct Dataset {
  const rdf::TripleStore* store = nullptr;
  engine::QueryEngine* engine = nullptr;
  const core::VirtualSchemaGraph* vsg = nullptr;
  const rdf::TextIndex* text = nullptr;
  store::Ingestor* ingestor = nullptr;
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with Server::port().
  uint16_t port = 0;
  /// In-flight concurrency cap C: the number of worker threads, hence
  /// the maximum number of concurrently executing requests.
  size_t worker_threads = 8;
  /// Bounded admission queue; a ready request beyond this is shed with
  /// 503 + Retry-After.
  size_t queue_capacity = 64;
  /// Per-client fair shedding: at most this many queued requests per
  /// client (keyed by peer IP address) before further requests from that
  /// client are shed with 503 — one chatty client can then never occupy
  /// the whole admission queue. 0 disables the per-client cap.
  size_t per_client_queue_cap = 0;
  /// Open-connection cap (idle + queued + executing); accepts beyond it
  /// are shed at the socket.
  size_t max_connections = 1024;
  /// Per-request deadline applied when the client sends no timeout_ms,
  /// anchored at request arrival (0 = no default deadline).
  uint64_t default_deadline_millis = 10'000;
  /// Hard ceiling on client-supplied timeout_ms.
  uint64_t max_deadline_millis = 60'000;
  /// Default guard budgets (0 = unlimited) when the client sends no
  /// max_rows / max_bytes.
  uint64_t default_max_rows = 0;
  uint64_t default_max_bytes = 0;
  /// Slow-client socket timeouts (request read / response write).
  uint64_t read_timeout_millis = 5'000;
  uint64_t write_timeout_millis = 5'000;
  /// Retry-After header value on shed responses, in seconds.
  unsigned retry_after_seconds = 1;
  /// Exploration-session idle TTL (0 = never evict) and population cap.
  uint64_t session_idle_millis = 300'000;
  size_t max_sessions = 256;
  /// How long Stop() lets queued + in-flight requests finish before
  /// guard-cancelling them.
  uint64_t drain_grace_millis = 2'000;
  HttpLimits http;
};

/// Point-in-time counters of one server instance (global server.*
/// metrics aggregate across instances; tests assert on these to stay
/// isolated).
struct ServerStats {
  uint64_t accepted_conns = 0;   // connections accepted
  uint64_t requests = 0;         // requests fully read and dispatched
  uint64_t responses_ok = 0;     // 2xx responses written
  uint64_t responses_error = 0;  // non-2xx responses written
  uint64_t shed = 0;             // 503 + Retry-After admission sheds
  uint64_t shed_per_client = 0;  // subset of `shed`: per-client-cap sheds
  uint64_t expired_in_queue = 0; // 504 without execution (queue wait)
  uint64_t client_timeouts = 0;  // slow-client read/write cutoffs
  uint64_t accept_faults = 0;    // server.accept failpoint fires
  uint64_t write_faults = 0;     // server.write failpoint fires
  uint64_t max_inflight = 0;     // high-water concurrent executions
};

class Server {
 public:
  Server(Dataset dataset, ServerConfig config = {});
  /// Stops (gracefully) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor + worker threads. Fails
  /// with kUnavailable when the address can't be bound.
  util::Status Start();

  /// The bound TCP port (after Start; resolves port 0 to the ephemeral
  /// port actually bound).
  uint16_t port() const { return port_; }

  /// Async-signal-safe stop request: sets a flag and writes one byte to
  /// the acceptor's wake pipe. Safe to call from a SIGTERM handler. The
  /// acceptor begins the drain (stop accepting, shed new requests);
  /// call Stop() — typically right after WaitForStopRequest() returns —
  /// to complete it.
  void RequestStop();

  /// Blocks until RequestStop() or Stop() is called.
  void WaitForStopRequest();

  /// Graceful drain: stop accepting, finish queued + in-flight requests
  /// (guard-cancelling whatever outlives drain_grace_millis), join all
  /// threads, flush the query log. Idempotent; safe after RequestStop.
  void Stop();

  bool draining() const { return stopping_.load(std::memory_order_acquire); }

  ServerStats stats() const;
  SessionManager& sessions() { return sessions_; }
  const ServerConfig& config() const { return config_; }

 private:
  struct Conn;

  void AcceptorLoop();
  void WorkerLoop();

  /// Accepts every pending connection off the listen socket; new idle
  /// connections join the acceptor's poll set.
  void DrainListenSocket(std::vector<std::unique_ptr<Conn>>* idle);
  /// Moves worker-returned connections back under acceptor ownership.
  void CollectReturned(std::vector<std::unique_ptr<Conn>>* out);
  /// Admission: enqueue a ready request or shed it (503 + Retry-After).
  void EnqueueOrShed(std::unique_ptr<Conn> conn);
  /// Best-effort nonblocking shed/overload response + close.
  void ShedConn(std::unique_ptr<Conn> conn, const char* why);
  /// On the shed path: reads what `conn` has buffered without blocking
  /// and, when that is a complete `GET /metrics` or `GET /healthz`,
  /// answers it on the acceptor (a write bounded by kProbeWriteMillis).
  /// Returns false, having answered nothing, for any other request.
  bool AnswerProbe(Conn* conn);

  /// One request on `conn`: read (bounded, slow-client timeout), parse,
  /// dispatch, write. Returns the connection for keep-alive reuse, or
  /// null when it was closed.
  std::unique_ptr<Conn> HandleOneRequest(std::unique_ptr<Conn> conn);

  /// Reads one full request (head + body) into `req`. kTimeout = slow
  /// client; kCancelled = peer closed cleanly between requests.
  util::Status ReadRequest(Conn* conn, HttpRequest* req);
  /// Writes `bytes` within `timeout_millis`; false = timed out or
  /// closed.
  bool WriteAll(Conn* conn, std::string_view bytes, uint64_t timeout_millis);

  HttpResponse Dispatch(const HttpRequest& req,
                        std::chrono::steady_clock::time_point arrival);
  HttpResponse HandleHealthz() const;
  HttpResponse HandleMetrics() const;
  HttpResponse HandleQuery(const HttpRequest& req,
                           const util::ExecGuard& guard);
  HttpResponse HandleIngest(const HttpRequest& req,
                            const util::ExecGuard& guard);
  HttpResponse HandleSession(const HttpRequest& req,
                             const util::ExecGuard& guard);

  util::ExecGuard MakeGuard(const HttpRequest& req,
                            std::chrono::steady_clock::time_point arrival);

  /// A worker took a request: raises the server.inflight gauge and the
  /// in-flight peak (`now_inflight` counts the request).
  void NoteInflight(size_t now_inflight);
  /// Lowers the server.inflight gauge for a request about to be answered
  /// (or dropped unanswered). HandleOneRequest calls it once per request,
  /// before the final write, so a client holding its whole response never
  /// finds its request still counted.
  void NoteAnswered();

  Dataset dataset_;
  const ServerConfig config_;
  SessionManager sessions_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::chrono::steady_clock::time_point started_at_{};

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  bool started_ = false;

  // Request queue (bounded by config_.queue_capacity). When
  // per_client_queue_cap is set, queued_per_client_ tracks how much of
  // the queue each client key (peer IP) currently occupies; entries are
  // erased as they drain to zero.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Conn>> queue_;
  std::unordered_map<std::string, size_t> queued_per_client_;

  // Keep-alive connections handed back by workers, collected by the
  // acceptor on the next wake.
  std::mutex returned_mu_;
  std::vector<std::unique_ptr<Conn>> returned_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  /// Cancelled when the drain grace period expires; every request guard
  /// carries it.
  util::CancellationToken drain_token_;

  std::atomic<size_t> open_conns_{0};
  /// Requests a worker holds, until HandleOneRequest returns (Stop()
  /// drains on it).
  std::atomic<size_t> inflight_{0};
  /// Requests a worker holds whose answer has not started: the
  /// server.inflight gauge.
  std::atomic<size_t> unanswered_{0};

  // Instance counters (relaxed; exact under the tests' sync points).
  std::atomic<uint64_t> accepted_conns_{0}, requests_{0}, responses_ok_{0},
      responses_error_{0}, shed_{0}, shed_per_client_{0},
      expired_in_queue_{0}, client_timeouts_{0}, accept_faults_{0},
      write_faults_{0}, max_inflight_{0};
};

}  // namespace re2xolap::server

#endif  // RE2XOLAP_SERVER_SERVER_H_
