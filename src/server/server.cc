#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/exref.h"
#include "core/reolap.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "store/ingestor.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"
#include "util/string_utils.h"

namespace re2xolap::server {

namespace {

/// Bound on the acceptor's write of a probe answered on the shed path
/// (Server::AnswerProbe): long enough for a /metrics page on any live
/// connection, short enough that a client that never reads cannot stall
/// admission.
constexpr uint64_t kProbeWriteMillis = 100;

/// Bound on the request bytes a shed connection discards before close
/// (Server::ShedConn): the rest of a typical request body, read from the
/// socket buffer without waiting.
constexpr size_t kShedDrainBytes = 64u << 10;

struct ServerMetrics {
  obs::Counter& accepted;
  obs::Counter& requests;
  obs::Counter& responses_ok;
  obs::Counter& responses_error;
  obs::Counter& shed;
  obs::Counter& shed_per_client;
  obs::Counter& expired_in_queue;
  obs::Counter& client_timeouts;
  obs::Counter& accept_faults;
  obs::Counter& write_faults;
  obs::Gauge& inflight;
  obs::Gauge& inflight_peak;
  obs::Gauge& queue_depth;
  obs::Gauge& draining;
  obs::Histogram& request_millis;
  obs::Histogram& queue_wait_millis;
};

ServerMetrics& Metrics() {
  auto& reg = obs::MetricsRegistry::Global();
  static ServerMetrics m{
      reg.GetCounter("server.accepted"),
      reg.GetCounter("server.requests"),
      reg.GetCounter("server.responses_ok"),
      reg.GetCounter("server.responses_error"),
      reg.GetCounter("server.shed"),
      reg.GetCounter("server.shed_per_client"),
      reg.GetCounter("server.expired_in_queue"),
      reg.GetCounter("server.client_timeouts"),
      reg.GetCounter("server.accept_faults"),
      reg.GetCounter("server.write_faults"),
      reg.GetGauge("server.inflight"),
      reg.GetGauge("server.inflight_peak"),
      reg.GetGauge("server.queue_depth"),
      reg.GetGauge("server.draining"),
      reg.GetHistogram("server.request.millis"),
      reg.GetHistogram("server.queue_wait.millis"),
  };
  return m;
}

double MillisSince(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Maps a handler Status onto the HTTP taxonomy (DESIGN.md §17): client
/// mistakes are 4xx, pressure is 503 (with Retry-After for the
/// transient/shedding kinds), deadlines are 504, everything else 500.
int HttpStatusForStatus(const util::Status& st) {
  switch (st.code()) {
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kParseError:
    case util::StatusCode::kTypeError:
      return 400;
    case util::StatusCode::kNotFound:
      return 404;
    case util::StatusCode::kAlreadyExists:
      return 409;
    case util::StatusCode::kTimeout:
      return 504;
    case util::StatusCode::kResourceExhausted:
    case util::StatusCode::kUnavailable:
    case util::StatusCode::kCancelled:
      return 503;
    default:
      return 500;
  }
}

bool IsRetryableOverload(const util::Status& st) {
  return st.IsUnavailable() || st.IsCancelled();
}

/// True when the peer of an idle connection has closed it (or reset it)
/// with no request byte left to read. poll() reports a peer's FIN as
/// POLLIN, so readability alone does not mean a request arrived.
bool PeerClosed(int fd) {
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                    errno != EINTR);
}

}  // namespace

/// One client connection. Owned by exactly one thread at a time: the
/// acceptor (idle / being accepted), the queue (admitted, waiting), or a
/// worker (executing). `inbuf` carries pipelined leftover bytes across
/// keep-alive requests.
struct Server::Conn {
  int fd = -1;
  std::string inbuf;
  /// Fair-shedding key: the peer's IP address, captured at accept (empty
  /// when the peer address was unavailable; such connections share one
  /// bucket).
  std::string client_key;
  /// Stamped by the acceptor when request bytes became readable; the
  /// request's guard deadline anchors here.
  std::chrono::steady_clock::time_point arrival{};
  std::atomic<size_t>* open_counter = nullptr;

  Conn(int fd_in, std::atomic<size_t>* counter)
      : fd(fd_in), open_counter(counter) {
    counter->fetch_add(1, std::memory_order_relaxed);
  }
  ~Conn() {
    if (fd >= 0) ::close(fd);
    open_counter->fetch_sub(1, std::memory_order_relaxed);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
};

Server::Server(Dataset dataset, ServerConfig config)
    : dataset_(dataset),
      config_(std::move(config)),
      sessions_(config_.max_sessions, config_.session_idle_millis) {}

Server::~Server() { Stop(); }

util::Status Server::Start() {
  if (started_) return util::Status::InvalidArgument("server already started");
  if (dataset_.store == nullptr || dataset_.engine == nullptr) {
    return util::Status::InvalidArgument(
        "Dataset.store and Dataset.engine are required");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return util::Status::Unavailable(std::string("socket(): ") +
                                     std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::InvalidArgument("bad bind address \"" +
                                         config_.bind_address + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 256) < 0) {
    util::Status st = util::Status::Unavailable(
        "bind/listen on " + config_.bind_address + ":" +
        std::to_string(config_.port) + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_pipe_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::Unavailable(std::string("pipe(): ") +
                                     std::strerror(errno));
  }
  for (int fd : wake_pipe_) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }

  started_at_ = std::chrono::steady_clock::now();
  drain_token_.Reset();
  started_ = true;
  size_t workers = std::max<size_t>(1, config_.worker_threads);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return util::Status::OK();
}

void Server::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    char b = 's';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::WaitForStopRequest() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] {
    return stop_requested_.load(std::memory_order_acquire) ||
           stopped_.load(std::memory_order_acquire);
  });
}

void Server::Stop() {
  if (!started_ || stopped_.exchange(true)) return;
  stop_requested_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  Metrics().draining.Set(1);
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
  }
  stop_cv_.notify_all();
  RequestStop();  // wake the acceptor
  queue_cv_.notify_all();

  // Grace period: let queued + in-flight requests finish.
  const auto grace_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.drain_grace_millis);
  for (;;) {
    bool idle;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      idle = queue_.empty() && inflight_.load(std::memory_order_acquire) == 0;
    }
    if (idle || std::chrono::steady_clock::now() >= grace_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Stragglers: cancel their guards; they answer 503 Cancelled at the
  // next poll point and the workers come home.
  drain_token_.Cancel();
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  if (acceptor_.joinable()) acceptor_.join();

  {
    std::lock_guard<std::mutex> lock(returned_mu_);
    returned_.clear();  // closes leftover keep-alive conns
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.clear();
    queued_per_client_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  obs::QueryLog::Global().Flush();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted_conns = accepted_conns_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  s.responses_error = responses_error_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.shed_per_client = shed_per_client_.load(std::memory_order_relaxed);
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.client_timeouts = client_timeouts_.load(std::memory_order_relaxed);
  s.accept_faults = accept_faults_.load(std::memory_order_relaxed);
  s.write_faults = write_faults_.load(std::memory_order_relaxed);
  s.max_inflight = max_inflight_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

void Server::AcceptorLoop() {
  std::vector<std::unique_ptr<Conn>> idle;
  std::vector<pollfd> fds;
  auto last_sweep = std::chrono::steady_clock::now();
  for (;;) {
    // Reclaim keep-alive connections workers handed back. A connection
    // returned with pipelined bytes already buffered is ready now.
    {
      std::vector<std::unique_ptr<Conn>> back;
      CollectReturned(&back);
      for (auto& conn : back) {
        if (stopping_.load(std::memory_order_acquire)) continue;  // close
        if (!conn->inbuf.empty()) {
          conn->arrival = std::chrono::steady_clock::now();
          EnqueueOrShed(std::move(conn));
        } else {
          idle.push_back(std::move(conn));
        }
      }
    }

    if (stop_requested_.load(std::memory_order_acquire) &&
        !stopping_.load(std::memory_order_acquire)) {
      stopping_.store(true, std::memory_order_release);
      Metrics().draining.Set(1);
      {
        std::lock_guard<std::mutex> lock(stop_mu_);
      }
      stop_cv_.notify_all();   // unblock WaitForStopRequest
      queue_cv_.notify_all();  // let workers see the drain
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Drain: drop idle connections (no request in flight on them) and
      // exit. Queued connections belong to the workers; Stop() joins
      // them and closes whatever remains.
      idle.clear();
      return;
    }

    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    const size_t base = fds.size();
    for (const auto& conn : idle) fds.push_back({conn->fd, POLLIN, 0});
    int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (pr < 0 && errno != EINTR) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (pr > 0) {
      if (fds[0].revents & POLLIN) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
      }
      if (fds[1].revents & POLLIN) DrainListenSocket(&idle);
      // Idle keep-alive connections with bytes (or a hangup) ready.
      // Walk from the back so erasing doesn't shift unvisited entries.
      for (size_t i = fds.size(); i-- > base;) {
        short revents = fds[i].revents;
        if (revents == 0) continue;
        const size_t idx = i - base;
        std::unique_ptr<Conn> conn = std::move(idle[idx]);
        idle.erase(idle.begin() + static_cast<ptrdiff_t>(idx));
        if ((revents & (POLLERR | POLLNVAL)) || PeerClosed(conn->fd)) {
          continue;  // peer vanished; destructor closes
        }
        conn->arrival = std::chrono::steady_clock::now();
        EnqueueOrShed(std::move(conn));
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep > std::chrono::seconds(1)) {
      sessions_.EvictIdle();
      last_sweep = now;
    }
  }
}

void Server::DrainListenSocket(std::vector<std::unique_ptr<Conn>>* idle) {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                       &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN (drained) or transient failure; next poll retries
    }
    accepted_conns_.fetch_add(1, std::memory_order_relaxed);
    Metrics().accepted.Inc();
    if (util::FailpointRegistry::Global().any_armed()) {
      util::Status st = util::FailpointStatus("server.accept");
      if (!st.ok()) {
        accept_faults_.fetch_add(1, std::memory_order_relaxed);
        Metrics().accept_faults.Inc();
        ::close(fd);
        continue;
      }
    }
    auto conn = std::make_unique<Conn>(fd, &open_conns_);
    if (peer.sin_family == AF_INET) {
      char ip[INET_ADDRSTRLEN] = {};
      if (::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip)) != nullptr) {
        conn->client_key = ip;
      }
    }
    if (open_conns_.load(std::memory_order_relaxed) > config_.max_connections) {
      ShedConn(std::move(conn), "connection limit reached");
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    idle->push_back(std::move(conn));
  }
}

void Server::CollectReturned(std::vector<std::unique_ptr<Conn>>* out) {
  std::lock_guard<std::mutex> lock(returned_mu_);
  for (auto& conn : returned_) out->push_back(std::move(conn));
  returned_.clear();
}

void Server::EnqueueOrShed(std::unique_ptr<Conn> conn) {
  bool over_client_cap = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!stopping_.load(std::memory_order_acquire) &&
        queue_.size() < config_.queue_capacity) {
      // Per-client fairness: a client already holding its share of the
      // queue is shed even though the queue has room, so the remaining
      // capacity stays available to everyone else.
      if (config_.per_client_queue_cap > 0 &&
          queued_per_client_[conn->client_key] >=
              config_.per_client_queue_cap) {
        over_client_cap = true;
      } else {
        if (config_.per_client_queue_cap > 0) {
          ++queued_per_client_[conn->client_key];
        }
        queue_.push_back(std::move(conn));
        Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
        queue_cv_.notify_one();
        return;
      }
    }
  }
  // Probes are answered even when the server is saturated, so a full
  // queue stays observable; a draining server sheds them like the rest.
  if (!stopping_.load(std::memory_order_acquire) && AnswerProbe(conn.get())) {
    return;
  }
  if (over_client_cap) {
    shed_per_client_.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed_per_client.Inc();
    ShedConn(std::move(conn), "per-client queue share exhausted");
    return;
  }
  ShedConn(std::move(conn),
           stopping_.load(std::memory_order_acquire)
               ? "server is draining"
               : "admission queue is full");
}

bool Server::AnswerProbe(Conn* conn) {
  char buf[4096];
  while (conn->inbuf.size() <= config_.http.max_head_bytes) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) break;
    conn->inbuf.append(buf, static_cast<size_t>(n));
  }
  const size_t head_end = conn->inbuf.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  util::Result<HttpRequest> req = ParseRequestHead(
      std::string_view(conn->inbuf).substr(0, head_end), config_.http);
  if (!req.ok() || req->method != "GET" ||
      (req->path != "/metrics" && req->path != "/healthz")) {
    return false;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  Metrics().requests.Inc();
  const HttpResponse resp =
      req->path == "/metrics" ? HandleMetrics() : HandleHealthz();
  if (WriteAll(conn, SerializeResponse(resp, /*keep_alive=*/false),
               kProbeWriteMillis)) {
    responses_ok_.fetch_add(1, std::memory_order_relaxed);
    Metrics().responses_ok.Inc();
  }
  return true;
}

void Server::ShedConn(std::unique_ptr<Conn> conn, const char* why) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  Metrics().shed.Inc();
  HttpResponse resp;
  resp.status = 503;
  resp.extra_headers.emplace_back("Retry-After",
                                  std::to_string(config_.retry_after_seconds));
  resp.body = JsonError("Shed", why);
  std::string bytes = SerializeResponse(resp, /*keep_alive=*/false);
  // Best-effort single nonblocking write: an overloaded server must not
  // spend bounded-resource time consoling the clients it is shedding.
  [[maybe_unused]] ssize_t n =
      ::send(conn->fd, bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  // Closing with request bytes still unread makes the kernel reset the
  // connection, and a reset can destroy the 503 before the client reads
  // it (the client then retries, and one refusal counts twice). So end
  // our side with a FIN, then discard what has already arrived — up to a
  // fixed bound and without waiting — before the destructor closes.
  ::shutdown(conn->fd, SHUT_WR);
  char sink[4096];
  for (size_t drained = 0; drained < kShedDrainBytes;) {
    const ssize_t got = ::recv(conn->fd, sink, sizeof(sink), MSG_DONTWAIT);
    if (got <= 0) break;
    drained += static_cast<size_t>(got);
  }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void Server::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      conn = std::move(queue_.front());
      queue_.pop_front();
      Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
      if (config_.per_client_queue_cap > 0) {
        auto it = queued_per_client_.find(conn->client_key);
        if (it != queued_per_client_.end() && --it->second == 0) {
          queued_per_client_.erase(it);
        }
      }
    }
    Metrics().queue_wait_millis.Observe(MillisSince(conn->arrival));
    const size_t now_inflight =
        inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    NoteInflight(now_inflight);
    conn = HandleOneRequest(std::move(conn));
    Metrics().inflight.Set(static_cast<double>(
        inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1));
    if (conn != nullptr) {
      {
        std::lock_guard<std::mutex> lock(returned_mu_);
        returned_.push_back(std::move(conn));
      }
      if (wake_pipe_[1] >= 0) {
        char b = 'r';
        [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
      }
    }
  }
}

void Server::NoteInflight(size_t now_inflight) {
  Metrics().inflight.Set(static_cast<double>(now_inflight));
  uint64_t prev = max_inflight_.load(std::memory_order_relaxed);
  while (now_inflight > prev &&
         !max_inflight_.compare_exchange_weak(prev, now_inflight,
                                              std::memory_order_relaxed)) {
  }
  Metrics().inflight_peak.Set(
      static_cast<double>(max_inflight_.load(std::memory_order_relaxed)));
}

std::unique_ptr<Server::Conn> Server::HandleOneRequest(
    std::unique_ptr<Conn> conn) {
  const auto arrival = conn->arrival;
  HttpRequest req;
  util::Status read_status = ReadRequest(conn.get(), &req);
  if (!read_status.ok()) {
    if (read_status.IsCancelled()) return nullptr;  // peer closed; no reply
    HttpResponse resp;
    if (read_status.IsTimeout()) {
      client_timeouts_.fetch_add(1, std::memory_order_relaxed);
      Metrics().client_timeouts.Inc();
      resp.status = 408;
      resp.body = JsonError("ClientTimeout", read_status.message());
    } else if (read_status.IsUnavailable()) {
      // server.parse failpoint: surface as transient overload.
      resp.status = 503;
      resp.extra_headers.emplace_back(
          "Retry-After", std::to_string(config_.retry_after_seconds));
      resp.body = JsonError("Unavailable", read_status.message());
    } else {
      resp.status = read_status.IsResourceExhausted() ? 413 : 400;
      resp.body = JsonError(util::StatusCodeToString(read_status.code()),
                            read_status.message());
    }
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    Metrics().responses_error.Inc();
    WriteAll(conn.get(), SerializeResponse(resp, /*keep_alive=*/false),
             config_.write_timeout_millis);
    return nullptr;  // malformed/slow connections never survive
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  Metrics().requests.Inc();

  HttpResponse resp = Dispatch(req, arrival);

  const bool keep_alive =
      req.keep_alive && !stopping_.load(std::memory_order_acquire);

  if (util::FailpointRegistry::Global().any_armed()) {
    util::Status st = util::FailpointStatus("server.write");
    if (!st.ok()) {
      // Injected write fault: the response is lost mid-flight; drop the
      // connection (the client sees a reset, never a half response).
      write_faults_.fetch_add(1, std::memory_order_relaxed);
      Metrics().write_faults.Inc();
      return nullptr;
    }
  }

  std::string bytes = SerializeResponse(resp, keep_alive);
  if (!WriteAll(conn.get(), bytes, config_.write_timeout_millis)) {
    client_timeouts_.fetch_add(1, std::memory_order_relaxed);
    Metrics().client_timeouts.Inc();
    return nullptr;
  }
  if (resp.status < 400) {
    responses_ok_.fetch_add(1, std::memory_order_relaxed);
    Metrics().responses_ok.Inc();
  } else {
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    Metrics().responses_error.Inc();
  }
  Metrics().request_millis.Observe(MillisSince(arrival));
  return keep_alive ? std::move(conn) : nullptr;
}

util::Status Server::ReadRequest(Conn* conn, HttpRequest* req) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.read_timeout_millis);
  // One bounded poll+recv round; appends to conn->inbuf.
  auto read_more = [&](bool* peer_closed) -> util::Status {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return util::Status::Timeout("client read timeout after " +
                                   std::to_string(config_.read_timeout_millis) +
                                   "ms");
    }
    const int wait = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    pollfd pfd{conn->fd, POLLIN, 0};
    int pr = ::poll(&pfd, 1, std::max(wait, 1));
    if (pr == 0) {
      return util::Status::Timeout("client read timeout after " +
                                   std::to_string(config_.read_timeout_millis) +
                                   "ms");
    }
    if (pr < 0) {
      if (errno == EINTR) return util::Status::OK();
      return util::Status::Internal(std::string("poll(): ") +
                                    std::strerror(errno));
    }
    char buf[4096];
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      *peer_closed = true;
      return util::Status::OK();
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return util::Status::OK();
      }
      return util::Status::Cancelled(std::string("recv(): ") +
                                     std::strerror(errno));
    }
    conn->inbuf.append(buf, static_cast<size_t>(n));
    return util::Status::OK();
  };

  // Head: everything before CRLFCRLF, bounded by max_head_bytes.
  size_t head_end;
  for (;;) {
    head_end = conn->inbuf.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (conn->inbuf.size() > config_.http.max_head_bytes) {
      return util::Status::InvalidArgument(
          "request head exceeds " +
          std::to_string(config_.http.max_head_bytes) + " bytes");
    }
    bool peer_closed = false;
    RE2X_RETURN_IF_ERROR(read_more(&peer_closed));
    if (peer_closed) {
      // Clean close between requests is the normal end of a keep-alive
      // connection; mid-head it is still just a gone client.
      return util::Status::Cancelled("peer closed connection");
    }
  }

  RE2X_FAILPOINT("server.parse");

  RE2X_ASSIGN_OR_RETURN(
      *req, ParseRequestHead(std::string_view(conn->inbuf).substr(0, head_end),
                             config_.http));

  // Body: exactly content_length bytes after the head.
  const size_t total = head_end + 4 + req->content_length;
  while (conn->inbuf.size() < total) {
    bool peer_closed = false;
    RE2X_RETURN_IF_ERROR(read_more(&peer_closed));
    if (peer_closed) {
      return util::Status::Cancelled("peer closed connection mid-body");
    }
  }
  req->body = conn->inbuf.substr(head_end + 4, req->content_length);
  // Keep pipelined leftover bytes for the next request on this conn.
  conn->inbuf.erase(0, total);
  return util::Status::OK();
}

bool Server::WriteAll(Conn* conn, std::string_view bytes,
                      uint64_t timeout_millis) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_millis);
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(conn->fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;  // slow client; cut off
      const int wait = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      pollfd pfd{conn->fd, POLLOUT, 0};
      int pr = ::poll(&pfd, 1, std::max(wait, 1));
      if (pr == 0) return false;
      if (pr < 0 && errno != EINTR) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE/ECONNRESET/...
  }
  return true;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

namespace {

HttpResponse ErrorResponse(const util::Status& st, unsigned retry_after) {
  HttpResponse resp;
  resp.status = HttpStatusForStatus(st);
  if (resp.status == 503 && IsRetryableOverload(st)) {
    resp.extra_headers.emplace_back("Retry-After",
                                    std::to_string(retry_after));
  }
  resp.body = JsonError(util::StatusCodeToString(st.code()), st.message());
  return resp;
}

HttpResponse MethodNotAllowed(const char* allow) {
  HttpResponse resp;
  resp.status = 405;
  resp.extra_headers.emplace_back("Allow", allow);
  resp.body = JsonError("MethodNotAllowed",
                        std::string("use ") + allow + " for this route");
  return resp;
}

HttpResponse JsonOk(std::string body) {
  HttpResponse resp;
  resp.body = std::move(body);
  return resp;
}

/// Renders a result table as JSON, honoring the `limit` row cap
/// (0 = all rows).
HttpResponse TableResponse(const sparql::ResultTable& table, size_t limit,
                           const sparql::ExecStats* stats) {
  const size_t rows =
      limit == 0 ? table.row_count() : std::min(limit, table.row_count());
  std::string body = "{\"columns\": [";
  for (size_t c = 0; c < table.columns().size(); ++c) {
    if (c > 0) body += ", ";
    body += "\"" + JsonEscape(table.columns()[c]) + "\"";
  }
  body += "], \"row_count\": " + std::to_string(table.row_count()) +
          ", \"truncated\": " + (rows < table.row_count() ? "true" : "false") +
          ", \"rows\": [";
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0) body += ", ";
    body += "[";
    for (size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) body += ", ";
      const sparql::Cell cell = table.at(r, c);
      if (cell.is_null()) {
        body += "null";
      } else if (cell.is_number()) {
        body += JsonNumber(cell.number);
      } else {
        body += "\"" + JsonEscape(table.CellToString(cell)) + "\"";
      }
    }
    body += "]";
  }
  body += "]";
  if (stats != nullptr) {
    body += ", \"stats\": {\"exec_millis\": " + JsonNumber(stats->exec_millis) +
            ", \"plan_millis\": " + JsonNumber(stats->plan_millis) +
            ", \"triples_scanned\": " + std::to_string(stats->triples_scanned) +
            ", \"intermediate_bindings\": " +
            std::to_string(stats->intermediate_bindings) + "}";
  }
  body += "}\n";
  return JsonOk(std::move(body));
}

/// Non-empty lines of a request body (the plain-text list format of
/// /session/<id>/start and /exclude).
std::vector<std::string> BodyLines(const std::string& body) {
  std::vector<std::string> lines;
  for (const std::string& raw : util::Split(body, '\n')) {
    std::string line(util::Trim(raw));
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

bool ParseRefinementKind(std::string_view name, core::RefinementKind* out) {
  std::string k = util::ToLower(name);
  if (k == "disaggregate") *out = core::RefinementKind::kDisaggregate;
  else if (k == "rollup" || k == "roll_up") *out = core::RefinementKind::kRollUp;
  else if (k == "topk" || k == "top_k") *out = core::RefinementKind::kTopK;
  else if (k == "percentile") *out = core::RefinementKind::kPercentile;
  else if (k == "similarity") *out = core::RefinementKind::kSimilarity;
  else if (k == "cluster") *out = core::RefinementKind::kCluster;
  else return false;
  return true;
}

std::string StatesJson(const std::vector<core::ExploreState>& states) {
  std::string body = "{\"refinements\": [";
  for (size_t i = 0; i < states.size(); ++i) {
    if (i > 0) body += ", ";
    body += "{\"index\": " + std::to_string(i) + ", \"description\": \"" +
            JsonEscape(states[i].description) + "\", \"step\": \"" +
            JsonEscape(states[i].trail.empty() ? "" : states[i].trail.back()) +
            "\"}";
  }
  body += "]}\n";
  return body;
}

}  // namespace

util::ExecGuard Server::MakeGuard(
    const HttpRequest& req, std::chrono::steady_clock::time_point arrival) {
  util::ExecGuard::Limits limits;
  limits.deadline_millis = std::min(
      req.QueryParamUint("timeout_ms", config_.default_deadline_millis),
      config_.max_deadline_millis);
  limits.max_rows = req.QueryParamUint("max_rows", config_.default_max_rows);
  limits.max_bytes = req.QueryParamUint("max_bytes", config_.default_max_bytes);
  return util::ExecGuard(limits, arrival, &drain_token_);
}

HttpResponse Server::Dispatch(const HttpRequest& req,
                              std::chrono::steady_clock::time_point arrival) {
  if (req.path == "/healthz") {
    if (req.method != "GET") return MethodNotAllowed("GET");
    return HandleHealthz();
  }
  if (req.path == "/metrics") {
    if (req.method != "GET") return MethodNotAllowed("GET");
    return HandleMetrics();
  }

  util::ExecGuard guard = MakeGuard(req, arrival);
  if (util::Status entry = guard.Check(); !entry.ok()) {
    // The request burned its whole deadline before execution (admission
    // queue wait, slow read) or the server is draining: answer without
    // executing anything.
    if (entry.IsTimeout()) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      Metrics().expired_in_queue.Inc();
    }
    return ErrorResponse(entry, config_.retry_after_seconds);
  }

  if (req.path == "/query") {
    if (req.method != "POST") return MethodNotAllowed("POST");
    return HandleQuery(req, guard);
  }
  if (req.path == "/ingest") {
    if (req.method != "POST") return MethodNotAllowed("POST");
    return HandleIngest(req, guard);
  }
  if (req.path == "/session" || util::StartsWith(req.path, "/session/")) {
    return HandleSession(req, guard);
  }
  return ErrorResponse(
      util::Status::NotFound("no route \"" + req.path + "\""),
      config_.retry_after_seconds);
}

HttpResponse Server::HandleHealthz() const {
  const engine::EngineCacheStats cache = dataset_.engine->cache_stats();
  const rdf::TripleStore::LiveInfo live = dataset_.store->live_info();
  std::string body =
      std::string("{\"status\": \"") +
      (stopping_.load(std::memory_order_acquire) ? "draining" : "serving") +
      "\", \"freeze_epoch\": " +
      std::to_string(dataset_.store->freeze_epoch()) +
      ", \"triples\": " + std::to_string(dataset_.store->size()) +
      ", \"sessions\": " + std::to_string(sessions_.size()) +
      ", \"inflight\": " +
      std::to_string(inflight_.load(std::memory_order_relaxed)) +
      ", \"session_routes\": " +
      (dataset_.vsg != nullptr && dataset_.text != nullptr ? "true" : "false") +
      ", \"ingest_route\": " +
      (dataset_.ingestor != nullptr ? "true" : "false") +
      ", \"live\": " + (live.live ? "true" : "false");
  if (live.live) {
    body += ", \"chain_depth\": " + std::to_string(live.chain_depth) +
            ", \"delta_adds\": " + std::to_string(live.delta_adds) +
            ", \"delta_dels\": " + std::to_string(live.delta_dels);
  }
  body += ", \"uptime_millis\": " + JsonNumber(MillisSince(started_at_)) +
          ", \"engine\": {\"plan_hits\": " + std::to_string(cache.plan_hits) +
          ", \"result_hits\": " + std::to_string(cache.result_hits) + "}}\n";
  return JsonOk(std::move(body));
}

HttpResponse Server::HandleMetrics() const {
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4";
  resp.body = obs::MetricsRegistry::Global().ToPrometheus();
  return resp;
}

HttpResponse Server::HandleQuery(const HttpRequest& req,
                                 const util::ExecGuard& guard) {
  std::string_view text = req.body;
  if (text.empty()) text = req.QueryParam("q");
  if (text.empty()) {
    return ErrorResponse(util::Status::InvalidArgument(
                             "POST a SPARQL query as the request body "
                             "(or ?q= for short queries)"),
                         config_.retry_after_seconds);
  }
  sparql::ExecOptions options;
  options.guard = &guard;
  sparql::ExecStats stats;
  auto table = dataset_.engine->ExecuteText(text, options, &stats);
  if (!table.ok()) {
    return ErrorResponse(table.status(), config_.retry_after_seconds);
  }
  return TableResponse(**table, req.QueryParamUint("limit", 0), &stats);
}

HttpResponse Server::HandleIngest(const HttpRequest& req,
                                  const util::ExecGuard& guard) {
  const unsigned retry_after = config_.retry_after_seconds;
  if (dataset_.ingestor == nullptr) {
    return ErrorResponse(
        util::Status::InvalidArgument(
            "this server was started without live ingestion "
            "(store is not live / no ingestor configured)"),
        retry_after);
  }
  store::IngestOp op = store::IngestOp::kInsert;
  std::string_view op_param = req.QueryParam("op");
  if (!op_param.empty()) {
    std::string lowered = util::ToLower(op_param);
    if (lowered == "insert") {
      op = store::IngestOp::kInsert;
    } else if (lowered == "delete") {
      op = store::IngestOp::kDelete;
    } else {
      return ErrorResponse(
          util::Status::InvalidArgument("?op= must be insert or delete"),
          retry_after);
    }
  }
  if (req.body.empty()) {
    return ErrorResponse(util::Status::InvalidArgument(
                             "POST N-Triples statements as the request body"),
                         retry_after);
  }
  auto receipt = dataset_.ingestor->IngestText(req.body, op, &guard);
  if (!receipt.ok()) return ErrorResponse(receipt.status(), retry_after);
  return JsonOk("{\"epoch\": " + std::to_string(receipt->epoch) +
                ", \"added\": " + std::to_string(receipt->added) +
                ", \"deleted\": " + std::to_string(receipt->deleted) +
                ", \"chain_depth\": " + std::to_string(receipt->chain_depth) +
                "}\n");
}

HttpResponse Server::HandleSession(const HttpRequest& req,
                                   const util::ExecGuard& guard) {
  const unsigned retry_after = config_.retry_after_seconds;
  if (req.path == "/session") {
    if (req.method != "POST") return MethodNotAllowed("POST");
    sparql::ExecOptions session_options;
    session_options.timeout_millis = config_.default_deadline_millis;
    auto id = sessions_.Create(dataset_.store, dataset_.vsg, dataset_.text,
                               dataset_.engine, session_options);
    if (!id.ok()) return ErrorResponse(id.status(), retry_after);
    return JsonOk("{\"session\": \"" + *id + "\"}\n");
  }

  // /session/<id>[/<verb>]
  std::vector<std::string> parts =
      util::Split(std::string_view(req.path).substr(9), '/');
  if (parts.empty() || parts[0].empty() || parts.size() > 2) {
    return ErrorResponse(
        util::Status::NotFound("no route \"" + req.path + "\""), retry_after);
  }
  const std::string& id = parts[0];
  const std::string verb = parts.size() == 2 ? parts[1] : "";

  if (verb.empty()) {
    if (req.method != "DELETE") return MethodNotAllowed("DELETE");
    util::Status st = sessions_.Remove(id);
    if (!st.ok()) return ErrorResponse(st, retry_after);
    return JsonOk("{\"ok\": true}\n");
  }
  if (req.method != "POST") return MethodNotAllowed("POST");

  auto acquired = sessions_.Acquire(id);
  if (!acquired.ok()) return ErrorResponse(acquired.status(), retry_after);
  ServerSession& held = **acquired;
  // Serialize concurrent requests on one exploration session; the
  // session-level lock is held for the whole request, so a slow query
  // delays only this session's other requests, never the server.
  std::lock_guard<std::mutex> session_lock(held.mu);
  core::Session& session = held.session;

  if (verb == "start") {
    std::vector<std::string> values = BodyLines(req.body);
    if (values.empty()) {
      return ErrorResponse(util::Status::InvalidArgument(
                               "POST the example values, one per line"),
                           retry_after);
    }
    core::ReolapOptions options;
    options.guard = &guard;
    auto candidates = session.Start(values, options);
    if (!candidates.ok()) return ErrorResponse(candidates.status(), retry_after);
    std::string body = "{\"candidates\": [";
    for (size_t i = 0; i < candidates->size(); ++i) {
      if (i > 0) body += ", ";
      body += "{\"index\": " + std::to_string(i) + ", \"description\": \"" +
              JsonEscape((*candidates)[i].description) + "\", \"sparql\": \"" +
              JsonEscape(sparql::ToSparql((*candidates)[i].query)) + "\"}";
    }
    body += "]}\n";
    return JsonOk(std::move(body));
  }
  if (verb == "pick") {
    util::Status st = session.PickCandidate(
        static_cast<size_t>(req.QueryParamUint("index", 0)));
    if (!st.ok()) return ErrorResponse(st, retry_after);
    return JsonOk("{\"ok\": true, \"sparql\": \"" +
                  JsonEscape(sparql::ToSparql(session.current().query)) +
                  "\"}\n");
  }
  if (verb == "execute") {
    sparql::ExecOptions options;
    options.guard = &guard;
    auto table = session.Execute(options);
    if (!table.ok()) return ErrorResponse(table.status(), retry_after);
    return TableResponse(**table, req.QueryParamUint("limit", 0),
                         &session.last_exec_stats());
  }
  if (verb == "refine") {
    core::RefinementKind kind;
    if (!ParseRefinementKind(req.QueryParam("kind"), &kind)) {
      return ErrorResponse(
          util::Status::InvalidArgument(
              "?kind= must be one of disaggregate|rollup|topk|percentile|"
              "similarity|cluster"),
          retry_after);
    }
    auto refinements = session.Refine(kind);
    if (!refinements.ok()) {
      return ErrorResponse(refinements.status(), retry_after);
    }
    return JsonOk(StatesJson(*refinements));
  }
  if (verb == "pick_refinement") {
    util::Status st = session.PickRefinement(
        static_cast<size_t>(req.QueryParamUint("index", 0)));
    if (!st.ok()) return ErrorResponse(st, retry_after);
    return JsonOk("{\"ok\": true, \"description\": \"" +
                  JsonEscape(session.current().description) + "\"}\n");
  }
  if (verb == "exclude") {
    std::vector<std::string> values = BodyLines(req.body);
    if (values.empty()) {
      return ErrorResponse(util::Status::InvalidArgument(
                               "POST the negative values, one per line"),
                           retry_after);
    }
    auto unmatched = session.ExcludeNegative(values);
    if (!unmatched.ok()) return ErrorResponse(unmatched.status(), retry_after);
    std::string body = "{\"ok\": true, \"unmatched\": [";
    for (size_t i = 0; i < unmatched->size(); ++i) {
      if (i > 0) body += ", ";
      body += "\"" + JsonEscape((*unmatched)[i]) + "\"";
    }
    body += "]}\n";
    return JsonOk(std::move(body));
  }
  if (verb == "slice") {
    util::Status st =
        session.Slice(static_cast<size_t>(req.QueryParamUint("index", 0)));
    if (!st.ok()) return ErrorResponse(st, retry_after);
    return JsonOk("{\"ok\": true}\n");
  }
  if (verb == "back") {
    session.Back();
    return JsonOk("{\"ok\": true}\n");
  }
  return ErrorResponse(
      util::Status::NotFound("no session verb \"" + verb + "\""), retry_after);
}

}  // namespace re2xolap::server
