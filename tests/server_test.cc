// Tests for the HTTP front door (src/server/): the message layer, the
// session registry, the live socket path, admission control and
// shedding, arrival-anchored deadlines, failpoint fault injection, the
// concurrent-session stress contract, and graceful drain. Every
// server-fixture test binds an ephemeral port on 127.0.0.1 and drives
// real sockets through server::HttpClient.

#include "server/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/session_manager.h"
#include "storage/snapshot.h"
#include "tests/test_data.h"
#include "util/failpoint.h"

namespace re2xolap::server {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::kObsClass;

constexpr char kObsQuery[] =
    "SELECT ?obs WHERE { ?obs a <http://test/Observation> }";

// ---------------------------------------------------------------------------
// HTTP message layer (no sockets)
// ---------------------------------------------------------------------------

TEST(HttpParseTest, ParsesRequestLineHeadersAndQueryParams) {
  auto req = ParseRequestHead(
      "POST /query?timeout_ms=250&name=a%20b HTTP/1.1\r\n"
      "Host: localhost\r\nContent-Length: 12\r\nX-Mixed-CASE: kept",
      HttpLimits{});
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/query");
  EXPECT_EQ(req->QueryParam("timeout_ms"), "250");
  EXPECT_EQ(req->QueryParamUint("timeout_ms", 0), 250u);
  EXPECT_EQ(req->QueryParam("name"), "a b");
  EXPECT_EQ(req->Header("host"), "localhost");
  EXPECT_EQ(req->Header("x-mixed-case"), "kept");
  EXPECT_EQ(req->content_length, 12u);
  EXPECT_TRUE(req->keep_alive);
}

TEST(HttpParseTest, ConnectionCloseAndHttp10Semantics) {
  auto close11 = ParseRequestHead(
      "GET / HTTP/1.1\r\nConnection: close", HttpLimits{});
  ASSERT_TRUE(close11.ok());
  EXPECT_FALSE(close11->keep_alive);

  auto plain10 = ParseRequestHead("GET / HTTP/1.0", HttpLimits{});
  ASSERT_TRUE(plain10.ok());
  EXPECT_FALSE(plain10->keep_alive);

  auto keep10 = ParseRequestHead(
      "GET / HTTP/1.0\r\nConnection: keep-alive", HttpLimits{});
  ASSERT_TRUE(keep10.ok());
  EXPECT_TRUE(keep10->keep_alive);
}

TEST(HttpParseTest, RejectsMalformedAndUnsupported) {
  EXPECT_TRUE(ParseRequestHead("garbage", HttpLimits{})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequestHead("PUT / HTTP/1.1", HttpLimits{})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequestHead("GET / HTTP/2.0", HttpLimits{})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequestHead("GET noslash HTTP/1.1", HttpLimits{})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseRequestHead("POST / HTTP/1.1\r\nTransfer-Encoding: chunked",
                       HttpLimits{})
          .status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseRequestHead("POST / HTTP/1.1\r\nContent-Length: 9x", HttpLimits{})
          .status().IsInvalidArgument());
}

TEST(HttpParseTest, OversizedBodyIsResourceExhausted) {
  HttpLimits limits;
  limits.max_body_bytes = 64;
  auto req = ParseRequestHead("POST / HTTP/1.1\r\nContent-Length: 65", limits);
  EXPECT_TRUE(req.status().IsResourceExhausted());
}

TEST(HttpSerializeTest, ResponseCarriesLengthConnectionAndExtras) {
  HttpResponse resp;
  resp.status = 503;
  resp.extra_headers.emplace_back("Retry-After", "1");
  resp.body = "{}";
  std::string wire = SerializeResponse(resp, /*keep_alive=*/false);
  EXPECT_NE(wire.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 2), "{}");
}

// ---------------------------------------------------------------------------
// Server fixture
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = BuildFigure1Store();
    auto vsg = core::VirtualSchemaGraph::Build(*store_, kObsClass);
    ASSERT_TRUE(vsg.ok());
    vsg_ = std::make_unique<core::VirtualSchemaGraph>(std::move(vsg).value());
    text_ = std::make_unique<rdf::TextIndex>(*store_);
    engine_ = std::make_unique<engine::QueryEngine>(*store_);
    util::FailpointRegistry::Global().DisarmAll();
  }

  void TearDown() override {
    util::FailpointRegistry::Global().DisarmAll();
    if (server_) server_->Stop();
  }

  /// Starts a server over the fixture dataset; returns a client for it.
  HttpClient StartServer(ServerConfig config = {}) {
    Dataset dataset{store_.get(), engine_.get(), vsg_.get(), text_.get()};
    server_ = std::make_unique<Server>(dataset, config);
    util::Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st;
    return HttpClient("127.0.0.1", server_->port());
  }

  std::unique_ptr<rdf::TripleStore> store_;
  std::unique_ptr<core::VirtualSchemaGraph> vsg_;
  std::unique_ptr<rdf::TextIndex> text_;
  std::unique_ptr<engine::QueryEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, HealthzReportsEpochAndStatus) {
  HttpClient client = StartServer();
  auto resp = client.Get("/healthz");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"status\": \"serving\""), std::string::npos);
  EXPECT_NE(resp->body.find("\"freeze_epoch\": "), std::string::npos);
  EXPECT_NE(resp->body.find("\"session_routes\": true"), std::string::npos);
}

TEST_F(ServerTest, MetricsServePrometheusTextFormat) {
  HttpClient client = StartServer();
  ASSERT_TRUE(client.Get("/healthz").ok());  // ensure one request counted
  auto resp = client.Get("/metrics");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->Header("content-type"), "text/plain; version=0.0.4");
  EXPECT_NE(resp->body.find("server_requests"), std::string::npos);
}

TEST_F(ServerTest, QueryExecutesSparqlOverSharedEngine) {
  HttpClient client = StartServer();
  auto resp = client.Post("/query", kObsQuery);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"columns\": [\"obs\"]"), std::string::npos);
  EXPECT_NE(resp->body.find("\"row_count\": 5"), std::string::npos);
  EXPECT_NE(resp->body.find("\"stats\": "), std::string::npos);

  // The row cap truncates the payload but reports the true count.
  auto limited = client.Post("/query?limit=2", kObsQuery);
  ASSERT_TRUE(limited.ok());
  EXPECT_NE(limited->body.find("\"row_count\": 5"), std::string::npos);
  EXPECT_NE(limited->body.find("\"truncated\": true"), std::string::npos);
}

TEST_F(ServerTest, ErrorTaxonomyMapsStatusesToHttpCodes) {
  HttpClient client = StartServer();
  // Parse error -> 400 with the typed code in the body.
  auto parse = client.Post("/query", "SELECT WHERE garbage");
  ASSERT_TRUE(parse.ok());
  EXPECT_EQ(parse->status, 400);
  // Unknown route -> 404.
  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  // Wrong method -> 405 with Allow.
  auto method = client.Get("/query");
  ASSERT_TRUE(method.ok());
  EXPECT_EQ(method->status, 405);
  EXPECT_EQ(method->Header("allow"), "POST");
  // Empty body -> 400.
  auto empty = client.Post("/query", "");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->status, 400);
  // Guard row budget -> 503 without Retry-After (not load shedding).
  auto budget = client.Post("/query?max_rows=1", kObsQuery);
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->status, 503);
  EXPECT_TRUE(budget->Header("retry-after").empty());
}

TEST_F(ServerTest, SessionLifecycleOverHttp) {
  HttpClient client = StartServer();
  auto created = client.Post("/session", "");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 200);
  // Body is {"session": "s-1"}; pull out the id.
  std::string id = "s-1";
  ASSERT_NE(created->body.find("\"session\": \"" + id + "\""),
            std::string::npos)
      << created->body;

  auto start = client.Post("/session/" + id + "/start", "Germany\n2014\n");
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->status, 200) << start->body;
  EXPECT_NE(start->body.find("\"sparql\": "), std::string::npos);

  auto pick = client.Post("/session/" + id + "/pick?index=0", "");
  ASSERT_TRUE(pick.ok());
  ASSERT_EQ(pick->status, 200) << pick->body;

  auto exec = client.Post("/session/" + id + "/execute", "");
  ASSERT_TRUE(exec.ok());
  ASSERT_EQ(exec->status, 200) << exec->body;
  EXPECT_NE(exec->body.find("\"row_count\": 3"), std::string::npos)
      << exec->body;

  auto refine = client.Post("/session/" + id + "/refine?kind=disaggregate", "");
  ASSERT_TRUE(refine.ok());
  ASSERT_EQ(refine->status, 200) << refine->body;
  EXPECT_NE(refine->body.find("\"refinements\": ["), std::string::npos);

  auto pick_ref =
      client.Post("/session/" + id + "/pick_refinement?index=0", "");
  ASSERT_TRUE(pick_ref.ok());
  ASSERT_EQ(pick_ref->status, 200) << pick_ref->body;

  auto back = client.Post("/session/" + id + "/back", "");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status, 200);

  auto bad_kind = client.Post("/session/" + id + "/refine?kind=nope", "");
  ASSERT_TRUE(bad_kind.ok());
  EXPECT_EQ(bad_kind->status, 400);

  auto removed = client.Request("DELETE", "/session/" + id);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->status, 200);

  auto gone = client.Post("/session/" + id + "/execute", "");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status, 404);
  EXPECT_EQ(server_->sessions().size(), 0u);
}

TEST_F(ServerTest, SessionCapShedsCreate) {
  ServerConfig config;
  config.max_sessions = 1;
  HttpClient client = StartServer(config);
  auto first = client.Post("/session", "");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  auto second = client.Post("/session", "");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 503);
}

TEST_F(ServerTest, QueueWaitCountsAgainstDeadline) {
  // A 1ms deadline cannot survive a 50ms injected parse delay: the guard
  // anchors at arrival, so Dispatch answers 504 without executing.
  HttpClient client = StartServer();
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("server.parse=delay:50")
                  .ok());
  auto resp = client.Post("/query?timeout_ms=1", kObsQuery);
  util::FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 504) << resp->body;
  EXPECT_EQ(server_->stats().expired_in_queue, 1u);
}

TEST_F(ServerTest, FullQueueShedsWith503RetryAfter) {
  // C = 1 worker and a queue of 1: with the single worker pinned in a
  // 300ms parse delay and the queue holding the second request, the
  // third must be shed at admission.
  ServerConfig config;
  config.worker_threads = 1;
  config.queue_capacity = 1;
  HttpClient shed_client = StartServer(config);
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("server.parse=delay:300")
                  .ok());
  std::thread t1([&] {
    HttpClient c("127.0.0.1", server_->port());
    (void)c.Post("/query", kObsQuery);
  });
  std::thread t2([&] {
    HttpClient c("127.0.0.1", server_->port());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    (void)c.Post("/query", kObsQuery);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(160));
  auto resp = shed_client.Post("/query", kObsQuery);
  t1.join();
  t2.join();
  util::FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 503) << resp->body;
  EXPECT_EQ(resp->Header("retry-after"), "1");
  EXPECT_NE(resp->body.find("queue"), std::string::npos);
  // Exactly 1: the pins' clients close their keep-alive connections after
  // their answers, and a peer's close is not a shed.
  EXPECT_EQ(server_->stats().shed, 1u);
}

TEST_F(ServerTest, SaturatedServerStillAnswersProbes) {
  // One worker held in a 400ms execution delay and a one-slot queue
  // holding the second query: the server is saturated, yet /metrics and
  // /healthz are answered on the acceptor while a third query is shed.
  ServerConfig config;
  config.worker_threads = 1;
  config.queue_capacity = 1;
  HttpClient client = StartServer(config);
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=delay:400")
                  .ok());
  // Distinct texts, so neither pin is a result-cache hit.
  auto pin = [&](const char* var) {
    HttpClient c("127.0.0.1", server_->port());
    (void)c.Post("/query", std::string("SELECT ?") + var + " WHERE { ?" +
                               var + " a <http://test/Observation> }");
  };
  std::thread t1(pin, "p1");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  auto inflight = [&] { return metrics.GetGauge("server.inflight").value(); };
  auto queued = [&] { return metrics.GetGauge("server.queue_depth").value(); };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (inflight() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::thread t2(pin, "p2");
  while (queued() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(inflight(), 1);
  ASSERT_EQ(queued(), 1);
  auto metrics_resp = client.Get("/metrics");
  auto health_resp = client.Get("/healthz");
  auto shed_resp = client.Post("/query", kObsQuery);
  t1.join();
  t2.join();
  util::FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(metrics_resp.ok()) << metrics_resp.status();
  EXPECT_EQ(metrics_resp->status, 200);
  EXPECT_NE(metrics_resp->body.find("server_queue_depth 1"), std::string::npos)
      << metrics_resp->body;
  ASSERT_TRUE(health_resp.ok()) << health_resp.status();
  EXPECT_EQ(health_resp->status, 200);
  EXPECT_NE(health_resp->body.find("\"inflight\": 1"), std::string::npos)
      << health_resp->body;
  ASSERT_TRUE(shed_resp.ok()) << shed_resp.status();
  EXPECT_EQ(shed_resp->status, 503) << shed_resp->body;
  // Exactly 1: t1's client closes its keep-alive connection after its
  // answer, possibly while t2 still fills the queue, and a peer's close
  // is not a shed.
  EXPECT_EQ(server_->stats().shed, 1u);
}

// A keep-alive client that closes its idle connection while the queue is
// full is neither queued nor shed: poll() reports the peer's FIN as
// readable, and the acceptor must tell it from a new request.
TEST_F(ServerTest, IdleCloseOnSaturatedServerIsNotShed) {
  ServerConfig config;
  config.worker_threads = 1;
  config.queue_capacity = 1;
  StartServer(config);
  auto idle_client = std::make_unique<HttpClient>("127.0.0.1", server_->port());
  auto warm = idle_client->Get("/healthz");
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm->status, 200);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  auto inflight = [&] { return metrics.GetGauge("server.inflight").value(); };
  auto queued = [&] { return metrics.GetGauge("server.queue_depth").value(); };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (inflight() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(inflight(), 0);
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=delay:600")
                  .ok());
  auto pin = [&](const char* var) {
    HttpClient c("127.0.0.1", server_->port());
    (void)c.Post("/query", std::string("SELECT ?") + var + " WHERE { ?" +
                               var + " a <http://test/Observation> }");
  };
  std::thread t1(pin, "p1");
  while (inflight() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::thread t2(pin, "p2");
  while (queued() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(inflight(), 1);
  ASSERT_EQ(queued(), 1);
  const uint64_t shed_before = server_->stats().shed;
  idle_client.reset();  // FIN on the idle keep-alive connection
  // The acceptor polls every 100ms at most; the pins hold the queue full
  // for far longer than this wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t shed = server_->stats().shed - shed_before;
  const double still_queued = queued();
  t1.join();
  t2.join();
  util::FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(still_queued, 1);
  EXPECT_EQ(shed, 0u);
}

// A shed request whose body had fully arrived counts once. Each client
// holds a keep-alive connection (HttpClient retries a failed exchange on
// such a connection, and a retry would be shed and counted again), and
// each body is longer than the head the acceptor reads to look for probe
// routes, so request bytes are still unread when the server sheds them
// (it discards them before closing).
TEST_F(ServerTest, ShedPostWithFullBodyCountsOnce) {
  ServerConfig config;
  config.worker_threads = 1;
  config.queue_capacity = 1;
  StartServer(config);
  constexpr uint64_t kSheds = 8;
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (uint64_t i = 0; i < kSheds; ++i) {
    clients.push_back(
        std::make_unique<HttpClient>("127.0.0.1", server_->port()));
    auto warm = clients.back()->Get("/healthz");
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_EQ(warm->status, 200);
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  auto inflight = [&] { return metrics.GetGauge("server.inflight").value(); };
  auto queued = [&] { return metrics.GetGauge("server.queue_depth").value(); };
  // The worker lowers the in-flight gauge after it has written the last
  // warm-up response: wait for that, so the gauge below reads the pins.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (inflight() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(inflight(), 0);
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=delay:600")
                  .ok());
  // Saturate: one query executing, one queued (distinct texts, so
  // neither is a result-cache hit).
  auto pin = [&](const char* var) {
    HttpClient c("127.0.0.1", server_->port());
    (void)c.Post("/query", std::string("SELECT ?") + var + " WHERE { ?" +
                               var + " a <http://test/Observation> }");
  };
  std::thread t1(pin, "p1");
  while (inflight() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::thread t2(pin, "p2");
  while (queued() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(inflight(), 1);
  ASSERT_EQ(queued(), 1);
  const uint64_t shed_before = server_->stats().shed;
  const std::string body =
      std::string(kObsQuery) + " #" + std::string(32u << 10, 'x');
  std::vector<int> statuses;
  for (auto& client : clients) {
    auto resp = client->Post("/query", body);
    statuses.push_back(resp.ok() ? resp->status : -1);
  }
  const uint64_t shed = server_->stats().shed - shed_before;
  t1.join();
  t2.join();
  util::FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(statuses, std::vector<int>(kSheds, 503));
  EXPECT_EQ(shed, kSheds);
}

TEST_F(ServerTest, AcceptFailpointDropsConnectionsWithoutCrashing) {
  HttpClient client = StartServer();
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("server.accept=error*2")
                  .ok());
  // The two faulted accepts close the fresh connection; the client sees
  // a transport error, not a hang or a crash.
  EXPECT_FALSE(HttpClient("127.0.0.1", server_->port())
                   .Get("/healthz").ok());
  EXPECT_FALSE(HttpClient("127.0.0.1", server_->port())
                   .Get("/healthz").ok());
  // Budget exhausted: service resumes.
  auto resp = client.Get("/healthz");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(server_->stats().accept_faults, 2u);
}

TEST_F(ServerTest, ParseFailpointSurfacesAs503) {
  HttpClient client = StartServer();
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("server.parse=error*1")
                  .ok());
  auto resp = client.Post("/query", kObsQuery);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 503);
  EXPECT_EQ(resp->Header("retry-after"), "1");
  auto after = client.Post("/query", kObsQuery);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
}

TEST_F(ServerTest, WriteFailpointDropsResponseNotServer) {
  HttpClient client = StartServer();
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("server.write=error*1")
                  .ok());
  // The faulted write closes the connection mid-response; the client's
  // one reconnect retry then gets a clean answer (the failpoint budget
  // is spent). Either way the server must survive.
  auto resp = client.Post("/query", kObsQuery);
  if (resp.ok()) {
    EXPECT_EQ(resp->status, 200);
  }
  auto after = client.Post("/query", kObsQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(server_->stats().write_faults, 1u);
}

TEST_F(ServerTest, GracefulDrainFinishesInflightRequests) {
  ServerConfig config;
  config.drain_grace_millis = 2'000;
  HttpClient client = StartServer(config);
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=delay:100")
                  .ok());
  std::atomic<int> status{0};
  std::thread inflight([&] {
    HttpClient c("127.0.0.1", server_->port());
    auto resp = c.Post("/query", kObsQuery);
    if (resp.ok()) status.store(resp->status);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_->RequestStop();
  server_->Stop();
  inflight.join();
  util::FailpointRegistry::Global().DisarmAll();
  // The in-flight request finished inside the grace period.
  EXPECT_EQ(status.load(), 200);
  // The server is down: new connections fail.
  EXPECT_FALSE(HttpClient("127.0.0.1", server_->port())
                   .Get("/healthz").ok());
}

TEST_F(ServerTest, DrainGuardCancelsStragglers) {
  ServerConfig config;
  config.drain_grace_millis = 30;
  HttpClient client = StartServer(config);
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=delay:300")
                  .ok());
  std::atomic<int> status{0};
  std::string body;
  std::mutex body_mu;
  std::thread straggler([&] {
    HttpClient c("127.0.0.1", server_->port());
    auto resp = c.Post("/query", kObsQuery);
    if (resp.ok()) {
      status.store(resp->status);
      std::lock_guard<std::mutex> lock(body_mu);
      body = resp->body;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->RequestStop();
  server_->Stop();  // grace 30ms < 300ms delay: the guard gets cancelled
  straggler.join();
  util::FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(status.load(), 503);
  std::lock_guard<std::mutex> lock(body_mu);
  EXPECT_NE(body.find("Cancelled"), std::string::npos) << body;
}

TEST_F(ServerTest, WaitForStopRequestUnblocksOnSignalPath) {
  HttpClient client = StartServer();
  std::thread signaler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server_->RequestStop();  // what the SIGTERM handler calls
  });
  server_->WaitForStopRequest();
  signaler.join();
  EXPECT_TRUE(server_->draining());
  server_->Stop();
}

// The satellite-4 stress contract: N threads of mixed execute /
// synthesize / refine traffic plus deliberately over-budget and
// past-deadline requests; every response is typed, in-flight never
// exceeds C, no session leaks, TSan-clean.
TEST_F(ServerTest, ConcurrentSessionStressStaysBounded) {
  // The stress runs over a snapshot-restored dataset — the deployment
  // shape (re2xolap_server always boots from an image), and it proves
  // the restored store/text/graph honor the concurrent-read contract.
  const std::string path =
      ::testing::TempDir() + "/server_stress.snap";
  storage::VsgImage image = storage::MakeVsgImage(*vsg_);
  ASSERT_TRUE(storage::SaveSnapshot(path, *store_, text_.get(), &image).ok());
  auto loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->text != nullptr);
  ASSERT_TRUE(loaded->vsg.has_value());
  auto restored_vsg = core::VirtualSchemaGraph::FromParts(
      loaded->vsg->nodes, loaded->vsg->edges, loaded->vsg->measures,
      loaded->vsg->observation_attrs);
  ASSERT_TRUE(restored_vsg.ok()) << restored_vsg.status();
  store_ = std::move(loaded->store);
  text_ = std::move(loaded->text);
  *vsg_ = std::move(restored_vsg).value();
  engine_ = std::make_unique<engine::QueryEngine>(*store_);

  ServerConfig config;
  config.worker_threads = 4;
  config.queue_capacity = 128;
  HttpClient main_client = StartServer(config);
  constexpr size_t kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<uint64_t> bad_responses{0};
  std::atomic<uint64_t> transport_errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port());
      auto check = [&](const util::Result<ClientResponse>& resp,
                       std::initializer_list<int> allowed) {
        if (!resp.ok()) {
          ++transport_errors;
          return false;
        }
        for (int s : allowed) {
          if (resp->status == s) return resp->status == 200;
        }
        ++bad_responses;
        return false;
      };
      for (int round = 0; round < kRounds; ++round) {
        auto created = client.Post("/session", "");
        if (!check(created, {200, 503})) continue;
        std::string id;
        size_t at = created->body.find("s-");
        size_t end = created->body.find('"', at);
        id = created->body.substr(at, end - at);
        std::string base = "/session/" + id;

        // Mixed traffic: synthesis, pick, execute (sometimes with a
        // hostile budget or an already-expired deadline), refine.
        auto started = client.Post(base + "/start", "Germany\n2014\n");
        if (check(started, {200, 503, 504})) {
          (void)client.Post(base + "/pick?index=0", "");
          const char* exec_target =
              (round % 3 == 0)   ? "/execute?max_rows=1"
              : (round % 3 == 1) ? "/execute?timeout_ms=1"
                                 : "/execute";
          auto exec = client.Post(base + exec_target, "");
          if (check(exec, {200, 503, 504})) {
            auto refine =
                client.Post(base + "/refine?kind=disaggregate", "");
            check(refine, {200, 400, 503, 504});
          }
        }
        (void)client.Request("DELETE", base);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_responses.load(), 0u);
  EXPECT_EQ(transport_errors.load(), 0u);
  const ServerStats stats = server_->stats();
  // The hard robustness invariant: in-flight executions never exceeded
  // the worker cap C.
  EXPECT_LE(stats.max_inflight, config.worker_threads);
  EXPECT_GE(stats.requests, kThreads * kRounds);
  // Every created session was deleted (or shed before creation).
  EXPECT_EQ(server_->sessions().size(), 0u);
}

// ---------------------------------------------------------------------------
// SessionManager (no sockets)
// ---------------------------------------------------------------------------

class SessionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = BuildFigure1Store();
    auto vsg = core::VirtualSchemaGraph::Build(*store_, kObsClass);
    ASSERT_TRUE(vsg.ok());
    vsg_ = std::make_unique<core::VirtualSchemaGraph>(std::move(vsg).value());
    text_ = std::make_unique<rdf::TextIndex>(*store_);
    engine_ = std::make_unique<engine::QueryEngine>(*store_);
  }

  util::Result<std::string> Create(SessionManager& mgr) {
    return mgr.Create(store_.get(), vsg_.get(), text_.get(), engine_.get(),
                      sparql::ExecOptions{});
  }

  std::unique_ptr<rdf::TripleStore> store_;
  std::unique_ptr<core::VirtualSchemaGraph> vsg_;
  std::unique_ptr<rdf::TextIndex> text_;
  std::unique_ptr<engine::QueryEngine> engine_;
};

TEST_F(SessionManagerTest, CreateAcquireRemoveRoundTrip) {
  SessionManager mgr(/*max_sessions=*/4, /*idle_millis=*/0);
  auto id = Create(mgr);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(mgr.size(), 1u);
  auto session = mgr.Acquire(*id);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(mgr.Remove(*id).ok());
  EXPECT_TRUE(mgr.Acquire(*id).status().IsNotFound());
  EXPECT_TRUE(mgr.Remove(*id).IsNotFound());
  // The shared_ptr still held keeps the session alive after removal.
  EXPECT_FALSE((*session)->session.has_state());
}

TEST_F(SessionManagerTest, CapAndStoreOnlyDatasetAreTypedErrors) {
  SessionManager mgr(/*max_sessions=*/1, /*idle_millis=*/0);
  ASSERT_TRUE(Create(mgr).ok());
  EXPECT_TRUE(Create(mgr).status().IsResourceExhausted());
  EXPECT_TRUE(mgr
                  .Create(store_.get(), nullptr, nullptr, engine_.get(),
                          sparql::ExecOptions{})
                  .status().IsInvalidArgument());
}

TEST_F(SessionManagerTest, IdleSessionsAreEvicted) {
  SessionManager mgr(/*max_sessions=*/4, /*idle_millis=*/1);
  auto id = Create(mgr);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(mgr.EvictIdle(), 1u);
  EXPECT_EQ(mgr.size(), 0u);
  EXPECT_TRUE(mgr.Acquire(*id).status().IsNotFound());
}

TEST_F(SessionManagerTest, ZeroTtlNeverEvicts) {
  SessionManager mgr(/*max_sessions=*/4, /*idle_millis=*/0);
  ASSERT_TRUE(Create(mgr).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(mgr.EvictIdle(), 0u);
  EXPECT_EQ(mgr.size(), 1u);
}

}  // namespace
}  // namespace re2xolap::server
