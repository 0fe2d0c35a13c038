// re2xolap_server: the HTTP front door as a process.
//
//   re2xolap_server <file.snap> [options]
//     --bind=ADDR           bind address        (default 127.0.0.1)
//     --port=N              TCP port, 0=ephemeral (default 8280)
//     --workers=N           in-flight concurrency cap C (default 8)
//     --queue=N             admission queue capacity (default 64)
//     --deadline-ms=N       default per-request deadline (default 10000)
//     --drain-grace-ms=N    drain grace before guard-cancel (default 2000)
//     --query-log=PATH      arm the JSONL query-log sink
//     --live                enter live mode: POST /ingest applies N-Triples
//                           batches while queries keep serving (implied
//                           when the image is a live snapshot, i.e. carries
//                           a delta_chain section)
//     --per-client-cap=N    fair shedding: max queued requests per client
//                           IP (default 0 = disabled)
//
// Boots the dataset from a snapshot image (store always; text index +
// schema graph when the image carries them, enabling the /session
// routes), serves until SIGTERM/SIGINT, then drains gracefully: stop
// accepting, finish or guard-cancel in-flight requests, flush the query
// log, exit 0. The bound port is printed as "listening on <addr>:<port>"
// so scripts driving an ephemeral port can scrape it.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "obs/query_log.h"
#include "server/server.h"
#include "storage/snapshot.h"
#include "store/ingestor.h"
#include "util/thread_pool.h"

namespace {

using namespace re2xolap;

server::Server* g_server = nullptr;

extern "C" void HandleSignal(int) {
  // Async-signal-safe: RequestStop only stores a flag and writes one
  // byte to the acceptor's wake pipe.
  if (g_server != nullptr) g_server->RequestStop();
}

int Usage() {
  std::cerr << "usage: re2xolap_server <file.snap> [--bind=ADDR] [--port=N]\n"
            << "         [--workers=N] [--queue=N] [--deadline-ms=N]\n"
            << "         [--drain-grace-ms=N] [--query-log=PATH] [--live]\n"
            << "         [--per-client-cap=N]\n";
  return 1;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string snapshot_path = argv[1];
  server::ServerConfig config;
  config.port = 8280;
  std::string query_log_path;
  bool live = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::string(prefix).size());
    };
    uint64_t n = 0;
    if (arg.rfind("--bind=", 0) == 0) {
      config.bind_address = value("--bind=");
    } else if (arg.rfind("--port=", 0) == 0 && ParseUint(value("--port="), &n)) {
      config.port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--workers=", 0) == 0 &&
               ParseUint(value("--workers="), &n)) {
      config.worker_threads = n;
    } else if (arg.rfind("--queue=", 0) == 0 &&
               ParseUint(value("--queue="), &n)) {
      config.queue_capacity = n;
    } else if (arg.rfind("--deadline-ms=", 0) == 0 &&
               ParseUint(value("--deadline-ms="), &n)) {
      config.default_deadline_millis = n;
    } else if (arg.rfind("--drain-grace-ms=", 0) == 0 &&
               ParseUint(value("--drain-grace-ms="), &n)) {
      config.drain_grace_millis = n;
    } else if (arg.rfind("--query-log=", 0) == 0) {
      query_log_path = value("--query-log=");
    } else if (arg == "--live") {
      live = true;
    } else if (arg.rfind("--per-client-cap=", 0) == 0 &&
               ParseUint(value("--per-client-cap="), &n)) {
      config.per_client_queue_cap = n;
    } else {
      std::cerr << "error: unknown option " << arg << "\n";
      return Usage();
    }
  }

  if (!query_log_path.empty()) {
    obs::QueryLogConfig log_config = obs::QueryLog::Global().config();
    log_config.sink_path = query_log_path;
    obs::QueryLog::Global().Configure(std::move(log_config));
  }

  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  storage::SnapshotLoadOptions load_options;
  load_options.pool = &pool;
  load_options.use_mmap = true;
  auto loaded = storage::LoadSnapshot(snapshot_path, load_options);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status() << "\n";
    return 1;
  }
  std::cerr << "loaded " << loaded->store->size() << " triples (epoch "
            << loaded->store->freeze_epoch() << ") from " << snapshot_path
            << "\n";

  std::unique_ptr<core::VirtualSchemaGraph> vsg;
  if (loaded->vsg.has_value()) {
    auto graph = core::VirtualSchemaGraph::FromParts(
        std::move(loaded->vsg->nodes), std::move(loaded->vsg->edges),
        std::move(loaded->vsg->measures),
        std::move(loaded->vsg->observation_attrs));
    if (!graph.ok()) {
      std::cerr << "error: " << graph.status() << "\n";
      return 1;
    }
    vsg = std::make_unique<core::VirtualSchemaGraph>(*std::move(graph));
    loaded->vsg.reset();
  }
  if (vsg == nullptr || loaded->text == nullptr) {
    std::cerr << "note: snapshot lacks schema-graph/text-index sections; "
                 "/session routes disabled, /query still served\n";
  }

  engine::QueryEngine engine(*loaded->store);
  server::Dataset dataset;
  dataset.store = loaded->store.get();
  dataset.engine = &engine;
  dataset.vsg = vsg.get();
  dataset.text = loaded->text.get();

  // A live image (one with a delta_chain section) comes back already
  // live; --live upgrades a frozen image in place. Either way the ingestor enables POST /ingest.
  std::unique_ptr<store::Ingestor> ingestor;
  if (live || loaded->store->live()) {
    if (!loaded->store->live()) loaded->store->EnterLive();
    ingestor = std::make_unique<store::Ingestor>(loaded->store.get(), &pool);
    dataset.ingestor = ingestor.get();
    std::cerr << "live ingestion enabled (POST /ingest, chain depth "
              << loaded->store->chain_depth() << ")\n";
  }

  server::Server srv(dataset, config);
  g_server = &srv;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  if (util::Status st = srv.Start(); !st.ok()) {
    std::cerr << "error: " << st << "\n";
    return 1;
  }
  std::cout << "listening on " << config.bind_address << ":" << srv.port()
            << std::endl;

  srv.WaitForStopRequest();
  std::cerr << "drain: stopping (grace " << config.drain_grace_millis
            << "ms)\n";
  srv.Stop();
  const server::ServerStats stats = srv.stats();
  std::cerr << "drained: " << stats.requests << " requests ("
            << stats.responses_ok << " ok, " << stats.responses_error
            << " error), " << stats.shed << " shed, peak in-flight "
            << stats.max_inflight << "\n";
  g_server = nullptr;
  return 0;
}
