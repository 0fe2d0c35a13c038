#ifndef RE2XOLAP_BENCH_E2E_WORKLOAD_H_
#define RE2XOLAP_BENCH_E2E_WORKLOAD_H_

// Workload definitions of bench_e2e and everything made before the load
// starts: the deployment (dataset, engine, server), the exploration
// session scripts, the /query pool and the ingest batches.

#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "bench/e2e/e2e_util.h"
#include "engine/query_engine.h"
#include "obs/trace.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/ntriples.h"
#include "server/server.h"
#include "sparql/ast.h"
#include "store/ingestor.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace re2xolap::e2e {

enum class Kind { kExplore, kQuery, kIngest };

struct WorkloadSpec {
  const char* name;
  const char* dataset;      // "Eurostat" or "DBpedia"
  uint64_t observations;    // full-scale observation count
  Kind kind;
  bool hot;                 // explore: skewed tuple pool (else fresh tuples)
  double warmup_s;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
inline constexpr WorkloadSpec kWorkloads[] = {
    {"explore_hot", "Eurostat", 120000, Kind::kExplore, true, 5},
    {"explore_cold", "DBpedia", 60000, Kind::kExplore, false, 0},
    {"query_hot", "Eurostat", 120000, Kind::kQuery, true, 5},
    {"ingest_mixed", "Eurostat", 30000, Kind::kIngest, false, 0},
};

// Load shape shared by every workload: the server's in-flight cap and
// queue, and the client count (one connection each; nproc = 4).
inline constexpr size_t kWorkers = 4;
inline constexpr size_t kQueueCapacity = 64;
inline constexpr size_t kClients = 4;

inline constexpr size_t kTuplePool = 8;
inline constexpr double kTupleSkew = 1.5;
inline constexpr double kHotPickSkew = 2.0;
inline constexpr size_t kHotSessions = 32;
// explore_hot moves a pick to the next option, up to this many options,
// when its result would not stay cached.
inline constexpr size_t kHotPickTries = 4;
inline constexpr size_t kQueryPool = 24;
inline constexpr size_t kIngestBatchTriples = 64;
inline constexpr double kIngestBatchesPerSecond = 20;
// explore_cold runs a fixed script of sessions per client, sized so the
// script takes about --seconds at the seed commit; the run stops at three
// times that if a change makes it slower.
inline constexpr double kColdSessionsPerClientSecond = 0.5;
inline constexpr double kColdCapFactor = 3;

/// Deterministic 64-bit stream seed from a seed and a purpose/index.
inline uint64_t Mix(uint64_t seed, uint64_t stream) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 0x632BE59BD9B4E019ULL));
  return rng.Next();
}

// The populations a run draws from -- the datasets, the tuple, session and
// query pools, the observations cloned by ingest -- are the same for
// every run (the datasets at their spec seeds, the pools from this seed),
// so runs with different --seed values do comparable work. The run seed
// draws the order in which the clients take sessions or pool queries and
// the content of every ingest batch.
inline constexpr uint64_t kInputSeed = 0;

// Stream ids: sessions use their index; the others sit far above.
inline constexpr uint64_t kTuplePoolStream = 1ULL << 40;
inline constexpr uint64_t kQueryPoolStream = 2ULL << 40;
inline constexpr uint64_t kBatchStream = 4ULL << 40;
inline constexpr uint64_t kOrderStream = 5ULL << 40;

/// Index in [0, n) drawn from Zipf(s) by inverting its CDF at `u`; s = 0
/// is uniform.
inline size_t ZipfPick(double u, size_t n, double s) {
  if (n <= 1) return 0;
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += std::pow(static_cast<double>(i + 1), -s);
  const double target = u * total;
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -s);
    if (target < acc) return i;
  }
  return n - 1;
}

/// Wall time of each set-up phase, in milliseconds.
struct SetupTimes {
  double generate_ms = 0;
  double vsg_ms = 0;
  double text_ms = 0;
  double serve_ms = 0;  // EnterLive + engine + server construction + listen
  double total_s() const {
    return (generate_ms + vsg_ms + text_ms + serve_ms) / 1000.0;
  }
};

/// One running system under test. Members are destroyed bottom-up, so
/// the server stops before the ingestor, engine and data it points at.
struct Deployment {
  bench::BenchEnv env;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<util::ThreadPool> compaction_pool;
  std::unique_ptr<store::Ingestor> ingestor;
  std::unique_ptr<server::Server> server;
  SetupTimes times;

  rdf::TripleStore* store() { return env.dataset.store.get(); }
};

/// Generates the dataset and bootstraps the schema graph and text index
/// (bench::MakeEnv, with its phases timed separately).
inline util::Status BuildData(const std::string& dataset, uint64_t observations,
                              Deployment* d) {
  util::WallTimer timer;
  auto ds = qb::Generate(dataset == "DBpedia" ? qb::DbpediaSpec(observations)
                                              : qb::EurostatSpec(observations));
  if (!ds.ok()) return ds.status();
  d->env.dataset = std::move(ds).value();
  d->times.generate_ms = timer.ElapsedMillis();

  timer.Restart();
  auto vsg = core::VirtualSchemaGraph::Build(
      d->env.store(), d->env.dataset.spec.observation_class, {},
      &d->env.vsg_stats);
  if (!vsg.ok()) return vsg.status();
  d->env.vsg = std::make_unique<core::VirtualSchemaGraph>(std::move(vsg).value());
  d->times.vsg_ms = timer.ElapsedMillis();

  timer.Restart();
  d->env.text = std::make_unique<rdf::TextIndex>(d->env.store());
  d->times.text_ms = timer.ElapsedMillis();
  return util::Status::OK();
}

/// Makes the store live when asked, then starts the server on an
/// ephemeral port.
inline util::Status Serve(bool live, Deployment* d) {
  util::WallTimer timer;
  rdf::TripleStore* store = d->store();
  server::Dataset dataset{store, nullptr, d->env.vsg.get(), d->env.text.get(),
                          nullptr};
  if (live) {
    store->EnterLive();
    d->compaction_pool =
        std::make_unique<util::ThreadPool>(util::ThreadPool::DefaultThreads());
    d->ingestor =
        std::make_unique<store::Ingestor>(store, d->compaction_pool.get());
    dataset.ingestor = d->ingestor.get();
  }
  d->engine = std::make_unique<engine::QueryEngine>(*store);
  dataset.engine = d->engine.get();
  server::ServerConfig config;
  config.worker_threads = kWorkers;
  config.queue_capacity = kQueueCapacity;
  d->server = std::make_unique<server::Server>(dataset, config);
  RE2X_RETURN_IF_ERROR(d->server->Start());
  d->times.serve_ms = timer.ElapsedMillis();
  return util::Status::OK();
}

/// Pick value of a refinement round in which nothing is picked.
inline constexpr size_t kSkipRound = SIZE_MAX;

/// One scripted exploration session (Fig. 8c path): the example tuple and
/// its picks, the start pick first and then one per refinement round.
/// explore_cold draws each pick uniformly over the options offered from
/// `pick_u`; explore_hot's picks are option indices fixed when its
/// session list was built (`fixed`, kSkipRound for a round it skips).
struct SessionScript {
  std::vector<std::string> tuple;
  double pick_u[5] = {0, 0, 0, 0, 0};
  std::vector<size_t> fixed;

  /// The option to take at pick `slot` when `options` are offered, or
  /// kSkipRound.
  size_t Pick(size_t slot, size_t options) const {
    return fixed.empty() ? ZipfPick(pick_u[slot], options, 0) : fixed[slot];
  }
};

inline void DrawPicks(util::Rng& rng, SessionScript* s) {
  for (double& u : s->pick_u) u = rng.UniformDouble();
}

/// The refinement rounds of the Fig. 8c path.
inline constexpr core::RefinementKind kRounds[] = {
    core::RefinementKind::kDisaggregate, core::RefinementKind::kDisaggregate,
    core::RefinementKind::kSimilarity, core::RefinementKind::kTopK};

/// A tuple of k values taken from one observation; never empty for a
/// generated dataset (retries on a fresh draw).
inline std::vector<std::string> SampleTuple(const bench::BenchEnv& env, size_t k,
                                            util::Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<std::string> tuple = bench::SampleExampleTuple(env, k, rng);
    if (!tuple.empty()) return tuple;
  }
  return {};
}

/// explore_hot: the Zipf(1.5)-weighted pool of 8 tuples, k in {1, 2}.
inline std::vector<std::vector<std::string>> HotTuplePool(
    const bench::BenchEnv& env) {
  util::Rng rng(Mix(kInputSeed, kTuplePoolStream));
  std::vector<std::vector<std::string>> pool;
  while (pool.size() < kTuplePool) {
    pool.push_back(SampleTuple(env, 1 + rng.Uniform(2), rng));
  }
  return pool;
}

/// How explore_hot's session list came out.
struct HotBuild {
  size_t results = 0;       // distinct results the sessions execute
  size_t result_bytes = 0;  // their summed result-cache cost
  size_t skipped = 0;       // picks with no cacheable option
  size_t moved = 0;         // picks moved off their Zipf draw
};

/// explore_hot's session list, built by running every session once on the
/// server's engine before the clients start. Tuples are Zipf(1.5) over
/// the tuple pool and each pick is Zipf(2.0) over the options offered.
/// A pick whose result would take the sessions' results past half of one
/// result-cache shard moves to the next option, up to kHotPickTries
/// options; with none left, the round picks nothing (at the start pick,
/// the session ends after Start). However the shards split them, the
/// results never evict one another, so after this build every execute
/// the sessions make is a cache hit.
inline std::vector<SessionScript> HotSessions(const bench::BenchEnv& env,
                                              engine::QueryEngine* engine,
                                              HotBuild* build) {
  const std::vector<std::vector<std::string>> pool = HotTuplePool(env);
  const engine::EngineConfig& config = engine->config();
  const size_t budget = config.result_cache_bytes / config.result_cache_shards / 2;
  std::unordered_map<std::string, size_t> cost;  // query text -> result cost
  std::unordered_set<std::string> kept;

  // The option to take among `queries`, starting at Zipf draw `u`.
  auto choose = [&](const std::vector<const sparql::SelectQuery*>& queries,
                    double u) {
    const size_t first = ZipfPick(u, queries.size(), kHotPickSkew);
    for (size_t t = 0; t < std::min(kHotPickTries, queries.size()); ++t) {
      const size_t j = (first + t) % queries.size();
      std::string text = sparql::ToSparql(*queries[j]);
      if (kept.count(text)) return j;
      auto it = cost.find(text);
      if (it == cost.end()) {
        auto table = engine->Execute(*queries[j]);
        it = cost.emplace(text, table.ok() ? engine::EstimateTableCost(**table)
                                           : SIZE_MAX)
                 .first;
      }
      if (it->second <= budget - build->result_bytes) {
        kept.insert(std::move(text));
        build->result_bytes += it->second;
        build->moved += t > 0;
        return j;
      }
    }
    ++build->skipped;
    return kSkipRound;
  };

  std::vector<SessionScript> out;
  for (size_t i = 0; i < kHotSessions; ++i) {
    util::Rng rng(Mix(kInputSeed, i));
    SessionScript s;
    s.tuple = pool[ZipfPick(rng.UniformDouble(), pool.size(), kTupleSkew)];
    DrawPicks(rng, &s);
    s.fixed.assign(std::size(s.pick_u), kSkipRound);
    core::Session session(&env.store(), env.vsg.get(), env.text.get(), engine);
    auto candidates = session.Start(s.tuple);
    std::vector<const sparql::SelectQuery*> queries;
    if (candidates.ok()) {
      for (const core::CandidateQuery& c : *candidates) queries.push_back(&c.query);
    }
    if (!queries.empty()) s.fixed[0] = choose(queries, s.pick_u[0]);
    if (s.fixed[0] != kSkipRound && session.PickCandidate(s.fixed[0]).ok() &&
        session.Execute().ok()) {
      for (size_t round = 0; round < std::size(kRounds); ++round) {
        auto refined = session.Refine(kRounds[round]);
        if (!refined.ok() || refined->empty()) continue;
        queries.clear();
        for (const core::ExploreState& r : *refined) queries.push_back(&r.query);
        size_t& pick = s.fixed[round + 1];
        pick = choose(queries, s.pick_u[round + 1]);
        if (pick != kSkipRound &&
            !(session.PickRefinement(pick).ok() && session.Execute().ok())) {
          break;
        }
      }
    }
    out.push_back(std::move(s));
  }
  build->results = kept.size();
  return out;
}

/// explore_cold's session list: a fresh tuple per session, k uniform in
/// 1..3, uniform picks.
inline std::vector<SessionScript> ColdSessions(const bench::BenchEnv& env,
                                               size_t count) {
  std::vector<SessionScript> out;
  for (size_t i = 0; i < count; ++i) {
    util::Rng rng(Mix(kInputSeed, i));
    SessionScript s;
    s.tuple = SampleTuple(env, 1 + rng.Uniform(3), rng);
    DrawPicks(rng, &s);
    out.push_back(std::move(s));
  }
  return out;
}

/// A permutation of [0, count) drawn from `stream`: the order in which
/// a run's clients take sessions from the list, or one client's order
/// through the query pool. Cycling through a permutation keeps every
/// run's mix the same.
inline std::vector<size_t> Permutation(size_t count, uint64_t stream) {
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  util::Rng rng(stream);
  for (size_t i = count; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
  return order;
}

/// The /query pool: ReOLAP candidates plus one disaggregation of each,
/// every query checked against an engine with both caches off.
struct QueryPool {
  std::vector<std::string> texts;
  std::vector<RowDigest> reference;  // uncached answer per text
  std::vector<double> uncached_ms;   // uncached engine time per text
  size_t starts = 0;                 // Session::Start calls made
  uint64_t validation_probes = 0;    // reolap.probes during synthesis
};

/// Builds the pool on the (frozen) store. Empty results are skipped, and
/// so is any query that would take the pool's cached results past one
/// shard's slice of the result cache: however the shards split the pool,
/// nothing is evicted, and after warm-up every answer is a cache hit.
/// Spans wrap the core calls for the traced run.
inline util::Result<QueryPool> BuildQueryPool(const bench::BenchEnv& env) {
  const rdf::TripleStore& store = env.store();
  engine::QueryEngine synth(store);
  engine::EngineConfig off;
  off.plan_cache_capacity = 0;
  off.result_cache_bytes = 0;
  engine::QueryEngine uncached(store, off);
  const engine::EngineConfig defaults;
  const size_t budget =
      defaults.result_cache_bytes / defaults.result_cache_shards;
  size_t pooled_cost = 0;
  obs::Counter& probes =
      obs::MetricsRegistry::Global().GetCounter("reolap.probes");
  const uint64_t probes_before = probes.value();

  QueryPool pool;
  std::unordered_set<std::string> seen;
  auto admit = [&](const sparql::SelectQuery& q) {
    if (pool.texts.size() >= kQueryPool) return;
    std::string text = sparql::ToSparql(q);
    if (!seen.insert(text).second) return;
    sparql::ExecStats stats;
    auto table = uncached.ExecuteText(text, {}, &stats);
    if (!table.ok() || (*table)->row_count() == 0) return;
    const size_t cost = engine::EstimateTableCost(**table);
    if (pooled_cost + cost > budget) return;
    pooled_cost += cost;
    pool.texts.push_back(std::move(text));
    pool.reference.push_back(DigestTable(**table));
    pool.uncached_ms.push_back(stats.plan_millis + stats.exec_millis);
  };

  core::Session session(&store, env.vsg.get(), env.text.get(), &synth);
  util::Rng rng(Mix(kInputSeed, kQueryPoolStream));
  for (int attempt = 0; attempt < 12 && pool.texts.size() < kQueryPool;
       ++attempt) {
    std::vector<std::string> tuple = SampleTuple(env, 2, rng);
    if (tuple.empty()) continue;
    util::Result<std::vector<core::CandidateQuery>> candidates =
        util::Status::Internal("unset");
    {
      obs::Span span("e2e.core.start");
      candidates = session.Start(tuple);
    }
    ++pool.starts;
    if (!candidates.ok()) continue;
    // A few candidates per tuple, so several tuples contribute.
    for (size_t i = 0; i < candidates->size() && i < 3; ++i) {
      admit((*candidates)[i].query);
      if (!session.PickCandidate(i).ok()) continue;
      util::Result<std::vector<core::ExploreState>> refined =
          util::Status::Internal("unset");
      {
        obs::Span span("e2e.core.refine");
        span.SetAttr("kind", "Disaggregate");
        refined = session.Refine(core::RefinementKind::kDisaggregate);
      }
      if (refined.ok() && !refined->empty()) {
        admit((*refined)[rng.Uniform(refined->size())].query);
      }
    }
  }
  pool.validation_probes = probes.value() - probes_before;
  if (pool.texts.empty()) {
    return util::Status::Internal("no admissible query synthesized");
  }
  return pool;
}

/// Observations to clone into ingest batches: each one's (predicate,
/// object) pairs, read from the frozen store.
using ObservationTemplate = std::vector<std::pair<rdf::Term, rdf::Term>>;

inline std::vector<ObservationTemplate> SampleObservations(
    const bench::BenchEnv& env, size_t count) {
  const rdf::TripleStore& store = env.store();
  const rdf::TermId type = store.Lookup(rdf::Term::Iri(qb::kRdfType));
  const rdf::TermId cls =
      store.Lookup(rdf::Term::Iri(env.dataset.spec.observation_class));
  rdf::IndexRange typed = store.Match({rdf::kInvalidTermId, type, cls});
  util::Rng rng(Mix(kInputSeed, kBatchStream));
  std::vector<ObservationTemplate> out;
  for (size_t i = 0; i < count && !typed.empty(); ++i) {
    const rdf::TermId obs = typed[rng.Uniform(typed.size())].s;
    ObservationTemplate t;
    for (const rdf::EncodedTriple& tr :
         store.Match({obs, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
      t.emplace_back(store.term(tr.p), store.term(tr.o));
    }
    out.push_back(std::move(t));
  }
  return out;
}

/// Batch `number` as N-Triples: clones of sampled observations under
/// fresh subject IRIs with every numeric measure scaled by a factor in
/// [0.5, 1.5), cut at exactly kIngestBatchTriples statements.
inline std::string IngestBatch(const std::vector<ObservationTemplate>& templates,
                               uint64_t seed, uint64_t number) {
  util::Rng rng(Mix(seed, kBatchStream + 1 + number));
  std::string body;
  size_t triples = 0;
  for (size_t clone = 0; triples < kIngestBatchTriples; ++clone) {
    const ObservationTemplate& t = templates[rng.Uniform(templates.size())];
    const std::string subject =
        rdf::ToNTriples(rdf::Term::Iri("http://bench.e2e/ingest/" +
                                       std::to_string(seed) + "/" +
                                       std::to_string(number) + "/" +
                                       std::to_string(clone)));
    for (const auto& [p, o] : t) {
      if (triples == kIngestBatchTriples) break;
      rdf::Term object = o;
      if (o.is_numeric_literal()) {
        object = rdf::Term::IntegerLiteral(std::max<int64_t>(
            1, std::llround(o.AsDouble() * (0.5 + rng.UniformDouble()))));
      }
      body += subject + " " + rdf::ToNTriples(p) + " " +
              rdf::ToNTriples(object) + " .\n";
      ++triples;
    }
  }
  return body;
}

}  // namespace re2xolap::e2e

#endif  // RE2XOLAP_BENCH_E2E_WORKLOAD_H_
