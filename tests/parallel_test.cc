// Determinism of the parallel execution subsystem: every thread count must
// produce byte-identical results to the serial path — candidates (order,
// descriptions, SPARQL text), ReolapStats counters and refinement
// evaluations.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/exref.h"
#include "core/reolap.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/text_index.h"
#include "sparql/ast.h"
#include "sparql/executor.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"
#include "util/thread_pool.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::kObsClass;
using re2xolap::testing::kUncached;

std::string Signature(const std::vector<CandidateQuery>& candidates) {
  std::string sig;
  for (const CandidateQuery& c : candidates) {
    sig += c.description + "\n";
    sig += sparql::ToSparql(c.query) + "\n";
    for (const std::string& g : c.group_columns) sig += g + ",";
    for (const std::string& m : c.measure_columns) sig += m + ",";
    for (const Interpretation& in : c.interpretations) {
      sig += std::to_string(in.member) + ";";
    }
    for (const auto& row : c.extra_rows) {
      for (const Interpretation& in : row) {
        sig += std::to_string(in.member) + "|";
      }
    }
    sig += "\n";
  }
  return sig;
}

/// A bootstrapped environment over any frozen store.
struct Env {
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<Reolap> reolap;
};

Env MakeEnv(std::unique_ptr<rdf::TripleStore> store,
            const std::string& obs_class) {
  Env env;
  env.store = std::move(store);
  auto r = VirtualSchemaGraph::Build(*env.store, obs_class);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  env.vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
  env.text = std::make_unique<rdf::TextIndex>(*env.store);
  env.engine = std::make_unique<engine::QueryEngine>(*env.store, kUncached);
  env.reolap =
      std::make_unique<Reolap>(env.vsg.get(), env.text.get(), *env.engine);
  return env;
}

Env MakeEurostatEnv() {
  auto ds = qb::Generate(qb::EurostatSpec(3000));
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return MakeEnv(std::move(ds->store), ds->spec.observation_class);
}

TEST(ParallelSynthesisTest, EightThreadsMatchSerialOnFigure1) {
  Env env = MakeEnv(BuildFigure1Store(), kObsClass);
  for (std::vector<std::string> tuple :
       {std::vector<std::string>{"Germany", "2014"},
        std::vector<std::string>{"Syria"},
        std::vector<std::string>{"Asia", "Germany", "18-34"}}) {
    ReolapOptions serial;
    serial.num_threads = 1;
    ReolapStats serial_stats;
    auto expected = env.reolap->Synthesize(tuple, serial, &serial_stats);
    ASSERT_TRUE(expected.ok());

    ReolapOptions parallel;
    parallel.num_threads = 8;
    ReolapStats parallel_stats;
    auto actual = env.reolap->Synthesize(tuple, parallel, &parallel_stats);
    ASSERT_TRUE(actual.ok());

    EXPECT_EQ(Signature(*expected), Signature(*actual));
    EXPECT_EQ(serial_stats.combinations_checked,
              parallel_stats.combinations_checked);
    EXPECT_EQ(serial_stats.validated_ok, parallel_stats.validated_ok);
    EXPECT_EQ(serial_stats.interpretations_considered,
              parallel_stats.interpretations_considered);
  }
}

TEST(ParallelSynthesisTest, ThreadSweepIsDeterministicOnEurostat) {
  Env env = MakeEurostatEnv();
  // Real labels from the generated Eurostat cube (year + country levels).
  const std::vector<std::string> tuple = {"Germany", "2014"};
  ReolapOptions serial;
  serial.num_threads = 1;
  ReolapStats serial_stats;
  auto expected = env.reolap->Synthesize(tuple, serial, &serial_stats);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected->empty());

  for (size_t threads : {2u, 4u, 8u}) {
    ReolapOptions options;
    options.num_threads = threads;
    ReolapStats stats;
    auto actual = env.reolap->Synthesize(tuple, options, &stats);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(Signature(*expected), Signature(*actual)) << threads;
    EXPECT_EQ(serial_stats.combinations_checked, stats.combinations_checked);
    EXPECT_EQ(serial_stats.validated_ok, stats.validated_ok);
  }
}

TEST(ParallelSynthesisTest, ExternalPoolIsReusedAcrossCalls) {
  Env env = MakeEnv(BuildFigure1Store(), kObsClass);
  util::ThreadPool pool(4);
  ReolapOptions options;
  options.num_threads = 4;
  options.pool = &pool;
  ReolapOptions serial;
  serial.num_threads = 1;
  for (int round = 0; round < 3; ++round) {
    auto expected = env.reolap->Synthesize({"Germany", "2014"}, serial);
    auto actual = env.reolap->Synthesize({"Germany", "2014"}, options);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(Signature(*expected), Signature(*actual));
  }
}

TEST(ParallelSynthesisTest, SynthesizeMultiMatchesSerial) {
  Env env = MakeEnv(BuildFigure1Store(), kObsClass);
  const std::vector<std::vector<std::string>> tuples = {
      {"Germany", "2014"}, {"France", "2014"}};
  ReolapOptions serial;
  serial.num_threads = 1;
  auto expected = env.reolap->SynthesizeMulti(tuples, serial);
  ASSERT_TRUE(expected.ok());
  ReolapOptions parallel;
  parallel.num_threads = 8;
  auto actual = env.reolap->SynthesizeMulti(tuples, parallel);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(Signature(*expected), Signature(*actual));
}

TEST(ParallelExrefTest, DisaggregateAndEvaluateMatchSerial) {
  Env env = MakeEnv(BuildFigure1Store(), kObsClass);
  auto queries = env.reolap->Synthesize({"Germany", "2014"});
  ASSERT_TRUE(queries.ok());
  ASSERT_FALSE(queries->empty());
  ExploreState state = InitialState((*queries)[0]);

  util::ThreadPool pool(4);
  std::vector<ExploreState> serial_states =
      Disaggregate(*env.vsg, *env.store, state);
  std::vector<ExploreState> parallel_states =
      Disaggregate(*env.vsg, *env.store, state, &pool);
  ASSERT_EQ(serial_states.size(), parallel_states.size());
  for (size_t i = 0; i < serial_states.size(); ++i) {
    EXPECT_EQ(sparql::ToSparql(serial_states[i].query),
              sparql::ToSparql(parallel_states[i].query));
    EXPECT_EQ(serial_states[i].description, parallel_states[i].description);
  }

  // Caches off, so the parallel pass executes rather than replaying the
  // serial pass's results.
  engine::QueryEngine engine(*env.store, kUncached);
  std::vector<sparql::ExecStats> serial_stats, parallel_stats;
  auto serial_tables =
      EvaluateStates(engine, serial_states, {}, nullptr, &serial_stats);
  auto parallel_tables =
      EvaluateStates(engine, parallel_states, {}, &pool, &parallel_stats);
  ASSERT_EQ(serial_tables.size(), parallel_tables.size());
  ASSERT_EQ(parallel_stats.size(), parallel_tables.size());
  for (size_t i = 0; i < serial_tables.size(); ++i) {
    ASSERT_TRUE(serial_tables[i].ok());
    ASSERT_TRUE(parallel_tables[i].ok());
    EXPECT_EQ((*serial_tables[i])->row_count(),
              (*parallel_tables[i])->row_count());
    EXPECT_EQ((*serial_tables[i])->columns(),
              (*parallel_tables[i])->columns());
    EXPECT_EQ(serial_stats[i].intermediate_bindings,
              parallel_stats[i].intermediate_bindings);
  }
}

}  // namespace
}  // namespace re2xolap::core
