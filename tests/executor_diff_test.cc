// Differential tests of the query engine against the reference evaluator
// (tests/reference_eval.h): every query runs through an uncached engine and
// through the naive AST-walking oracle, and the answers must agree (same
// row multiset; ORDER BY key sequences; LIMIT/OFFSET windows drawn from
// the full answer). Guard violations must surface as their typed status
// codes.
#include <algorithm>
#include <array>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/ntriples.h"
#include "sparql/executor.h"
#include "store/ingestor.h"
#include "tests/reference_eval.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace re2xolap::sparql {
namespace {

using re2xolap::testing::AgreesWithReference;
using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::RunUncachedText;
using re2xolap::testing::RunUncachedTextStalled;

class ExecutorDiffTest : public ::testing::Test {
 protected:
  void SetUp() override { store = BuildFigure1Store(); }
  std::unique_ptr<rdf::TripleStore> store;
};

// The full executor-test query corpus: every language feature the
// executor supports, one query per shape.
const char* const kCorpus[] = {
    // Basic BGPs and joins.
    "SELECT ?obs WHERE { ?obs <http://test/countryDestination> "
    "<http://test/dest/france> }",
    "SELECT * WHERE { ?obs <http://test/countryOrigin> ?origin }",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      ?c <http://test/inContinent> <http://test/continent/asia> .
      ?obs <http://test/countryDestination> <http://test/dest/germany> .
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> / <http://test/inContinent>
          <http://test/continent/africa> .
    })",
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    // Cartesian product (disconnected patterns).
    R"(SELECT ?a ?b WHERE {
      ?a <http://test/inContinent> <http://test/continent/asia> .
      ?b <http://test/countryDestination> <http://test/dest/france> .
    })",
    // Repeated variable within one pattern (bind-then-check path).
    "SELECT ?x WHERE { ?x <http://test/inContinent> ?x }",
    "SELECT ?x ?p WHERE { ?x ?p ?x }",
    // Filters.
    R"(SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v . FILTER (?v >= 403)
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      FILTER (?c IN (<http://test/origin/syria>, <http://test/origin/china>))
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      FILTER (?v < 100 || ?v > 450)
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      FILTER (!(?v < 100) && ?v != 403)
    })",
    // Aggregation.
    R"(SELECT ?origin ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryOrigin> / <http://test/inContinent> ?origin .
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?origin ?dest)",
    R"(SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)
           (AVG(?v) AS ?mean) (COUNT(?v) AS ?n) WHERE {
      ?obs <http://test/numApplicants> ?v .
    })",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
    R"(SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?dest HAVING (?total > 500))",
    // Post-join operators.
    R"(SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }
       ORDER BY DESC(?v))",
    "SELECT DISTINCT ?origin WHERE { ?o <http://test/countryOrigin> ?origin }",
    R"(SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }
       ORDER BY ASC(?v) LIMIT 2)",
    // ORDER BY with tied keys under LIMIT: any tie order is admissible,
    // the key sequence is not.
    R"(SELECT ?obs ?dest WHERE { ?obs <http://test/countryDestination> ?dest }
       ORDER BY ?dest LIMIT 3)",
    R"(SELECT DISTINCT ?dest WHERE { ?o <http://test/countryDestination> ?dest }
       LIMIT 1)",
    R"(SELECT ?dest (COUNT(DISTINCT ?origin) AS ?n) WHERE {
      ?o <http://test/countryDestination> ?dest .
      ?o <http://test/countryOrigin> ?origin .
    } GROUP BY ?dest ORDER BY DESC(?n) ?dest)",
    R"(SELECT ?origin WHERE { ?o <http://test/countryOrigin> ?origin }
       GROUP BY ?origin)",
    // LIMIT without ORDER BY takes the early-exit row-cap path.
    "SELECT ?obs WHERE { ?obs <http://test/numApplicants> ?v } LIMIT 2",
    "SELECT ?obs WHERE { ?obs <http://test/numApplicants> ?v } LIMIT 2 "
    "OFFSET 2",
    // OPTIONAL.
    R"(SELECT ?c ?cont WHERE {
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
    })",
    R"(SELECT ?c ?cont ?label WHERE {
      ?o <http://test/countryOrigin> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      OPTIONAL { ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label . }
    })",
    R"(SELECT ?o ?m WHERE {
      ?o <http://test/refPeriod> ?p .
      OPTIONAL { ?o <http://test/noSuchPredicate> ?m . }
    })",
    R"(SELECT ?c ?cont WHERE {
      ?o <http://test/countryOrigin> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      FILTER (?cont = <http://test/continent/asia>)
    })",
    R"(SELECT ?c WHERE {
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      FILTER (!BOUND(?cont))
    })",
    // Two OPTIONALs where the first matches several rows per parent,
    // under a row cap (LIMIT without ORDER BY): blocks degrade to
    // capacity 1, so the first optional block flushes into the second
    // mid-loop on every extra match. Regression for the shared scratch
    // row that let that flush clobber the suspended block's row state.
    R"(SELECT ?c ?p ?v ?label WHERE {
      ?c <http://test/inContinent> ?cont .
      OPTIONAL { ?c ?p ?v . }
      OPTIONAL { ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label . }
    } LIMIT 50)",
    // Same shape with the cap binding mid-stream.
    R"(SELECT ?c ?p ?v ?label WHERE {
      ?c <http://test/inContinent> ?cont .
      OPTIONAL { ?c ?p ?v . }
      OPTIONAL { ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label . }
    } LIMIT 3)",
    // VALUES.
    R"(SELECT ?o WHERE {
      ?o <http://test/countryOrigin> ?c .
      VALUES ?c { <http://test/origin/syria> <http://test/origin/nigeria> }
    })",
    // ASK (true and false).
    "ASK WHERE { ?o <http://test/countryDestination> <http://test/dest/france> "
    "}",
    "ASK WHERE { ?o <http://test/numApplicants> ?v . FILTER (?v > 500) }",
    // Provably-empty plan (constant term absent from the dictionary).
    "SELECT ?s WHERE { ?s <http://test/nope> <http://test/nothere> }",
};

TEST_F(ExecutorDiffTest, CorpusProducesIdenticalResults) {
  for (const char* query : kCorpus) {
    EXPECT_TRUE(AgreesWithReference(*store, query)) << "query: " << query;
  }
}

// Randomized property test: arbitrary BGPs (with variable reuse across
// patterns, constants in arbitrary positions, occasional repeated
// variables inside one pattern) over a small dense random graph, frozen
// and then live (a base plus insert and delete layers, against the
// reference over a refrozen copy). At least 20 of the BGPs read the OSP
// view: a pattern with a constant object under a predicate variable that
// no other pattern binds.
TEST(ExecutorDiffPropertyTest, RandomBgpsProduceIdenticalResults) {
  rdf::TripleStore store;
  std::mt19937 rng(20260809);
  auto iri = [](const std::string& kind, int i) {
    return rdf::Term::Iri("http://r/" + kind + "/" + std::to_string(i));
  };
  // A dense-ish random multigraph: 24 subjects, 4 predicates, 12 objects,
  // plus object->object edges so multi-hop joins have solutions.
  for (int i = 0; i < 160; ++i) {
    store.Add(iri("s", static_cast<int>(rng() % 24)),
              iri("p", static_cast<int>(rng() % 4)),
              iri("o", static_cast<int>(rng() % 12)));
  }
  for (int i = 0; i < 12; ++i) {
    store.Add(iri("o", i), iri("p", static_cast<int>(rng() % 4)),
              iri("o", static_cast<int>(rng() % 12)));
  }
  store.Freeze();

  const char* vars[] = {"?a", "?b", "?c", "?d", "?e"};
  auto random_term = [&](std::mt19937& r) -> std::string {
    switch (r() % 3) {
      case 0:
        return "<http://r/s/" + std::to_string(r() % 24) + ">";
      case 1:
        return "<http://r/p/" + std::to_string(r() % 4) + ">";
      default:
        return "<http://r/o/" + std::to_string(r() % 12) + ">";
    }
  };
  std::vector<std::string> queries;
  int osp_view_queries = 0;
  for (int q = 0; q < 200; ++q) {
    const size_t n_patterns = 1 + rng() % 3;
    std::string body;
    std::vector<std::array<std::string, 3>> patterns;
    for (size_t i = 0; i < n_patterns; ++i) {
      std::array<std::string, 3> pattern;
      for (int pos = 0; pos < 3; ++pos) {
        // Bias toward variables so joins actually connect; always make
        // the first pattern's subject a variable so SELECT * projects.
        bool var = (i == 0 && pos == 0) || rng() % 3 != 0;
        pattern[pos] = var ? vars[rng() % 5] : random_term(rng);
        body += pattern[pos] + ' ';
      }
      body += ". ";
      patterns.push_back(pattern);
    }
    queries.push_back("SELECT * WHERE { " + body + "}");
    auto occurrences = [&patterns](const std::string& term) {
      int n = 0;
      for (const auto& pattern : patterns) {
        n += static_cast<int>(std::count(pattern.begin(), pattern.end(), term));
      }
      return n;
    };
    for (const auto& pattern : patterns) {
      if (pattern[1][0] == '?' && pattern[2][0] != '?' &&
          occurrences(pattern[1]) == 1) {
        ++osp_view_queries;
        break;
      }
    }
  }
  EXPECT_GE(osp_view_queries, 20);
  for (const std::string& query : queries) {
    EXPECT_TRUE(AgreesWithReference(store, query)) << "query: " << query;
  }

  // The same graph as a live store: a base of two thirds of the triples,
  // then layers inserting the rest, deleting triples and reinserting some
  // of them.
  std::vector<std::string> lines;
  for (const rdf::EncodedTriple& t : store.index_base()->spo) {
    lines.push_back(rdf::ToNTriples(store.term(t.s)) + " " +
                    rdf::ToNTriples(store.term(t.p)) + " " +
                    rdf::ToNTriples(store.term(t.o)) + " .\n");
  }
  util::FailpointRegistry::Global().DisarmAll();
  rdf::TripleStore live;
  std::string base;
  std::string inserts_a;
  std::string inserts_b;
  for (size_t i = 0; i < lines.size(); ++i) {
    (i % 3 != 0 ? base : i % 2 == 0 ? inserts_a : inserts_b) += lines[i];
  }
  ASSERT_TRUE(rdf::ParseNTriples(base, &live).ok());
  live.Freeze();
  live.EnterLive();
  util::ThreadPool pool(1);
  store::IngestorConfig config;
  config.auto_compact = false;
  store::Ingestor ingestor(&live, &pool, config);
  std::mt19937 layer_rng(77);
  std::string deletes;
  std::string reinserts;
  for (int i = 0; i < 30; ++i) {
    const std::string& l = lines[layer_rng() % lines.size()];
    deletes += l;
    if (i % 3 == 0) reinserts += l;
  }
  for (const auto& [text, op] :
       {std::pair{inserts_a, store::IngestOp::kInsert},
        std::pair{deletes, store::IngestOp::kDelete},
        std::pair{inserts_b, store::IngestOp::kInsert},
        std::pair{reinserts, store::IngestOp::kInsert}}) {
    auto receipt = ingestor.IngestText(text, op, nullptr);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
  }
  ASSERT_EQ(live.chain_depth(), 4u);
  auto refrozen = re2xolap::testing::RefreezeVisible(live);
  for (const std::string& query : queries) {
    EXPECT_TRUE(AgreesWithReference(live, *refrozen, query))
        << "live query: " << query;
  }
}

// Two OPTIONALs at default block capacity (no row cap): the first
// optional's extensions exceed 4096 rows, so its output block fills and
// flushes into the second block mid-loop many times. Regression for the
// shared scratch row: the flush used to re-extract rows into the same
// buffer the suspended first block was still reading, corrupting the
// remaining extensions of the current parent row.
TEST(ExecutorDiffScaleTest, MultiOptionalAcrossBlockBoundaryMatches) {
  auto ds = qb::Generate(qb::EurostatSpec(1500));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const qb::DatasetSpec& spec = ds->spec;
  const std::string query = "SELECT * WHERE { ?obs <" + spec.iri_base +
                            spec.dimensions[0].predicate +
                            "> ?d . OPTIONAL { ?obs ?p ?v . } OPTIONAL { ?d "
                            "?q ?w . } }";
  EXPECT_TRUE(AgreesWithReference(*ds->store, query));
}

// --- guard / error paths ----------------------------------------------------

TEST_F(ExecutorDiffTest, RowBudgetTripsIdentically) {
  util::ExecGuard::Limits limits;
  limits.max_rows = 2;  // the pattern matches 5 observations
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = RunUncachedText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST_F(ExecutorDiffTest, RowBudgetTripsWhenNoRowIsEverEmitted) {
  // The first pattern produces (and charges) five intermediate bindings,
  // but the second matches nothing, so the query's result is empty and
  // the emit-path budget recheck never runs. The charge-site recheck must
  // surface the overrun anyway — the store is far smaller than the
  // periodic full-check interval.
  util::ExecGuard::Limits limits;
  limits.max_rows = 1;
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = RunUncachedText(*store, R"(
    SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      ?v <http://test/inContinent> ?x .
    })",
                       opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_GT(guard.charged_rows(), limits.max_rows);
}

TEST_F(ExecutorDiffTest, ByteBudgetTripsIdentically) {
  util::ExecGuard::Limits limits;
  limits.max_bytes = 32;
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = RunUncachedText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST(ExecutorDiffScaleTest, CancellationAndDeadlineTripIdenticallyInJoin) {
  // A full scan over a generated cube crosses the join's periodic
  // full-check interval, so the runner must observe a guard that tripped
  // mid-query *inside the join loop* and surface its code. The engine
  // rejects an already-tripped guard at admission, so each guard trips
  // while the join's first scan is stalled.
  static constexpr int kTripMillis = 50;
  static constexpr int kStallMillis = 150;
  auto ds = qb::Generate(qb::EurostatSpec(4000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const std::string query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
  {
    util::CancellationToken token;
    util::ExecGuard guard({}, &token);
    ExecOptions opts;
    opts.guard = &guard;
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(kTripMillis));
      token.Cancel();
    });
    auto r = RunUncachedTextStalled(*ds->store, query, opts, kStallMillis);
    canceller.join();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
  {
    util::ExecGuard guard = util::ExecGuard::WithDeadline(kTripMillis);
    ExecOptions opts;
    opts.guard = &guard;
    auto r = RunUncachedTextStalled(*ds->store, query, opts, kStallMillis);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  }
}

}  // namespace
}  // namespace re2xolap::sparql
