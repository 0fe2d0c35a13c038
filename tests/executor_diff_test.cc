// Differential tests of the query engine against the reference evaluator
// (tests/reference_eval.h): every query runs through sparql::Execute and
// through the naive AST-walking oracle, and the answers must agree (same
// row multiset; ORDER BY key sequences; LIMIT/OFFSET windows drawn from
// the full answer). The same corpus runs on a compressed-index clone,
// which must match the raw store row for row and counter for counter.
// Guard violations must surface as their typed status codes.
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qb/datasets.h"
#include "rdf/compressed_index.h"
#include "qb/generator.h"
#include "sparql/executor.h"
#include "tests/reference_eval.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"

namespace re2xolap::sparql {
namespace {

using re2xolap::testing::AgreesWithReference;
using re2xolap::testing::BuildFigure1Store;

/// Stringified rows, in emission order.
std::vector<std::string> TableRows(const ResultTable& t) {
  std::vector<std::string> rows;
  rows.reserve(t.row_count());
  for (size_t r = 0; r < t.row_count(); ++r) {
    std::string row;
    for (size_t c = 0; c < t.column_count(); ++c) {
      row += t.CellToString(t.at(r, c));
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

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
// variables inside one pattern) over a small dense random graph.
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
  for (int q = 0; q < 200; ++q) {
    const size_t n_patterns = 1 + rng() % 3;
    std::string body;
    for (size_t i = 0; i < n_patterns; ++i) {
      for (int pos = 0; pos < 3; ++pos) {
        // Bias toward variables so joins actually connect; always make
        // the first pattern's subject a variable so SELECT * projects.
        bool var = (i == 0 && pos == 0) || rng() % 3 != 0;
        body += var ? vars[rng() % 5] : random_term(rng);
        body += ' ';
      }
      body += ". ";
    }
    const std::string query = "SELECT * WHERE { " + body + "}";
    EXPECT_TRUE(AgreesWithReference(store, query)) << "query: " << query;
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
  auto r = ExecuteText(
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
  auto r = ExecuteText(*store, R"(
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
  auto r = ExecuteText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST(ExecutorDiffScaleTest, CancellationAndDeadlineTripIdenticallyInJoin) {
  // A full scan over a generated cube crosses the join's periodic
  // full-check interval, so the runner must observe an already-tripped
  // guard *inside the join loop* and surface its code.
  auto ds = qb::Generate(qb::EurostatSpec(4000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const std::string query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
  {
    util::CancellationToken token;
    token.Cancel();
    util::ExecGuard guard({}, &token);
    ExecOptions opts;
    opts.guard = &guard;
    auto r = ExecuteText(*ds->store, query, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
  {
    util::ExecGuard guard = util::ExecGuard::WithDeadline(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    ExecOptions opts;
    opts.guard = &guard;
    auto r = ExecuteText(*ds->store, query, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  }
}

// --- index formats -----------------------------------------------------------

/// Rebuilds `src` under `format`. Terms are re-interned in id order so the
/// clone assigns identical term ids, which makes rows, ExecStats, and error
/// codes comparable bit-for-bit across stores.
std::unique_ptr<rdf::TripleStore> CloneWithFormat(const rdf::TripleStore& src,
                                                  rdf::IndexFormat format) {
  auto out = std::make_unique<rdf::TripleStore>();
  out->set_index_format(format);
  for (rdf::TermId id = 1; id <= src.dictionary().size(); ++id) {
    out->dictionary().Intern(src.term(id));
  }
  for (const rdf::EncodedTriple& t : src.Match(rdf::TriplePattern{})) {
    out->AddEncoded(t);
  }
  out->Freeze();
  return out;
}

/// Runs `query` on both stores and asserts identical outcomes: rows in
/// emission order, columns, scan/binding stats, and error codes. `a` is
/// the raw store, `b` the compressed clone.
void ExpectSameAcrossStores(const rdf::TripleStore& a,
                            const rdf::TripleStore& b,
                            const std::string& query) {
  ExecStats stats_a, stats_b;
  auto ra = ExecuteText(a, query, {}, &stats_a);
  auto rb = ExecuteText(b, query, {}, &stats_b);
  ASSERT_EQ(ra.ok(), rb.ok())
      << "raw: " << ra.status().ToString()
      << "\ncompressed: " << rb.status().ToString() << "\nquery: " << query;
  if (!ra.ok()) {
    EXPECT_EQ(ra.status().code(), rb.status().code()) << "query: " << query;
    return;
  }
  EXPECT_EQ(ra->columns(), rb->columns()) << "query: " << query;
  EXPECT_EQ(TableRows(*ra), TableRows(*rb)) << "query: " << query;
  // Index ranges are position-identical across formats, so the scan and
  // binding counters must match exactly — only chunking differs.
  EXPECT_EQ(stats_a.triples_scanned, stats_b.triples_scanned)
      << "query: " << query;
  EXPECT_EQ(stats_a.intermediate_bindings, stats_b.intermediate_bindings)
      << "query: " << query;
}

// The full corpus on a compressed clone: it must agree with the reference
// evaluator AND with the raw store, row for row and counter for counter.
TEST_F(ExecutorDiffTest, CorpusIdenticalAcrossIndexFormats) {
  auto compressed = CloneWithFormat(*store, rdf::IndexFormat::kCompressed);
  ASSERT_TRUE(compressed->compressed_index());
  ASSERT_EQ(store->size(), compressed->size());
  for (const char* query : kCorpus) {
    SCOPED_TRACE(query);
    EXPECT_TRUE(AgreesWithReference(*compressed, query));
    ExpectSameAcrossStores(*store, *compressed, query);
  }
}

// Guard trips must be format-independent too: the same typed error on
// both stores.
TEST_F(ExecutorDiffTest, RowBudgetTripsIdenticallyUnderCompressed) {
  auto compressed = CloneWithFormat(*store, rdf::IndexFormat::kCompressed);
  util::ExecGuard::Limits limits;
  limits.max_rows = 2;  // the pattern matches 5 observations
  for (const rdf::TripleStore* s : {store.get(), compressed.get()}) {
    util::ExecGuard guard(limits);
    ExecOptions opts;
    opts.guard = &guard;
    auto r = ExecuteText(
        *s, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
        opts);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  }
}

// Multi-block scale: the generated cube spans several 1024-triple blocks,
// so merge-join gallops cross block seams and OPTIONAL scans decode many
// blocks. Everything must still match the reference and the raw store.
TEST(ExecutorDiffScaleTest, MultiBlockCompressedStoreMatchesRawOracle) {
  auto ds = qb::Generate(qb::EurostatSpec(1500));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto compressed =
      CloneWithFormat(*ds->store, rdf::IndexFormat::kCompressed);
  ASSERT_TRUE(compressed->compressed_index());
  ASSERT_GT(compressed->spo_blocks()->block_count(), 1u)
      << "scale spec too small to exercise block seams";
  const qb::DatasetSpec& spec = ds->spec;
  const std::string queries[] = {
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
      "SELECT * WHERE { ?obs <" + spec.iri_base +
          spec.dimensions[0].predicate +
          "> ?d . OPTIONAL { ?obs ?p ?v . } OPTIONAL { ?d ?q ?w . } }",
      "SELECT ?d (COUNT(*) AS ?n) WHERE { ?obs <" + spec.iri_base +
          spec.dimensions[0].predicate + "> ?d } GROUP BY ?d",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    EXPECT_TRUE(AgreesWithReference(*compressed, query));
    ExpectSameAcrossStores(*ds->store, *compressed, query);
  }
}

}  // namespace
}  // namespace re2xolap::sparql
