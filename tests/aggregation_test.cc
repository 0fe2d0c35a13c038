// Differential tests of GROUP BY aggregation against the reference
// evaluator (tests/reference_eval.h), in both index formats: seeded random
// aggregate queries over a generated store with more than 20k groups,
// every aggregate function, group keys left unbound by OPTIONAL, queries
// without GROUP BY and queries with no bindings. Plus the first-seen row
// order contract and the byte budget on a GROUP BY.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/triple_store.h"
#include "sparql/executor.h"
#include "tests/reference_eval.h"
#include "tests/uncached_engine.h"
#include "util/exec_guard.h"

namespace re2xolap::sparql {
namespace {

using re2xolap::testing::AgreesWithReference;
using re2xolap::testing::RunUncachedText;

constexpr int kObservations = 24000;
constexpr int kDomainA = 400;
constexpr int kDomainB = 400;
constexpr int kDomainC = 8;
constexpr int kDomainO = 50;

rdf::Term Iri(const std::string& kind, int i) {
  return rdf::Term::Iri("http://agg/" + kind + "/" + std::to_string(i));
}

/// A cube-like store: each observation has dimensions <a> (400 values),
/// <b> (400) and <c> (8), a numeric measure <v>, and, for about 40% of
/// them, an optional attribute <o> (50 values). Grouping by ?a ?b yields
/// more than 20k groups.
std::unique_ptr<rdf::TripleStore> BuildCube(rdf::IndexFormat format) {
  auto store = std::make_unique<rdf::TripleStore>();
  store->set_index_format(format);
  std::mt19937 rng(1717);
  const rdf::Term a = Iri("p", 0), b = Iri("p", 1), c = Iri("p", 2),
                  v = Iri("p", 3), o = Iri("p", 4);
  for (int i = 0; i < kObservations; ++i) {
    const rdf::Term obs = Iri("obs", i);
    store->Add(obs, a, Iri("a", static_cast<int>(rng() % kDomainA)));
    store->Add(obs, b, Iri("b", static_cast<int>(rng() % kDomainB)));
    store->Add(obs, c, Iri("c", static_cast<int>(rng() % kDomainC)));
    store->Add(obs, v,
               rdf::Term::IntegerLiteral(static_cast<int64_t>(rng() % 2001) -
                                         1000));
    if (rng() % 5 < 2) {
      store->Add(obs, o, Iri("o", static_cast<int>(rng() % kDomainO)));
    }
  }
  store->Freeze();
  return store;
}

class AggregationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = BuildCube(rdf::IndexFormat::kRaw).release();
    compressed_ = BuildCube(rdf::IndexFormat::kCompressed).release();
  }
  static void TearDownTestSuite() {
    delete raw_;
    delete compressed_;
  }
  static std::vector<const rdf::TripleStore*> Stores() {
    return {raw_, compressed_};
  }

  static rdf::TripleStore* raw_;
  static rdf::TripleStore* compressed_;
};

rdf::TripleStore* AggregationTest::raw_ = nullptr;
rdf::TripleStore* AggregationTest::compressed_ = nullptr;

const char kPatterns[] =
    "?obs <http://agg/p/0> ?a . ?obs <http://agg/p/1> ?b . "
    "?obs <http://agg/p/2> ?c . ?obs <http://agg/p/3> ?v . ";
const char kOptional[] = "OPTIONAL { ?obs <http://agg/p/4> ?o . } ";

TEST_F(AggregationTest, TwentyThousandGroupsMatchReference) {
  const std::string query =
      std::string("SELECT ?a ?b (SUM(?v) AS ?s) (AVG(?v) AS ?m) "
                  "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (COUNT(?v) AS ?n) "
                  "(COUNT(*) AS ?all) (COUNT(DISTINCT ?c) AS ?dc) WHERE { ") +
      kPatterns + "} GROUP BY ?a ?b";
  for (const rdf::TripleStore* store : Stores()) {
    auto r = RunUncachedText(*store, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->row_count(), 20000u);
    EXPECT_TRUE(AgreesWithReference(*store, query));
  }
}

// Seeded random aggregate queries: a random subset of group keys (possibly
// none, possibly the OPTIONAL-bound ?o), one to four random aggregates,
// and sometimes a FILTER on the measure.
TEST_F(AggregationTest, RandomGroupByQueriesMatchReference) {
  const char* const keys[] = {"?a", "?b", "?c", "?o"};
  const char* const aggs[] = {
      "(SUM(?v) AS ?x{})",    "(AVG(?v) AS ?x{})",
      "(MIN(?v) AS ?x{})",    "(MAX(?v) AS ?x{})",
      "(COUNT(?v) AS ?x{})",  "(COUNT(*) AS ?x{})",
      "(COUNT(?o) AS ?x{})",  "(COUNT(DISTINCT ?c) AS ?x{})",
      "(COUNT(DISTINCT ?o) AS ?x{})",
  };
  std::mt19937 rng(20261017);
  for (int q = 0; q < 24; ++q) {
    std::vector<std::string> group;
    for (const char* k : keys) {
      if (rng() % 3 == 0) group.push_back(k);
    }
    std::string select = "SELECT";
    for (const std::string& g : group) select += " " + g;
    const size_t n_aggs = 1 + rng() % 4;
    bool uses_o = false;
    for (const std::string& g : group) uses_o |= g == "?o";
    for (size_t i = 0; i < n_aggs; ++i) {
      std::string agg = aggs[rng() % std::size(aggs)];
      uses_o |= agg.find("?o") != std::string::npos;
      agg.replace(agg.find("{}"), 2, std::to_string(i));
      select += " " + agg;
    }
    std::string where = std::string(" WHERE { ") + kPatterns;
    if (uses_o || rng() % 4 == 0) where += kOptional;
    if (rng() % 3 == 0) {
      const int bound = static_cast<int>(rng() % 1800) - 900;
      where += "FILTER (?v > " + std::to_string(bound) + ") ";
    }
    where += "}";
    std::string query = select + where;
    if (!group.empty()) {
      query += " GROUP BY";
      for (const std::string& g : group) query += " " + g;
    }
    for (const rdf::TripleStore* store : Stores()) {
      EXPECT_TRUE(AgreesWithReference(*store, query)) << "query: " << query;
    }
  }
}

TEST_F(AggregationTest, UnboundOptionalKeysGroupTogether) {
  const std::string query =
      std::string("SELECT ?o ?c (COUNT(*) AS ?n) (SUM(?v) AS ?s) WHERE { ") +
      kPatterns + kOptional + "} GROUP BY ?o ?c";
  for (const rdf::TripleStore* store : Stores()) {
    auto r = RunUncachedText(*store, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    size_t unbound = 0;
    for (size_t row = 0; row < r->row_count(); ++row) {
      unbound += r->at(row, 0).is_null() ? 1 : 0;
    }
    EXPECT_EQ(unbound, static_cast<size_t>(kDomainC));
    EXPECT_TRUE(AgreesWithReference(*store, query));
  }
}

TEST_F(AggregationTest, NoGroupByAndZeroBindingsMatchReference) {
  const std::string all =
      "(SUM(?v) AS ?s) (AVG(?v) AS ?m) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
      "(COUNT(?v) AS ?n) (COUNT(*) AS ?all) (COUNT(DISTINCT ?a) AS ?da)";
  // No solution: no observation has an <a> value as its <b> value.
  const std::string none =
      std::string("?obs <http://agg/p/0> ?a . ?obs <http://agg/p/1> "
                  "<http://agg/a/3> . ?obs <http://agg/p/3> ?v . ");
  const std::string queries[] = {
      "SELECT " + all + " WHERE { " + kPatterns + "}",
      "SELECT " + all + " WHERE { " + none + "}",
      "SELECT ?a " + all + " WHERE { " + none + "} GROUP BY ?a",
      "SELECT ?a WHERE { " + none + "} GROUP BY ?a",
      "SELECT ?c WHERE { " + std::string(kPatterns) + "} GROUP BY ?c",
  };
  for (const rdf::TripleStore* store : Stores()) {
    for (const std::string& query : queries) {
      EXPECT_TRUE(AgreesWithReference(*store, query)) << "query: " << query;
    }
    auto empty = RunUncachedText(*store, queries[2]);
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_EQ(empty->row_count(), 0u);
  }
}

// Groups come out in the order the join produced their first binding. The
// single pattern scans POS, i.e. by object then subject, so subjects first
// appear in the order s3, s1, s2, not in their id order s1, s2, s3.
TEST(AggregationOrderTest, GroupsEmitInFirstSeenOrder) {
  rdf::TripleStore store;
  const rdf::Term p = Iri("p", 0);
  const rdf::Term s1 = Iri("s", 1), s2 = Iri("s", 2), s3 = Iri("s", 3);
  store.dictionary().Intern(s1);
  store.dictionary().Intern(s2);
  store.dictionary().Intern(s3);
  store.Add(s3, p, Iri("o", 1));
  store.Add(s1, p, Iri("o", 2));
  store.Add(s2, p, Iri("o", 3));
  store.Add(s1, p, Iri("o", 4));
  store.Freeze();
  auto r = RunUncachedText(
      store, "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s <http://agg/p/0> ?o } "
             "GROUP BY ?s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->row_count(), 3u);
  const rdf::TermId want[] = {store.dictionary().Lookup(s3),
                              store.dictionary().Lookup(s1),
                              store.dictionary().Lookup(s2)};
  const double counts[] = {1, 2, 1};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r->at(i, 0).term, want[i]) << "row " << i;
    EXPECT_EQ(r->at(i, 1).number, counts[i]) << "row " << i;
  }
}

TEST_F(AggregationTest, TinyByteBudgetTripsOnGroupBy) {
  const std::string query =
      std::string("SELECT ?a ?b (SUM(?v) AS ?s) WHERE { ") + kPatterns +
      "} GROUP BY ?a ?b";
  for (const rdf::TripleStore* store : Stores()) {
    util::ExecGuard::Limits limits;
    limits.max_bytes = 64;
    util::ExecGuard guard(limits);
    ExecOptions opts;
    opts.guard = &guard;
    auto r = RunUncachedText(*store, query, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  }
}

// The guard is charged the table's steady-state bytes per group: 4 per
// key column, 32 per fold (aggregates of one argument share a state) and 8
// of slot table.
TEST_F(AggregationTest, GuardIsChargedPerGroupBytes) {
  const struct {
    std::string aggregates;
    size_t folds;
  } cases[] = {
      {"(SUM(?v) AS ?s) (COUNT(*) AS ?n)", 2},
      {"(SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (AVG(?v) AS ?m) "
       "(COUNT(?v) AS ?n)",
       1},
  };
  for (const auto& c : cases) {
    const std::string query = "SELECT ?a ?b " + c.aggregates + " WHERE { " +
                              kPatterns + "} GROUP BY ?a ?b";
    util::ExecGuard::Limits limits;
    limits.max_bytes = uint64_t{1} << 40;
    util::ExecGuard guard(limits);
    ExecOptions opts;
    opts.guard = &guard;
    auto r = RunUncachedText(*raw_, query, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(guard.charged_bytes(),
              r->row_count() * (2 * 4 + c.folds * 32 + 8))
        << "query: " << query;
  }
}

}  // namespace
}  // namespace re2xolap::sparql
