#include <string>

#include <gtest/gtest.h>

#include "sparql/explain.h"
#include "tests/test_data.h"

namespace re2xolap::sparql {
namespace {

using re2xolap::testing::BuildFigure1Store;

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override { store = BuildFigure1Store(); }
  std::unique_ptr<rdf::TripleStore> store;
};

// The paper's running example as a GROUP BY candidate query: total
// applicants per origin country.
constexpr char kGroupByQuery[] = R"(
  SELECT ?origin (SUM(?v) AS ?total) WHERE {
    ?s a <http://test/Observation> .
    ?s <http://test/countryOrigin> ?origin .
    ?s <http://test/numApplicants> ?v .
  } GROUP BY ?origin
)";

TEST_F(ExplainTest, GroupByGoldenReport) {
  ExplainOptions options;
  options.include_timing = false;  // deterministic output
  auto r = ExplainAnalyzeText(*store, kGroupByQuery, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.row_count(), 3u);  // Syria, China, Nigeria

  const std::string expected =
      "+---------------------------------------+---------+----------+---------+--------+\n"
      "| operator                              | rows in | rows out | scanned | millis |\n"
      "+---------------------------------------+---------+----------+---------+--------+\n"
      "| select                                | 0       | 3        | 0       | *      |\n"
      "|   plan                                | 0       | 0        | 0       | *      |\n"
      "|   join (vectorized)                   | 0       | 5        | 0       | *      |\n"
      "|     scan (?s type Observation)        | 1       | 5        | 5       | *      |\n"
      "|       scan (?s countryOrigin ?origin) | 5       | 5        | 5       | *      |\n"
      "|         scan (?s numApplicants ?v)    | 5       | 5        | 5       | *      |\n"
      "|   aggregate (group by ?origin)        | 5       | 3        | 0       | *      |\n"
      "+---------------------------------------+---------+----------+---------+--------+\n";
  EXPECT_EQ(r->report, expected) << "actual report:\n" << r->report;
}

TEST_F(ExplainTest, TimingModeMeasuresEveryOperator) {
  auto r = ExplainAnalyzeText(*store, kGroupByQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  const obs::ProfileNode& root = r->stats.profile;
  EXPECT_EQ(root.label, "select");
  EXPECT_TRUE(root.timed);
  EXPECT_GT(root.millis, 0.0);
  // Every scan step is timed in profile mode.
  size_t timed_scans = 0;
  obs::VisitProfile(root, [&](int, const obs::ProfileNode& n) {
    if (n.label.rfind("scan ", 0) == 0) {
      EXPECT_TRUE(n.timed) << n.label;
      ++timed_scans;
    }
  });
  EXPECT_EQ(timed_scans, 3u);
  // The rendered report carries measured numbers, not placeholders.
  EXPECT_EQ(r->report.find(" * "), std::string::npos);
}

TEST_F(ExplainTest, ProfileTreeMatchesExecStats) {
  auto r = ExplainAnalyzeText(*store, kGroupByQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->stats.profile.TotalScanned(), r->stats.triples_scanned);
  EXPECT_GT(r->stats.triples_scanned, 0u);
  EXPECT_GT(r->stats.intermediate_bindings, 0u);
}

TEST_F(ExplainTest, OptionalBlocksAppearInTheTree) {
  auto r = ExplainAnalyzeText(*store, R"(
    SELECT ?o ?cont WHERE {
      ?o a <http://test/Observation> .
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
    }
  )");
  ASSERT_TRUE(r.ok()) << r.status();
  bool found_optional = false;
  obs::VisitProfile(r->stats.profile, [&](int, const obs::ProfileNode& n) {
    if (n.label.rfind("optional", 0) == 0) {
      found_optional = true;
      // All 5 rows pass through; destinations have no continent, so no
      // row is extended.
      EXPECT_EQ(n.rows_in, 5u);
      EXPECT_EQ(n.rows_out, 5u);
    }
  });
  EXPECT_TRUE(found_optional);
}

TEST_F(ExplainTest, AskQueriesWrapTheProbe) {
  auto r = ExplainAnalyzeText(
      *store, "ASK { ?s a <http://test/Observation> }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->stats.profile.label, "ask");
  ASSERT_EQ(r->stats.profile.children.size(), 1u);
  EXPECT_EQ(r->stats.profile.children[0].label, "select");
  EXPECT_NE(r->report.find("ask"), std::string::npos);
}

TEST_F(ExplainTest, ImpossiblePlanStillRendersATree) {
  auto r = ExplainAnalyzeText(
      *store, "SELECT ?s WHERE { ?s a <http://test/NoSuchClass> }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.row_count(), 0u);
  EXPECT_NE(r->report.find("impossible"), std::string::npos);
}

}  // namespace
}  // namespace re2xolap::sparql
