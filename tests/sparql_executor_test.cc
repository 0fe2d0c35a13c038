#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "qb/datasets.h"
#include "qb/generator.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"
#include "util/exec_guard.h"

namespace re2xolap::sparql {
namespace {

using re2xolap::testing::RunUncachedText;
using re2xolap::testing::RunUncachedTextStalled;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { store = re2xolap::testing::BuildFigure1Store(); }

  ResultTable Run(const std::string& text) {
    auto r = RunUncachedText(*store, text);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << text;
    return r.ok() ? std::move(r).value() : ResultTable();
  }

  // Finds the value of `target_col` in the unique row where `key_col` has
  // string value `key`.
  double Lookup(const ResultTable& t, const std::string& key_col,
                const std::string& key, const std::string& target_col) {
    int kc = t.ColumnIndex(key_col);
    int tc = t.ColumnIndex(target_col);
    EXPECT_GE(kc, 0);
    EXPECT_GE(tc, 0);
    for (size_t r = 0; r < t.row_count(); ++r) {
      if (t.CellToString(t.at(r, kc)).find(key) != std::string::npos) {
        return t.NumericValue(t.at(r, tc));
      }
    }
    ADD_FAILURE() << "no row with " << key_col << " ~ " << key;
    return -1;
  }

  std::unique_ptr<rdf::TripleStore> store;
};

TEST_F(ExecutorTest, SimpleBgp) {
  ResultTable t = Run(
      "SELECT ?obs WHERE { ?obs <http://test/countryDestination> "
      "<http://test/dest/france> }");
  EXPECT_EQ(t.row_count(), 1u);
}

TEST_F(ExecutorTest, SelectStarProjectsAllUserVariables) {
  ResultTable t = Run(
      "SELECT * WHERE { ?obs <http://test/countryOrigin> ?origin }");
  EXPECT_EQ(t.column_count(), 2u);
  EXPECT_EQ(t.row_count(), 5u);
}

TEST_F(ExecutorTest, JoinAcrossPatterns) {
  // Observations from Asia to Germany.
  ResultTable t = Run(R"(
    SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      ?c <http://test/inContinent> <http://test/continent/asia> .
      ?obs <http://test/countryDestination> <http://test/dest/germany> .
    })");
  EXPECT_EQ(t.row_count(), 3u);  // obs 0, 1, 3
}

TEST_F(ExecutorTest, PropertyPath) {
  ResultTable t = Run(R"(
    SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> / <http://test/inContinent>
          <http://test/continent/africa> .
    })");
  EXPECT_EQ(t.row_count(), 1u);  // obs 4 (Nigeria)
}

TEST_F(ExecutorTest, GroupBySum) {
  // Figure 2 query shape: total applicants per continent and destination.
  ResultTable t = Run(R"(
    SELECT ?origin ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryOrigin> / <http://test/inContinent> ?origin .
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?origin ?dest)");
  EXPECT_EQ(t.row_count(), 3u);  // (Asia,DE) (Asia,FR) (Africa,DE)
  EXPECT_DOUBLE_EQ(Lookup(t, "origin", "Africa", "total"), 60);
  EXPECT_DOUBLE_EQ(Lookup(t, "dest", "France", "total"), 120);
  // Asia->Germany: 403 + 500 + 80.
  int oc = t.ColumnIndex("origin"), dc = t.ColumnIndex("dest"),
      tc = t.ColumnIndex("total");
  bool found = false;
  for (size_t r = 0; r < t.row_count(); ++r) {
    if (t.CellToString(t.at(r, oc)).find("Asia") != std::string::npos &&
        t.CellToString(t.at(r, dc)).find("Germany") != std::string::npos) {
      EXPECT_DOUBLE_EQ(t.NumericValue(t.at(r, tc)), 983);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecutorTest, AllAggregateFunctions) {
  ResultTable t = Run(R"(
    SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)
           (AVG(?v) AS ?mean) (COUNT(?v) AS ?n) WHERE {
      ?obs <http://test/numApplicants> ?v .
    })");
  ASSERT_EQ(t.row_count(), 1u);
  EXPECT_DOUBLE_EQ(t.NumericValue(t.at(0, t.ColumnIndex("s"))), 1163);
  EXPECT_DOUBLE_EQ(t.NumericValue(t.at(0, t.ColumnIndex("lo"))), 60);
  EXPECT_DOUBLE_EQ(t.NumericValue(t.at(0, t.ColumnIndex("hi"))), 500);
  EXPECT_DOUBLE_EQ(t.NumericValue(t.at(0, t.ColumnIndex("mean"))), 232.6);
  EXPECT_DOUBLE_EQ(t.NumericValue(t.at(0, t.ColumnIndex("n"))), 5);
}

TEST_F(ExecutorTest, CountStar) {
  ResultTable t = Run(
      "SELECT (COUNT(*) AS ?n) WHERE { ?obs a <http://test/Observation> }");
  ASSERT_EQ(t.row_count(), 1u);
  EXPECT_DOUBLE_EQ(t.NumericValue(t.at(0, 0)), 5);
}

TEST_F(ExecutorTest, FilterComparison) {
  ResultTable t = Run(R"(
    SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v . FILTER (?v >= 403)
    })");
  EXPECT_EQ(t.row_count(), 2u);  // 403, 500
}

TEST_F(ExecutorTest, FilterIn) {
  ResultTable t = Run(R"(
    SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      FILTER (?c IN (<http://test/origin/syria>, <http://test/origin/china>))
    })");
  EXPECT_EQ(t.row_count(), 4u);
}

TEST_F(ExecutorTest, FilterLogicalOps) {
  ResultTable t = Run(R"(
    SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      FILTER (?v < 100 || ?v > 450)
    })");
  EXPECT_EQ(t.row_count(), 3u);  // 80, 60, 500
  ResultTable t2 = Run(R"(
    SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      FILTER (!(?v < 100) && ?v != 403)
    })");
  EXPECT_EQ(t2.row_count(), 2u);  // 120, 500
}

// The planner resolves every filter-variable occurrence to its binding
// slot at plan time, keyed by the address of the name string inside the
// plan-owned expression tree, so executors never hash a string per row.
TEST_F(ExecutorTest, PlannerResolvesFilterVariableSlots) {
  auto query = ParseQuery(R"(
    SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      ?obs <http://test/countryOrigin> ?c .
      FILTER (?v >= 100 && ?v < 500)
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      FILTER (!BOUND(?cont))
    })");
  ASSERT_TRUE(query.ok()) << query.status();
  auto plan = PlanQuery(*store, *query);
  ASSERT_TRUE(plan.ok()) << plan.status();

  ASSERT_EQ(plan->filters.size(), 1u);
  // Two occurrences of ?v, each resolved to the same slot at its own
  // (pointer-keyed) entry.
  const PlannedFilter& early = plan->filters[0];
  EXPECT_EQ(early.slots.size(), 2u);
  for (const auto& [name, slot] : early.slots.entries()) {
    EXPECT_EQ(*name, "v");
    EXPECT_GE(slot, 0);
    EXPECT_EQ(slot, plan->SlotOf(*name));
  }
  // Pointer-keyed fast path and value-compare fallback agree.
  EXPECT_EQ(early.slots.SlotOf(std::string("v")), plan->SlotOf("v"));
  EXPECT_EQ(early.slots.SlotOf(std::string("nosuch")), -1);

  ASSERT_EQ(plan->post_optional_filters.size(), 1u);
  const PlannedFilter& late = plan->post_optional_filters[0];
  ASSERT_EQ(late.slots.size(), 1u);
  EXPECT_EQ(*late.slots.entries()[0].first, "cont");
  EXPECT_EQ(late.slots.entries()[0].second, plan->SlotOf("cont"));
  EXPECT_GE(late.slots.entries()[0].second, 0);
}

TEST_F(ExecutorTest, EmptyStringEbvIsFalseForVariablesAndConstants) {
  // Regression: a variable bound to an empty-string literal used to
  // evaluate to EBV true while the identical constant evaluated to false.
  // Both must follow the constant-case semantics: "" is false, any
  // non-empty string is true.
  rdf::TripleStore s;
  using rdf::Term;
  Term labeled = Term::Iri("http://test/labeled");
  Term blank = Term::Iri("http://test/blank");
  Term p = Term::Iri("http://test/tag");
  s.Add(labeled, p, Term::StringLiteral("x"));
  s.Add(blank, p, Term::StringLiteral(""));
  s.Freeze();

  auto via_var = RunUncachedText(
      s, "SELECT ?s WHERE { ?s <http://test/tag> ?t . FILTER (?t) }");
  ASSERT_TRUE(via_var.ok()) << via_var.status().ToString();
  EXPECT_EQ(via_var->row_count(), 1u);  // only the non-empty tag passes

  auto empty_const = RunUncachedText(
      s, "SELECT ?s WHERE { ?s <http://test/tag> ?t . FILTER (\"\") }");
  ASSERT_TRUE(empty_const.ok());
  EXPECT_EQ(empty_const->row_count(), 0u);

  auto nonempty_const = RunUncachedText(
      s, "SELECT ?s WHERE { ?s <http://test/tag> ?t . FILTER (\"x\") }");
  ASSERT_TRUE(nonempty_const.ok());
  EXPECT_EQ(nonempty_const->row_count(), 2u);

  // Negation through a variable agrees with the constant case too.
  auto negated = RunUncachedText(
      s, "SELECT ?s WHERE { ?s <http://test/tag> ?t . FILTER (!?t) }");
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(negated->row_count(), 1u);  // only the empty tag
}

TEST_F(ExecutorTest, Having) {
  ResultTable t = Run(R"(
    SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?dest HAVING (?total > 500))");
  ASSERT_EQ(t.row_count(), 1u);  // Germany: 1043
  EXPECT_DOUBLE_EQ(t.NumericValue(t.at(0, t.ColumnIndex("total"))), 1043);
}

TEST_F(ExecutorTest, OrderByNumericDescending) {
  ResultTable t = Run(R"(
    SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }
    ORDER BY DESC(?v))");
  ASSERT_EQ(t.row_count(), 5u);
  int vc = t.ColumnIndex("v");
  double prev = 1e18;
  for (size_t r = 0; r < t.row_count(); ++r) {
    double v = t.NumericValue(t.at(r, vc));
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST_F(ExecutorTest, LimitOffset) {
  ResultTable all = Run("SELECT ?s WHERE { ?s a <http://test/Observation> }");
  ResultTable page = Run(
      "SELECT ?s WHERE { ?s a <http://test/Observation> } LIMIT 2 OFFSET 2");
  EXPECT_EQ(all.row_count(), 5u);
  EXPECT_EQ(page.row_count(), 2u);
}

TEST_F(ExecutorTest, Distinct) {
  ResultTable t = Run(
      "SELECT DISTINCT ?dest WHERE { ?o <http://test/countryDestination> "
      "?dest }");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST_F(ExecutorTest, UnknownConstantYieldsEmptyNotError) {
  ResultTable t = Run(
      "SELECT ?o WHERE { ?o <http://test/countryDestination> "
      "<http://test/dest/narnia> }");
  EXPECT_EQ(t.row_count(), 0u);
}

TEST_F(ExecutorTest, RepeatedVariableInPattern) {
  // ?x ?p ?x matches nothing in this graph.
  ResultTable t = Run("SELECT ?x WHERE { ?x <http://test/inContinent> ?x }");
  EXPECT_EQ(t.row_count(), 0u);
}

TEST_F(ExecutorTest, ProjectionOutsideGroupByFails) {
  auto r = RunUncachedText(
      *store,
      "SELECT ?dest (SUM(?v) AS ?t) WHERE { ?o "
      "<http://test/countryDestination> ?dest . ?o "
      "<http://test/numApplicants> ?v } GROUP BY ?o");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(ExecutorTest, SelectStarWithAggregationFails) {
  auto r = RunUncachedText(*store,
                       "SELECT * WHERE { ?o <http://test/numApplicants> ?v } "
                       "GROUP BY ?o");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, OrderByUnknownColumnFails) {
  auto r = RunUncachedText(
      *store, "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ASC(?nope)");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, StatsArePopulated) {
  ExecStats stats;
  auto r = RunUncachedText(*store,
                       "SELECT ?s WHERE { ?s a <http://test/Observation> }",
                       {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.triples_scanned, 0u);
  EXPECT_EQ(stats.intermediate_bindings, 5u);
  EXPECT_GE(stats.exec_millis, 0.0);
}

TEST_F(ExecutorTest, JoinStatsCountEveryStep) {
  // Two mandatory steps: whichever order the planner picks, each step
  // scans 5 index entries and produces 5 extensions.
  ExecStats stats;
  auto r = RunUncachedText(*store,
                       "SELECT ?s ?c WHERE { ?s a <http://test/Observation> . "
                       "?s <http://test/countryOrigin> ?c }",
                       {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 5u);
  EXPECT_EQ(stats.triples_scanned, 10u);
  EXPECT_EQ(stats.intermediate_bindings, 10u);
  // The per-operator tree carries the same totals.
  EXPECT_EQ(stats.profile.TotalScanned(), stats.triples_scanned);
}

TEST_F(ExecutorTest, OptionalStepsContributeToStats) {
  ExecStats stats;
  auto r = RunUncachedText(*store,
                       "SELECT ?s ?y WHERE { "
                       "?s <http://test/refPeriod> ?m . "
                       "OPTIONAL { ?m <http://test/inYear> ?y . } }",
                       {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 5u);
  // 5 refPeriod entries + 5 optional inYear lookups (one per month use).
  EXPECT_EQ(stats.triples_scanned, 10u);
  // 5 mandatory extensions + 5 matched optional extensions.
  EXPECT_EQ(stats.intermediate_bindings, 10u);
}

TEST_F(ExecutorTest, PlannerReorderingMatchesUnordered) {
  const std::string q = R"(
    SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      ?c <http://test/inContinent> <http://test/continent/asia> .
      ?obs <http://test/numApplicants> ?v .
      FILTER (?v > 100)
    })";
  ExecOptions with, without;
  without.plan.use_join_reordering = false;
  auto a = RunUncachedText(*store, q, with);
  auto b = RunUncachedText(*store, q, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->row_count(), b->row_count());
  EXPECT_EQ(a->row_count(), 3u);  // 403, 500, 120
}

TEST_F(ExecutorTest, GroupByWithoutAggregates) {
  ResultTable t = Run(R"(
    SELECT ?dest WHERE {
      ?o <http://test/countryDestination> ?dest .
    } GROUP BY ?dest)");
  EXPECT_EQ(t.row_count(), 2u);
}

// --- execution guardrails ----------------------------------------------------------

/// Returns an ExecGuard whose deadline has already passed.
// The engine rejects a guard that has already tripped before executing,
// so these deadlines are healthy at admission and lapse while the join's
// first index scan is stalled (RunUncachedTextStalled).
constexpr int kDeadlineMillis = 50;
constexpr int kStallMillis = 150;

util::Result<ResultTable> RunPastDeadline(const rdf::TripleStore& store,
                                          const std::string& text) {
  util::ExecGuard guard = util::ExecGuard::WithDeadline(kDeadlineMillis);
  ExecOptions opts;
  opts.guard = &guard;
  return RunUncachedTextStalled(store, text, opts, kStallMillis);
}

TEST_F(ExecutorTest, ExpiredDeadlineTripsSortButNotSmallJoin) {
  // Regression: the join's periodic deadline check fires only every few
  // thousand scanned entries, so on a tiny store an expired deadline is
  // never noticed there. The sort must still observe it — previously a
  // long ORDER BY could run unbounded after the join finished in time.
  const std::string base =
      "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }";
  auto plain = RunPastDeadline(*store, base);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->row_count(), 5u);

  auto sorted = RunPastDeadline(*store, base + " ORDER BY ?v");
  ASSERT_FALSE(sorted.ok());
  EXPECT_TRUE(sorted.status().IsTimeout()) << sorted.status().ToString();
}

TEST_F(ExecutorTest, ExpiredDeadlineTripsAggregationEmit) {
  auto r = RunPastDeadline(*store, R"(
    SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?dest)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
}

TEST_F(ExecutorTest, RowBudgetViolationSurfacesAsResourceExhausted) {
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

TEST_F(ExecutorTest, ByteBudgetViolationSurfacesAsResourceExhausted) {
  util::ExecGuard::Limits limits;
  limits.max_bytes = 32;  // a couple of result cells
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = RunUncachedText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST_F(ExecutorTest, GenerousGuardChargesButDoesNotTrip) {
  util::ExecGuard::Limits limits;
  limits.deadline_millis = 60 * 1000;
  limits.max_rows = 1u << 20;
  limits.max_bytes = 1u << 30;
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = RunUncachedText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->row_count(), 5u);
  EXPECT_GT(guard.charged_rows(), 0u);
  EXPECT_GT(guard.charged_bytes(), 0u);
}

TEST(GuardScaleTest, ShortDeadlineTripsInsideAggregationOnFig7Cube) {
  // Acceptance shape: a deadline lapsing mid-query against the fig7-style
  // generated Eurostat cube returns kTimeout from within aggregation/sort. 2000
  // observations keep the join below its periodic full-check interval,
  // so the trip provably happens at the aggregation boundary, not in the
  // join loop.
  auto ds = qb::Generate(qb::EurostatSpec(2000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const qb::DatasetSpec& spec = ds->spec;
  const std::string query =
      "SELECT ?d (SUM(?v) AS ?total) WHERE { ?o <" + spec.iri_base +
      spec.dimensions[0].predicate + "> ?d . ?o <" + spec.iri_base +
      spec.measure_predicates[0] +
      "> ?v . } GROUP BY ?d ORDER BY ?total";

  auto r = RunPastDeadline(*ds->store, query);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();

  // Sanity: the same query completes without the guard.
  auto ok = RunUncachedText(*ds->store, query);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok->row_count(), 0u);
}

TEST_F(ExecutorTest, AmortizedGuardStillSurfacesRowBudgetOnTinyScans) {
  // Regression for guard over-polling: CheckBudgets used to run on every
  // scanned index entry ahead of the interval gate. The full poll is now
  // amortized behind kGuardCheckInterval, so on a store far smaller than
  // the interval the only budget polls are the charge-site and
  // per-emitted-row rechecks — which must still surface the violation.
  util::ExecGuard::Limits limits;
  limits.max_rows = 1;  // trips on the second produced binding
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = RunUncachedText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_GT(guard.charged_rows(), limits.max_rows);
}

TEST_F(ExecutorTest, AmortizedGuardSkipsBudgetPollsWithinInterval) {
  // With the whole store far below the check interval and no rows ever
  // emitted (aggregation sinks bypass the emit-path recheck until Emit),
  // an over-budget *byte* charge from the group state must still surface
  // at the aggregation boundary — the join itself legitimately no longer
  // notices it mid-scan.
  util::ExecGuard::Limits limits;
  limits.max_bytes = 1;
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = RunUncachedText(*store, R"(
    SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?dest)",
                       opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST_F(ExecutorTest, CancellationAbortsExecution) {
  util::CancellationToken token;
  util::ExecGuard guard({}, &token);
  ExecOptions opts;
  opts.guard = &guard;
  // Cancelled while the join's first scan is stalled. ORDER BY forces a
  // full guard check at the sort boundary, where the cancellation is
  // observed even though the tiny join finished first.
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(kDeadlineMillis));
    token.Cancel();
  });
  auto r = RunUncachedTextStalled(
      *store,
      "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v } "
      "ORDER BY ?v",
      opts, kStallMillis);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

}  // namespace
}  // namespace re2xolap::sparql

namespace re2xolap::sparql {
namespace {

class ExecutorExtTest : public ::testing::Test {
 protected:
  void SetUp() override { store = re2xolap::testing::BuildFigure1Store(); }
  std::unique_ptr<rdf::TripleStore> store;
};

TEST_F(ExecutorExtTest, AskTrueAndFalse) {
  auto yes = RunUncachedText(
      *store,
      "ASK WHERE { ?o <http://test/countryDestination> "
      "<http://test/dest/germany> }");
  ASSERT_TRUE(yes.ok()) << yes.status().ToString();
  ASSERT_EQ(yes->row_count(), 1u);
  EXPECT_EQ(yes->columns()[0], "ask");
  EXPECT_DOUBLE_EQ(yes->NumericValue(yes->at(0, 0)), 1.0);

  auto no = RunUncachedText(
      *store,
      "ASK WHERE { ?o <http://test/countryDestination> "
      "<http://test/dest/narnia> }");
  ASSERT_TRUE(no.ok());
  EXPECT_DOUBLE_EQ(no->NumericValue(no->at(0, 0)), 0.0);
}

TEST_F(ExecutorExtTest, AskWithFilter) {
  auto r = RunUncachedText(*store,
                       "ASK WHERE { ?o <http://test/numApplicants> ?v . "
                       "FILTER (?v > 499) }");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->NumericValue(r->at(0, 0)), 1.0);
  auto r2 = RunUncachedText(*store,
                        "ASK WHERE { ?o <http://test/numApplicants> ?v . "
                        "FILTER (?v > 500) }");
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->NumericValue(r2->at(0, 0)), 0.0);
}

TEST_F(ExecutorExtTest, AskAllConstantPattern) {
  auto r = RunUncachedText(
      *store,
      "ASK WHERE { <http://test/origin/syria> <http://test/inContinent> "
      "<http://test/continent/asia> }");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->NumericValue(r->at(0, 0)), 1.0);
}

TEST_F(ExecutorExtTest, AskRoundTripsThroughToSparql) {
  auto q = ParseQuery("ASK WHERE { ?s ?p ?o }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->is_ask);
  auto q2 = ParseQuery(ToSparql(*q));
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2->is_ask);
}

TEST_F(ExecutorExtTest, CountDistinct) {
  // 5 observations but only 3 distinct origin countries.
  auto r = RunUncachedText(
      *store,
      "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?o "
      "<http://test/countryOrigin> ?c }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->NumericValue(r->at(0, 0)), 3.0);
  // Plain COUNT for contrast.
  auto r2 = RunUncachedText(*store,
                        "SELECT (COUNT(?c) AS ?n) WHERE { ?o "
                        "<http://test/countryOrigin> ?c }");
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->NumericValue(r2->at(0, 0)), 5.0);
}

TEST_F(ExecutorExtTest, CountDistinctPerGroup) {
  auto r = RunUncachedText(
      *store,
      "SELECT ?dest (COUNT(DISTINCT ?c) AS ?n) WHERE { ?o "
      "<http://test/countryDestination> ?dest . ?o "
      "<http://test/countryOrigin> ?c } GROUP BY ?dest");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 2u);
  int dc = r->ColumnIndex("dest"), nc = r->ColumnIndex("n");
  for (size_t i = 0; i < r->row_count(); ++i) {
    double n = r->NumericValue(r->at(i, nc));
    if (r->CellToString(r->at(i, dc)) == "Germany") {
      EXPECT_DOUBLE_EQ(n, 3.0);  // Syria, China, Nigeria
    } else {
      EXPECT_DOUBLE_EQ(n, 1.0);  // France: Syria only
    }
  }
}

TEST_F(ExecutorExtTest, DistinctOnlyForCount) {
  EXPECT_FALSE(ParseQuery("SELECT (SUM(DISTINCT ?v) AS ?s) WHERE "
                          "{ ?o <http://test/p> ?v }")
                   .ok());
}

TEST_F(ExecutorExtTest, EarlyExitLimitMatchesFullScanPrefixSemantics) {
  ExecStats limited_stats, full_stats;
  auto limited = RunUncachedText(
      *store, "SELECT ?o WHERE { ?o a <http://test/Observation> } LIMIT 2",
      {}, &limited_stats);
  auto full = RunUncachedText(
      *store, "SELECT ?o WHERE { ?o a <http://test/Observation> }", {},
      &full_stats);
  ASSERT_TRUE(limited.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(limited->row_count(), 2u);
  EXPECT_EQ(full->row_count(), 5u);
  // The limited run stopped early: strictly fewer bindings produced.
  EXPECT_LT(limited_stats.intermediate_bindings,
            full_stats.intermediate_bindings);
}

TEST_F(ExecutorExtTest, LimitWithOrderByStillSeesAllRows) {
  // ORDER BY prevents the early exit: the 2 smallest values must win.
  auto r = RunUncachedText(*store,
                       "SELECT ?o ?v WHERE { ?o <http://test/numApplicants> "
                       "?v } ORDER BY ASC(?v) LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 2u);
  EXPECT_DOUBLE_EQ(r->NumericValue(r->at(0, r->ColumnIndex("v"))), 60);
  EXPECT_DOUBLE_EQ(r->NumericValue(r->at(1, r->ColumnIndex("v"))), 80);
}

}  // namespace
}  // namespace re2xolap::sparql

namespace re2xolap::sparql {
namespace {

class OptionalTest : public ::testing::Test {
 protected:
  void SetUp() override { store = re2xolap::testing::BuildFigure1Store(); }
  std::unique_ptr<rdf::TripleStore> store;
};

TEST_F(OptionalTest, UnmatchedOptionalLeavesUnbound) {
  // Destination countries have no continent hierarchy: OPTIONAL yields
  // null for them, but rows survive.
  auto r = RunUncachedText(*store, R"(
    SELECT DISTINCT ?c ?cont WHERE {
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
    })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->row_count(), 2u);  // Germany, France
  int cc = r->ColumnIndex("cont");
  for (size_t i = 0; i < r->row_count(); ++i) {
    EXPECT_TRUE(r->at(i, cc).is_null());
  }
}

TEST_F(OptionalTest, MatchedOptionalBindsValues) {
  auto r = RunUncachedText(*store, R"(
    SELECT DISTINCT ?c ?cont WHERE {
      ?o <http://test/countryOrigin> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
    })");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 3u);  // Syria, China, Nigeria — all matched
  int cc = r->ColumnIndex("cont");
  for (size_t i = 0; i < r->row_count(); ++i) {
    EXPECT_TRUE(r->at(i, cc).is_term());
  }
}

TEST_F(OptionalTest, OptionalNeverReducesRows) {
  auto base = RunUncachedText(
      *store, "SELECT ?o WHERE { ?o a <http://test/Observation> }");
  auto with_opt = RunUncachedText(*store, R"(
    SELECT ?o WHERE {
      ?o a <http://test/Observation> .
      OPTIONAL { ?o <http://test/noSuchPredicate> ?x . }
    })");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(with_opt.ok());
  EXPECT_EQ(with_opt->row_count(), base->row_count());
}

TEST_F(OptionalTest, OptionalFanOutMultipliesOnlyMatches) {
  // One origin country with multiple observation links: OPTIONAL over a
  // reverse-ish pattern. Syria appears in 3 observations.
  auto r = RunUncachedText(*store, R"(
    SELECT ?o WHERE {
      ?o <http://test/countryOrigin> <http://test/origin/syria> .
      OPTIONAL { ?o <http://test/refPeriod> ?m . }
    })");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 3u);  // each obs has exactly one month
}

TEST_F(OptionalTest, TwoOptionalBlocksComposeLeftToRight) {
  auto r = RunUncachedText(*store, R"(
    SELECT DISTINCT ?c ?cont ?label WHERE {
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      OPTIONAL { ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label . }
    })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->row_count(), 2u);
  int lc = r->ColumnIndex("label");
  int cc = r->ColumnIndex("cont");
  for (size_t i = 0; i < r->row_count(); ++i) {
    EXPECT_TRUE(r->at(i, lc).is_term());   // labels exist
    EXPECT_TRUE(r->at(i, cc).is_null());   // continents don't
  }
}

TEST_F(OptionalTest, FilterOnOptionalVarDropsUnbound) {
  // BOUND-style semantics: a filter over the optional variable removes
  // rows where it is unbound.
  auto r = RunUncachedText(*store, R"(
    SELECT DISTINCT ?c WHERE {
      ?o <http://test/countryOrigin> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      FILTER (?cont = <http://test/continent/asia>)
    })");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 2u);  // Syria, China
}

TEST_F(OptionalTest, BoundFilterDetectsOptionalMatch) {
  auto r = RunUncachedText(*store, R"(
    SELECT DISTINCT ?c WHERE {
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      FILTER (!BOUND(?cont))
    })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->row_count(), 2u);  // no destination has a continent
}

TEST_F(OptionalTest, AggregateSkipsUnboundOptional) {
  auto r = RunUncachedText(*store, R"(
    SELECT (COUNT(?cont) AS ?n) (COUNT(*) AS ?all) WHERE {
      ?o <http://test/countryOrigin> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
    })");
  ASSERT_TRUE(r.ok());
  // All 5 observations have origins with continents here.
  EXPECT_DOUBLE_EQ(r->NumericValue(r->at(0, r->ColumnIndex("n"))), 5.0);
  EXPECT_DOUBLE_EQ(r->NumericValue(r->at(0, r->ColumnIndex("all"))), 5.0);
}

TEST_F(OptionalTest, RoundTripsThroughToSparql) {
  auto q = ParseQuery(
      "SELECT ?c WHERE { ?o <http://p> ?c . OPTIONAL { ?c <http://q> ?x . "
      "?x <http://r> ?y . } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->optional_blocks.size(), 1u);
  EXPECT_EQ(q->optional_blocks[0].size(), 2u);
  auto q2 = ParseQuery(ToSparql(*q));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->optional_blocks.size(), 1u);
}

TEST_F(OptionalTest, EmptyOptionalBlockIsError) {
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?a ?b ?c ").ok());
}

}  // namespace
}  // namespace re2xolap::sparql

#include "sparql/csv.h"

namespace re2xolap::sparql {
namespace {

TEST(CsvTest, WritesHeaderAndQuotedCells) {
  rdf::TripleStore store;
  store.Freeze();
  ResultTable t(&store, {"name", "value"});
  t.AppendRow({Cell::OfNumber(2.5), Cell::Null()});
  std::ostringstream os;
  WriteCsv(t, os);
  EXPECT_EQ(os.str(), "name,value\n2.5,\n");
}

TEST(CsvTest, EscapesCommasAndQuotes) {
  rdf::TripleStore store;
  rdf::TermId lit =
      store.Intern(rdf::Term::StringLiteral("a,\"b\"\nc"));
  store.Freeze();
  ResultTable t(&store, {"x"});
  t.AppendRow({Cell::OfTerm(lit)});
  std::ostringstream os;
  WriteCsv(t, os);
  EXPECT_EQ(os.str(), "x\n\"a,\"\"b\"\"\nc\"\n");
}

TEST(CsvTest, EndToEndFromQuery) {
  auto store = re2xolap::testing::BuildFigure1Store();
  auto r = RunUncachedText(
      *store,
      "SELECT ?dest (SUM(?v) AS ?total) WHERE { ?o "
      "<http://test/countryDestination> ?dest . ?o "
      "<http://test/numApplicants> ?v } GROUP BY ?dest ORDER BY DESC(?total)");
  ASSERT_TRUE(r.ok());
  std::ostringstream os;
  WriteCsv(*r, os);
  EXPECT_EQ(os.str(), "dest,total\nGermany,1043\nFrance,120\n");
}

}  // namespace
}  // namespace re2xolap::sparql

namespace re2xolap::sparql {
namespace {

TEST(ValuesExecTest, RestrictsBindings) {
  auto store = re2xolap::testing::BuildFigure1Store();
  auto r = RunUncachedText(*store, R"(
    SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      VALUES ?c { <http://test/origin/syria> <http://test/origin/nigeria> }
    })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->row_count(), 4u);  // 3 Syria + 1 Nigeria observations
}

}  // namespace
}  // namespace re2xolap::sparql
