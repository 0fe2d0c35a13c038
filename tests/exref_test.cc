#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/exref.h"
#include "core/session.h"
#include "sparql/executor.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::kObsClass;

class ExrefTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok());
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
    text = std::make_unique<rdf::TextIndex>(*store);
    reolap = std::make_unique<Reolap>(store.get(), vsg.get(), text.get());
  }

  // Synthesizes for the example and returns the initial exploration state.
  ExploreState StateFor(std::vector<std::string> values) {
    auto r = reolap->Synthesize(values);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r->empty());
    return InitialState((*r)[0]);
  }

  sparql::ResultTable Exec(const ExploreState& st) {
    auto r = sparql::Execute(*store, st.query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : sparql::ResultTable();
  }

  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<Reolap> reolap;
};

// --- Disaggregate -----------------------------------------------------------

TEST_F(ExrefTest, DisaggregateOffersUnusedPaths) {
  ExploreState st = StateFor({"Germany", "2014"});
  // Query uses: dest (base), refPeriod/inYear. All 6 paths exist; excluded
  // are those two plus none extending upward from dest (dest has no
  // hierarchy here); refPeriod (month, prefix of year path) IS allowed
  // (finer). So offered: age, origin, origin/continent, month = 4.
  std::vector<ExploreState> refs = Disaggregate(*vsg, *store, st);
  EXPECT_EQ(refs.size(), 4u);
  for (const ExploreState& r : refs) {
    EXPECT_EQ(r.extra_columns.size(), 1u);
    EXPECT_EQ(r.query.group_by.size(), 3u);
    EXPECT_EQ(r.paths.size(), 3u);
    EXPECT_FALSE(r.description.empty());
  }
}

TEST_F(ExrefTest, DisaggregateExcludesCoarserLevels) {
  // Start from a month-level query: the year path (extension of month's
  // path) must NOT be offered.
  ExploreState st = StateFor({"October 2014"});
  std::vector<ExploreState> refs = Disaggregate(*vsg, *store, st);
  for (const ExploreState& r : refs) {
    const LevelPath* added = r.paths.back();
    // Added path must not be refPeriod/inYear.
    if (added->predicates.size() == 2) {
      EXPECT_NE(store->term(added->predicates[0]).value,
                "http://test/refPeriod");
    }
  }
  // Offered: age, origin, origin/continent, dest = 4 (not year).
  EXPECT_EQ(refs.size(), 4u);
}

TEST_F(ExrefTest, DisaggregatedQueryIncreasesDimensionsAndSubsumesExample) {
  ExploreState st = StateFor({"Germany", "2014"});
  std::vector<ExploreState> refs = Disaggregate(*vsg, *store, st);
  ASSERT_FALSE(refs.empty());
  sparql::ResultTable base = Exec(st);
  for (const ExploreState& r : refs) {
    sparql::ResultTable t = Exec(r);
    EXPECT_EQ(t.column_count(), base.column_count() + 1);
    // Problem 2a: T_E still subsumed.
    EXPECT_FALSE(ExampleRowIndexes(r, t).empty());
  }
}

TEST_F(ExrefTest, DisaggregateTwiceReachesThreeExtraDims) {
  ExploreState st = StateFor({"Germany"});
  auto refs1 = Disaggregate(*vsg, *store, st);
  ASSERT_FALSE(refs1.empty());
  auto refs2 = Disaggregate(*vsg, *store, refs1[0]);
  ASSERT_FALSE(refs2.empty());
  EXPECT_EQ(refs2[0].extra_columns.size(), 2u);
  EXPECT_LT(refs2.size(), refs1.size() + 1);  // strictly fewer paths left
  Exec(refs2[0]);                             // must still execute fine
}

// --- ExampleRowIndexes --------------------------------------------------------

TEST_F(ExrefTest, ExampleRowIndexesFindsExactRows) {
  ExploreState st = StateFor({"Germany", "2014"});
  sparql::ResultTable t = Exec(st);
  std::vector<size_t> rows = ExampleRowIndexes(st, t);
  ASSERT_EQ(rows.size(), 1u);
  int dcol = t.ColumnIndex(st.example_columns[0]);
  EXPECT_EQ(t.at(rows[0], dcol).term, st.example[0].member);
}

// --- TopK ----------------------------------------------------------------------

TEST_F(ExrefTest, TopKProducesAnchoredCuts) {
  // Single-value example over destination: rows = (DE: 1043), (FR: 120).
  ExploreState st = StateFor({"Germany"});
  sparql::ResultTable t = Exec(st);
  ASSERT_EQ(t.row_count(), 2u);
  auto refs = SubsetTopK(*store, st, t);
  ASSERT_TRUE(refs.ok());
  // Germany is the max: descending cut exists (top-1), ascending cut does
  // not (Germany is last ascending, never followed by a non-example row)...
  // except ascending with cut after Germany is impossible; so per measure
  // column we expect exactly 1 refinement. 4 measure columns => 4.
  EXPECT_EQ(refs->size(), 4u);
  for (const ExploreState& r : *refs) {
    ASSERT_EQ(r.query.having.size(), 1u);
    sparql::ResultTable rt = Exec(r);
    EXPECT_LT(rt.row_count(), t.row_count());
    EXPECT_FALSE(ExampleRowIndexes(r, rt).empty());
  }
}

TEST_F(ExrefTest, TopKEmptyWhenExampleMissing) {
  ExploreState st = StateFor({"Germany"});
  sparql::ResultTable t = Exec(st);
  // Corrupt the example member so nothing matches.
  st.example[0].member = 1;  // some unrelated term id
  auto refs = SubsetTopK(*store, st, t);
  ASSERT_TRUE(refs.ok());
  EXPECT_TRUE(refs->empty());
}

// --- Percentile -------------------------------------------------------------------

TEST_F(ExrefTest, PercentileBandsAnchoredByExample) {
  ExploreState st = StateFor({"Syria"});
  // Rows per origin country: Syria=1023, China=80, Nigeria=60.
  sparql::ResultTable t = Exec(st);
  ASSERT_EQ(t.row_count(), 3u);
  auto refs = SubsetPercentile(*store, st, t);
  ASSERT_TRUE(refs.ok());
  ASSERT_FALSE(refs->empty());
  for (const ExploreState& r : *refs) {
    sparql::ResultTable rt = Exec(r);
    EXPECT_LT(rt.row_count(), t.row_count());  // strict subset
    EXPECT_FALSE(ExampleRowIndexes(r, rt).empty());
  }
}

TEST_F(ExrefTest, PercentileEmptyOnTinyResults) {
  ExploreState st = StateFor({"Germany"});
  sparql::ResultTable t = Exec(st);
  sparql::ResultTable tiny(t.store(), t.columns());
  if (t.row_count() > 0) tiny.AddRow(t.rows()[0]);
  auto refs = SubsetPercentile(*store, st, tiny);
  ASSERT_TRUE(refs.ok());
  EXPECT_TRUE(refs->empty());
}

// --- Similarity --------------------------------------------------------------------

TEST_F(ExrefTest, SimilarityWithFeatureDimensions) {
  // Example (Syria); disaggregate by destination so dest becomes the
  // feature dimension; find origins with similar per-destination profiles.
  ExploreState st = StateFor({"Syria"});
  auto dis = Disaggregate(*vsg, *store, st);
  const ExploreState* with_dest = nullptr;
  for (const ExploreState& d : dis) {
    if (d.extra_columns[0].find("countryDestination") != std::string::npos) {
      with_dest = &d;
    }
  }
  ASSERT_NE(with_dest, nullptr);
  sparql::ResultTable t = Exec(*with_dest);
  SimilarityOptions opts;
  opts.k = 1;
  auto refs = SimilaritySearch(*store, *with_dest, t, opts);
  ASSERT_TRUE(refs.ok()) << refs.status().ToString();
  ASSERT_FALSE(refs->empty());
  for (const ExploreState& r : *refs) {
    ASSERT_EQ(r.query.filters.size(), 1u);
    sparql::ResultTable rt = Exec(r);
    // Keeps the example plus k=1 similar origin: at most 2 origins remain.
    EXPECT_LE(rt.row_count(), t.row_count());
    EXPECT_FALSE(ExampleRowIndexes(r, rt).empty());
  }
}

TEST_F(ExrefTest, SimilarityDegenerateWithoutExtraDims) {
  // No Disaggregate step: similarity falls back to measure closeness.
  ExploreState st = StateFor({"China"});
  sparql::ResultTable t = Exec(st);  // 3 origins
  SimilarityOptions opts;
  opts.k = 1;
  auto refs = SimilaritySearch(*store, st, t, opts);
  ASSERT_TRUE(refs.ok());
  ASSERT_FALSE(refs->empty());
  sparql::ResultTable rt = Exec((*refs)[0]);
  // China (80) plus its closest neighbor Nigeria (60).
  EXPECT_EQ(rt.row_count(), 2u);
  std::vector<size_t> ex = ExampleRowIndexes((*refs)[0], rt);
  EXPECT_EQ(ex.size(), 1u);
}

TEST_F(ExrefTest, SimilarityReportsOnlySumColumns) {
  ExploreState st = StateFor({"China"});
  sparql::ResultTable t = Exec(st);
  auto refs = SimilaritySearch(*store, st, t);
  ASSERT_TRUE(refs.ok());
  // One refinement per sum_ measure column (1 measure -> 1 refinement).
  EXPECT_EQ(refs->size(), 1u);
}

}  // namespace
}  // namespace re2xolap::core

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;

class RollUpSliceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, re2xolap::testing::kObsClass);
    ASSERT_TRUE(r.ok());
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
    text = std::make_unique<rdf::TextIndex>(*store);
    reolap = std::make_unique<Reolap>(store.get(), vsg.get(), text.get());
  }

  ExploreState StateFor(std::vector<std::string> values) {
    auto r = reolap->Synthesize(values);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r->empty());
    return InitialState((*r)[0]);
  }

  sparql::ResultTable Exec(const ExploreState& st) {
    auto r = sparql::Execute(*store, st.query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : sparql::ResultTable();
  }

  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<Reolap> reolap;
};

TEST_F(RollUpSliceTest, RollUpNothingWithoutExtraDims) {
  ExploreState st = StateFor({"Germany"});
  EXPECT_TRUE(RollUp(*vsg, *store, st).empty());
}

TEST_F(RollUpSliceTest, RollUpRemovesDisaggregatedDimension) {
  ExploreState st = StateFor({"Germany"});
  auto dis = Disaggregate(*vsg, *store, st);
  // Pick the disaggregation by origin country (has a coarser continent
  // level).
  const ExploreState* by_origin = nullptr;
  for (const ExploreState& d : dis) {
    if (d.paths.back()->predicates.size() == 1 &&
        store->term(d.paths.back()->predicates[0]).value ==
            "http://test/countryOrigin") {
      by_origin = &d;
    }
  }
  ASSERT_NE(by_origin, nullptr);
  auto rollups = RollUp(*vsg, *store, *by_origin);
  // (a) remove origin; (b) re-aggregate origin at continent level = 2.
  ASSERT_EQ(rollups.size(), 2u);

  // Removal restores the original query's shape.
  sparql::ResultTable base = Exec(st);
  sparql::ResultTable removed = Exec(rollups[0]);
  EXPECT_EQ(removed.column_count(), base.column_count());
  EXPECT_EQ(removed.row_count(), base.row_count());

  // Re-aggregation has the same column count as the disaggregated query
  // but fewer (or equal) rows: continents are coarser than countries.
  sparql::ResultTable fine = Exec(*by_origin);
  sparql::ResultTable coarse = Exec(rollups[1]);
  EXPECT_EQ(coarse.column_count(), fine.column_count());
  EXPECT_LE(coarse.row_count(), fine.row_count());
  // Example is still subsumed in both.
  EXPECT_FALSE(ExampleRowIndexes(rollups[0], removed).empty());
  EXPECT_FALSE(ExampleRowIndexes(rollups[1], coarse).empty());
}

TEST_F(RollUpSliceTest, RollUpInverseOfDisaggregateSums) {
  // SUM is preserved when rolling a dimension up completely.
  ExploreState st = StateFor({"Germany"});
  sparql::ResultTable base = Exec(st);
  auto dis = Disaggregate(*vsg, *store, st);
  ASSERT_FALSE(dis.empty());
  auto rollups = RollUp(*vsg, *store, dis[0]);
  ASSERT_FALSE(rollups.empty());
  sparql::ResultTable restored = Exec(rollups[0]);
  // Same total over the sum column.
  int bc = base.ColumnIndex(st.measure_columns[0]);
  int rc = restored.ColumnIndex(st.measure_columns[0]);
  double bsum = 0, rsum = 0;
  for (size_t i = 0; i < base.row_count(); ++i) {
    bsum += base.NumericValue(base.at(i, bc));
  }
  for (size_t i = 0; i < restored.row_count(); ++i) {
    rsum += restored.NumericValue(restored.at(i, rc));
  }
  EXPECT_DOUBLE_EQ(bsum, rsum);
}

TEST_F(RollUpSliceTest, SliceFixesDimensionAndDropsColumn) {
  ExploreState st = StateFor({"Germany", "2014"});
  sparql::ResultTable before = Exec(st);  // 3 rows
  auto sliced = SliceToExample(*store, st, 0);  // fix Germany
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
  sparql::ResultTable after = Exec(*sliced);
  EXPECT_EQ(after.column_count(), before.column_count() - 1);
  // Only Germany rows remain: (DE,2014), (DE,2015) -> year groups 2.
  EXPECT_EQ(after.row_count(), 2u);
  // The remaining example value (2014) still anchors.
  EXPECT_FALSE(ExampleRowIndexes(*sliced, after).empty());
  EXPECT_EQ(sliced->example_columns.size(), 1u);
}

TEST_F(RollUpSliceTest, SliceGuardsLastExampleColumn) {
  ExploreState st = StateFor({"Germany"});
  EXPECT_FALSE(SliceToExample(*store, st, 0).ok());
  ExploreState st2 = StateFor({"Germany", "2014"});
  EXPECT_FALSE(SliceToExample(*store, st2, 5).ok());
}

TEST_F(RollUpSliceTest, SessionRollUpAndSlice) {
  Session session(store.get(), vsg.get(), text.get());
  ASSERT_TRUE(session.Start({"Germany", "2014"}).ok());
  ASSERT_TRUE(session.PickCandidate(0).ok());
  auto dis = session.Refine(RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  ASSERT_TRUE(session.PickRefinement(0).ok());
  auto rollups = session.Refine(RefinementKind::kRollUp);
  ASSERT_TRUE(rollups.ok());
  EXPECT_FALSE(rollups->empty());
  EXPECT_STREQ(RefinementKindName(RefinementKind::kRollUp), "RollUp");
  ASSERT_TRUE(session.Slice(0).ok());
  auto t = session.Execute();
  ASSERT_TRUE(t.ok());
  session.Back();  // undo slice
  ASSERT_TRUE(session.Execute().ok());
}

// --- graceful degradation under deadlines -----------------------------------

// Both caches off: every state is executed, none served from memory.
const engine::EngineConfig kUncached{.plan_cache_capacity = 0,
                                     .result_cache_bytes = 0};

TEST_F(ExrefTest, ExpiredGuardEvaluatesFirstStateAndSkipsTheRest) {
  ExploreState st = StateFor({"Germany", "2014"});
  std::vector<ExploreState> states = Disaggregate(*vsg, *store, st);
  ASSERT_GE(states.size(), 2u);

  util::ExecGuard guard = util::ExecGuard::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  engine::QueryEngine engine(*store, kUncached);
  util::Degradation degradation;
  auto tables =
      EvaluateStates(engine, states, {}, nullptr, nullptr, &guard,
                     &degradation);
  ASSERT_EQ(tables.size(), states.size());
  // Min-progress: the first preview always runs even under an expired
  // deadline; every later one is skipped with the guard's status.
  ASSERT_TRUE(tables[0].ok()) << tables[0].status().ToString();
  EXPECT_GT((*tables[0])->row_count(), 0u);
  for (size_t i = 1; i < tables.size(); ++i) {
    ASSERT_FALSE(tables[i].ok()) << "state " << i;
    EXPECT_TRUE(tables[i].status().IsTimeout())
        << tables[i].status().ToString();
  }
  EXPECT_TRUE(degradation.truncated);
  EXPECT_NE(degradation.degraded_reason.find("preview evaluations skipped"),
            std::string::npos)
      << degradation.degraded_reason;
}

TEST_F(ExrefTest, HealthyGuardEvaluatesAllStates) {
  ExploreState st = StateFor({"Germany", "2014"});
  std::vector<ExploreState> states = Disaggregate(*vsg, *store, st);
  util::ExecGuard guard = util::ExecGuard::WithDeadline(60 * 1000);
  engine::QueryEngine engine(*store, kUncached);
  util::Degradation degradation;
  auto tables =
      EvaluateStates(engine, states, {}, nullptr, nullptr, &guard,
                     &degradation);
  ASSERT_EQ(tables.size(), states.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    EXPECT_TRUE(tables[i].ok()) << tables[i].status().ToString();
  }
  EXPECT_FALSE(degradation.truncated);
  EXPECT_TRUE(degradation.degraded_reason.empty());
}

}  // namespace
}  // namespace re2xolap::core
