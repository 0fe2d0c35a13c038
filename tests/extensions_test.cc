// Tests for the extensions beyond the paper's core algorithms: multi-tuple
// synthesis, mixed (IRI) inputs, negative examples and clustering-based
// subsets.

#include <gtest/gtest.h>

#include "core/session.h"
#include "sparql/executor.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::RunUncached;
using re2xolap::testing::kObsClass;
using re2xolap::testing::kUncached;

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok());
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
    text = std::make_unique<rdf::TextIndex>(*store);
    engine = std::make_unique<engine::QueryEngine>(*store, kUncached);
    reolap = std::make_unique<Reolap>(vsg.get(), text.get(), *engine);
  }
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<Reolap> reolap;
};

// --- Mixed (IRI) inputs -------------------------------------------------------

TEST_F(ExtensionsTest, IriInputResolvesDirectly) {
  for (const std::string& value :
       {std::string("<http://test/dest/germany>"),
        std::string("http://test/dest/germany")}) {
    std::vector<Interpretation> interps = reolap->MatchValue(value);
    ASSERT_EQ(interps.size(), 1u) << value;
    EXPECT_EQ(store->term(interps[0].member).value,
              "http://test/dest/germany");
  }
}

TEST_F(ExtensionsTest, IriInputMixesWithLabels) {
  auto queries =
      reolap->Synthesize({"<http://test/dest/germany>", "2014"});
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 1u);
  auto table = RunUncached(*store, (*queries)[0].query);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table->row_count(), 0u);
}

TEST_F(ExtensionsTest, UnknownIriMatchesNothing) {
  EXPECT_TRUE(reolap->MatchValue("<http://test/dest/narnia>").empty());
  EXPECT_TRUE(reolap->MatchValue("http://nowhere/x").empty());
}

// --- Multi-tuple synthesis ------------------------------------------------------

TEST_F(ExtensionsTest, MultiTupleKeepsCommonInterpretations) {
  // Rows <Germany> and <France>: both destination countries -> the
  // destination query survives; no other dimension covers both.
  auto queries = reolap->SynthesizeMulti({{"Germany"}, {"France"}});
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 1u);
  const CandidateQuery& q = (*queries)[0];
  ASSERT_EQ(q.extra_rows.size(), 1u);
  EXPECT_EQ(store->term(q.extra_rows[0][0].member).value,
            "http://test/dest/france");
}

TEST_F(ExtensionsTest, MultiTupleRejectsUncoveredRows) {
  // "18-34" is an age; the destination interpretation of "Germany" cannot
  // cover it -> no common query.
  auto queries = reolap->SynthesizeMulti({{"Germany"}, {"18-34"}});
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(queries->empty());
}

TEST_F(ExtensionsTest, MultiTupleValidationPrunesDisconnectedRows) {
  // <France, Africa>: France only receives Asian applicants here, so the
  // second row fails joint validation even though both values map to the
  // right levels (first row <Germany, Asia> is fine).
  auto queries =
      reolap->SynthesizeMulti({{"Germany", "Asia"}, {"France", "Africa"}});
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(queries->empty());
  // Sanity: a connected second row passes.
  auto ok = reolap->SynthesizeMulti({{"Germany", "Asia"}, {"France", "Asia"}});
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->size(), 1u);
}

TEST_F(ExtensionsTest, MultiTupleArityMismatchIsError) {
  EXPECT_FALSE(reolap->SynthesizeMulti({{"Germany"}, {"France", "2014"}}).ok());
  EXPECT_FALSE(reolap->SynthesizeMulti({}).ok());
}

TEST_F(ExtensionsTest, MultiTupleExampleRowsAnchorRefinements) {
  auto queries = reolap->SynthesizeMulti({{"Germany"}, {"France"}});
  ASSERT_TRUE(queries.ok());
  ASSERT_FALSE(queries->empty());
  ExploreState st = InitialState((*queries)[0]);
  auto table = RunUncached(*store, st.query);
  ASSERT_TRUE(table.ok());
  // Both rows (Germany and France) anchor the example set.
  EXPECT_EQ(ExampleRowIndexes(st, *table).size(), 2u);
}

// --- Negative examples --------------------------------------------------------------

TEST_F(ExtensionsTest, NegativeExampleExcludesMember) {
  auto queries = reolap->Synthesize({"Asia"});
  ASSERT_TRUE(queries.ok());
  ASSERT_FALSE(queries->empty());
  ExploreState st = InitialState((*queries)[0]);
  auto before = RunUncached(*store, st.query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->row_count(), 2u);  // Asia, Africa

  auto neg = ExcludeNegativeExamples(*reolap, st, {"Africa"});
  ASSERT_TRUE(neg.ok()) << neg.status().ToString();
  EXPECT_TRUE(neg->unmatched_values.empty());
  auto after = RunUncached(*store, neg->state.query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->row_count(), 1u);
  // The example itself survives.
  EXPECT_FALSE(ExampleRowIndexes(neg->state, *after).empty());
}

TEST_F(ExtensionsTest, NegativeExampleUnmatchedReported) {
  auto queries = reolap->Synthesize({"Asia"});
  ASSERT_TRUE(queries.ok());
  ExploreState st = InitialState((*queries)[0]);
  // "18-34" exists but is not on a level present in this query.
  auto neg = ExcludeNegativeExamples(*reolap, st, {"Africa", "18-34"});
  ASSERT_TRUE(neg.ok());
  ASSERT_EQ(neg->unmatched_values.size(), 1u);
  EXPECT_EQ(neg->unmatched_values[0], "18-34");
  // All values unmatched -> error.
  EXPECT_FALSE(ExcludeNegativeExamples(*reolap, st, {"18-34"}).ok());
  EXPECT_FALSE(ExcludeNegativeExamples(*reolap, st, {}).ok());
}

TEST_F(ExtensionsTest, NegativeExamplesViaSession) {
  engine::QueryEngine engine(*store);
  Session session(store.get(), vsg.get(), text.get(), &engine);
  ASSERT_TRUE(session.Start({"Asia"}).ok());
  ASSERT_TRUE(session.PickCandidate(0).ok());
  auto unmatched = session.ExcludeNegative({"Africa"});
  ASSERT_TRUE(unmatched.ok());
  auto table = session.Execute();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 1u);
  session.Back();  // exclusion is undoable
  auto table2 = session.Execute();
  ASSERT_TRUE(table2.ok());
  EXPECT_EQ((*table2)->row_count(), 2u);
}

// --- Clustering-based subsets ---------------------------------------------------------

TEST_F(ExtensionsTest, ClusterRefinementKeepsExampleCluster) {
  // Origin-country query: Syria=1023, China=80, Nigeria=60. With k=2 the
  // example (China) clusters with Nigeria.
  auto queries = reolap->Synthesize({"China"});
  ASSERT_TRUE(queries.ok());
  ASSERT_FALSE(queries->empty());
  ExploreState st = InitialState((*queries)[0]);
  auto table = RunUncached(*store, st.query);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->row_count(), 3u);

  ClusterOptions opts;
  opts.k = 2;
  auto refs = SubsetCluster(*store, st, *table, opts);
  ASSERT_TRUE(refs.ok());
  ASSERT_FALSE(refs->empty());
  for (const ExploreState& r : *refs) {
    auto rt = RunUncached(*store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_LT(rt->row_count(), table->row_count());
    EXPECT_FALSE(ExampleRowIndexes(r, *rt).empty());
  }
  // The sum-measure refinement keeps exactly {China, Nigeria}.
  auto rt0 = RunUncached(*store, (*refs)[0].query);
  ASSERT_TRUE(rt0.ok());
  EXPECT_EQ(rt0->row_count(), 2u);
}

TEST_F(ExtensionsTest, ClusterRefinementEmptyWhenTooFewRows) {
  auto queries = reolap->Synthesize({"Germany"});
  ASSERT_TRUE(queries.ok());
  ExploreState st = InitialState((*queries)[0]);
  auto table = RunUncached(*store, st.query);  // 2 rows
  ASSERT_TRUE(table.ok());
  ClusterOptions opts;
  opts.k = 3;
  auto refs = SubsetCluster(*store, st, *table, opts);
  ASSERT_TRUE(refs.ok());
  EXPECT_TRUE(refs->empty());
}

TEST_F(ExtensionsTest, ClusterViaSession) {
  engine::QueryEngine engine(*store);
  Session session(store.get(), vsg.get(), text.get(), &engine);
  ASSERT_TRUE(session.Start({"China"}).ok());
  ASSERT_TRUE(session.PickCandidate(0).ok());
  ClusterOptions copts;
  copts.k = 2;
  auto refs = session.Refine(RefinementKind::kCluster, {}, {}, copts);
  ASSERT_TRUE(refs.ok());
  EXPECT_FALSE(refs->empty());
  EXPECT_STREQ(RefinementKindName(RefinementKind::kCluster), "Cluster");
}

}  // namespace
}  // namespace re2xolap::core
