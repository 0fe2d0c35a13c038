#include <gtest/gtest.h>

#include "core/session.h"
#include "core/sparqlbye_baseline.h"
#include "obs/trace.h"
#include "tests/json_validator.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::RunUncached;
using re2xolap::testing::kObsClass;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok());
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
    text = std::make_unique<rdf::TextIndex>(*store);
    engine = std::make_unique<engine::QueryEngine>(*store);
    session = std::make_unique<Session>(store.get(), vsg.get(), text.get(),
                                        engine.get());
  }
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<Session> session;
};

TEST_F(SessionTest, FullAlgorithmTwoWorkflow) {
  // Algorithm 2: synthesize, pick, execute, refine, pick, execute...
  auto candidates = session->Start({"Germany", "2014"});
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 1u);
  ASSERT_TRUE(session->PickCandidate(0).ok());

  auto t1 = session->Execute();
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ((*t1)->row_count(), 3u);
  // The session caches one table at a time; copy what we compare later.
  const size_t t1_cols = (*t1)->column_count();

  auto dis = session->Refine(RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  ASSERT_FALSE(dis->empty());
  ASSERT_TRUE(session->PickRefinement(0).ok());

  auto t2 = session->Execute();
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ((*t2)->column_count(), t1_cols + 1);
  const size_t t2_rows = (*t2)->row_count();

  auto topk = session->Refine(RefinementKind::kTopK);
  ASSERT_TRUE(topk.ok());
  if (!topk->empty()) {
    ASSERT_TRUE(session->PickRefinement(0).ok());
    auto t3 = session->Execute();
    ASSERT_TRUE(t3.ok());
    EXPECT_LE((*t3)->row_count(), t2_rows);
  }
}

TEST_F(SessionTest, BackRestoresPreviousState) {
  ASSERT_TRUE(session->Start({"Germany"}).ok());
  ASSERT_TRUE(session->PickCandidate(0).ok());
  std::string desc0 = session->current().description;
  auto dis = session->Refine(RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  ASSERT_TRUE(session->PickRefinement(0).ok());
  EXPECT_NE(session->current().description, desc0);
  session->Back();
  EXPECT_EQ(session->current().description, desc0);
  session->Back();  // no-op at root
  EXPECT_EQ(session->current().description, desc0);
}

TEST_F(SessionTest, StatsAccumulate) {
  ASSERT_TRUE(session->Start({"Germany"}).ok());
  ASSERT_TRUE(session->PickCandidate(0).ok());
  ASSERT_TRUE(session->Execute().ok());
  auto dis = session->Refine(RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  const ExplorationStats& st = session->stats();
  EXPECT_EQ(st.interactions, 2u);  // Start + Refine
  EXPECT_EQ(st.cumulative_paths, 1u + dis->size());
  EXPECT_GT(st.cumulative_tuples, 0u);
}

TEST_F(SessionTest, ErrorsOnMissingState) {
  EXPECT_FALSE(session->Execute().ok());
  EXPECT_FALSE(session->Refine(RefinementKind::kTopK).ok());
  EXPECT_FALSE(session->PickCandidate(0).ok());
  ASSERT_TRUE(session->Start({"Germany"}).ok());
  EXPECT_FALSE(session->PickCandidate(5).ok());
  ASSERT_TRUE(session->PickCandidate(0).ok());
  EXPECT_FALSE(session->PickRefinement(0).ok());
}

TEST_F(SessionTest, SimilarityAndPercentileRefinements) {
  ASSERT_TRUE(session->Start({"Syria"}).ok());
  ASSERT_TRUE(session->PickCandidate(0).ok());
  auto sim = session->Refine(RefinementKind::kSimilarity);
  ASSERT_TRUE(sim.ok());
  EXPECT_FALSE(sim->empty());
  auto perc = session->Refine(RefinementKind::kPercentile);
  ASSERT_TRUE(perc.ok());
  EXPECT_FALSE(perc->empty());
}

TEST_F(SessionTest, RefinementKindNames) {
  EXPECT_STREQ(RefinementKindName(RefinementKind::kDisaggregate),
               "Disaggregate");
  EXPECT_STREQ(RefinementKindName(RefinementKind::kTopK), "TopK");
  EXPECT_STREQ(RefinementKindName(RefinementKind::kPercentile), "Percentile");
  EXPECT_STREQ(RefinementKindName(RefinementKind::kSimilarity), "Similarity");
}

// --- SPARQLByE baseline (Figure 10) -------------------------------------------

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    text = std::make_unique<rdf::TextIndex>(*store);
    baseline = std::make_unique<SparqlByEBaseline>(store.get(), text.get());
  }
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<SparqlByEBaseline> baseline;
};

TEST_F(BaselineTest, ProducesMinimalBgpWithoutAggregates) {
  auto q = baseline->Synthesize({"Asia", "2014"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->select_all);
  EXPECT_FALSE(q->has_aggregates());
  EXPECT_TRUE(q->group_by.empty());
  // Figure 10a: patterns describe the two entities but never mention any
  // observation or measure predicate.
  std::string text_q = sparql::ToSparql(*q);
  EXPECT_EQ(text_q.find("numApplicants"), std::string::npos);
  EXPECT_EQ(text_q.find("GROUP BY"), std::string::npos);
}

TEST_F(BaselineTest, PatternsAreDisconnectedAcrossValues) {
  auto q = baseline->Synthesize({"Asia", "2014"});
  ASSERT_TRUE(q.ok());
  // Variables of value 0 patterns all start with x0; value 1 with x1 —
  // no shared variable connects them.
  bool has_x0 = false, has_x1 = false;
  for (const auto& p : q->patterns) {
    if (sparql::IsVar(p.s)) {
      const std::string& n = sparql::AsVar(p.s).name;
      has_x0 |= n.rfind("x0", 0) == 0;
      has_x1 |= n.rfind("x1", 0) == 0;
    }
  }
  EXPECT_TRUE(has_x0);
  EXPECT_TRUE(has_x1);
}

TEST_F(BaselineTest, FailsOnUnknownValue) {
  EXPECT_FALSE(baseline->Synthesize({"Narnia"}).ok());
  EXPECT_FALSE(baseline->Synthesize({}).ok());
}

TEST_F(BaselineTest, BaselineQueryExecutes) {
  auto q = baseline->Synthesize({"Syria"});
  ASSERT_TRUE(q.ok());
  auto r = RunUncached(*store, *q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->row_count(), 1u);
}

TEST_F(SessionTest, ObservabilityStatsAndCapturedTrace) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);

  auto candidates = session->Start({"Germany", "2014"});
  ASSERT_TRUE(candidates.ok());
  ASSERT_TRUE(session->PickCandidate(0).ok());
  ASSERT_TRUE(session->Execute().ok());
  auto dis = session->Refine(RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  tracer.SetEnabled(false);

  // Execution statistics flow from the executor into the session stats.
  const ExplorationStats& st = session->stats();
  EXPECT_EQ(st.interactions, 2u);  // Start + Refine
  EXPECT_EQ(st.interaction_latency_millis.size(), st.interactions);
  for (double ms : st.interaction_latency_millis) EXPECT_GT(ms, 0.0);
  EXPECT_GT(st.cumulative_exec_millis, 0.0);
  EXPECT_GT(st.cumulative_triples_scanned, 0u);
  EXPECT_GT(st.cumulative_intermediate_bindings, 0u);
  // The last executed query left its per-operator tree behind.
  EXPECT_GT(session->last_exec_stats().profile.NodeCount(), 1u);

  // The captured session trace is valid Chrome trace_event JSON and
  // contains the interaction spans.
  std::string json = tracer.ChromeTraceJson();
  std::string error;
  EXPECT_TRUE(re2xolap::testing::IsValidJson(json, &error)) << error;
  EXPECT_NE(json.find("session.start"), std::string::npos);
  EXPECT_NE(json.find("reolap.synthesize"), std::string::npos);
  EXPECT_NE(json.find("session.execute"), std::string::npos);
  EXPECT_NE(json.find("sparql.execute"), std::string::npos);
  tracer.Clear();
}

TEST_F(SessionTest, LatencyListTracksEveryInteractionKind) {
  auto candidates = session->Start({"Germany", "2014"});
  ASSERT_TRUE(candidates.ok());
  ASSERT_TRUE(session->PickCandidate(0).ok());
  ASSERT_TRUE(session->Slice(0).ok());
  const ExplorationStats& st = session->stats();
  EXPECT_EQ(st.interactions, 2u);  // Start + Slice
  EXPECT_EQ(st.interaction_latency_millis.size(), st.interactions);
}

}  // namespace
}  // namespace re2xolap::core
