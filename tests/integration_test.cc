// End-to-end integration tests over the generated datasets: bootstrap,
// synthesis, execution, and every refinement, checking the paper's formal
// guarantees (Problems 1 and 2a-2c) on real-sized inputs.

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/sparqlbye_baseline.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "sparql/executor.h"
#include "tests/uncached_engine.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::RunUncached;
using re2xolap::testing::RunUncachedText;
using re2xolap::testing::kUncached;

/// Shared across the suite: generating + bootstrapping once keeps the
/// suite fast.
class EurostatIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto ds = qb::Generate(qb::EurostatSpec(20000));
    ASSERT_TRUE(ds.ok());
    dataset_ = new qb::GeneratedDataset(std::move(ds).value());
    auto vsg = VirtualSchemaGraph::Build(*dataset_->store,
                                         dataset_->spec.observation_class);
    ASSERT_TRUE(vsg.ok());
    vsg_ = new VirtualSchemaGraph(std::move(vsg).value());
    text_ = new rdf::TextIndex(*dataset_->store);
  }
  static void TearDownTestSuite() {
    delete text_;
    delete vsg_;
    delete dataset_;
    text_ = nullptr;
    vsg_ = nullptr;
    dataset_ = nullptr;
  }

  static qb::GeneratedDataset* dataset_;
  static VirtualSchemaGraph* vsg_;
  static rdf::TextIndex* text_;
};

qb::GeneratedDataset* EurostatIntegration::dataset_ = nullptr;
VirtualSchemaGraph* EurostatIntegration::vsg_ = nullptr;
rdf::TextIndex* EurostatIntegration::text_ = nullptr;

TEST_F(EurostatIntegration, GermanyHasTwoInterpretations) {
  engine::QueryEngine engine(*dataset_->store, kUncached);
  Reolap reolap(vsg_, text_, engine);
  // "Germany" labels both an origin-country and a destination-country
  // member: two interpretations, two queries (paper Section 5 example).
  std::vector<Interpretation> interps = reolap.MatchValue("Germany");
  EXPECT_EQ(interps.size(), 2u);
  auto queries = reolap.Synthesize({"Germany"});
  ASSERT_TRUE(queries.ok());
  EXPECT_EQ(queries->size(), 2u);
}

TEST_F(EurostatIntegration, Germany2014ProducesTwoValidQueries) {
  engine::QueryEngine engine(*dataset_->store, kUncached);
  Reolap reolap(vsg_, text_, engine);
  auto queries = reolap.Synthesize({"Germany", "2014"});
  ASSERT_TRUE(queries.ok());
  // Origin x Year and Destination x Year.
  EXPECT_EQ(queries->size(), 2u);
  for (const CandidateQuery& q : *queries) {
    auto result = RunUncached(*dataset_->store, q.query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->row_count(), 0u);
    // Problem 1 guarantee: the example is subsumed by the result.
    ExploreState st = InitialState(q);
    EXPECT_FALSE(ExampleRowIndexes(st, *result).empty())
        << "example not in results of: " << q.description;
  }
}

TEST_F(EurostatIntegration, HierarchyLevelExample) {
  engine::QueryEngine engine(*dataset_->store, kUncached);
  Reolap reolap(vsg_, text_, engine);
  // "Asia" is an origin continent: reached via countryOrigin/inContinent.
  auto queries = reolap.Synthesize({"Asia", "2014"});
  ASSERT_TRUE(queries.ok());
  ASSERT_GE(queries->size(), 1u);
  bool found_continent_year = false;
  for (const CandidateQuery& q : *queries) {
    if (q.interpretations[0].path->predicates.size() == 2 &&
        q.interpretations[1].path->predicates.size() == 2) {
      found_continent_year = true;
      auto result = RunUncached(*dataset_->store, q.query);
      ASSERT_TRUE(result.ok());
      // 7 continents x 10 years upper bound.
      EXPECT_LE(result->row_count(), 70u);
      EXPECT_GT(result->row_count(), 0u);
    }
  }
  EXPECT_TRUE(found_continent_year);
}

TEST_F(EurostatIntegration, RefinementChainPreservesSubsumption) {
  // Problem 2 invariant along a whole chain: example tuples remain
  // subsumed after Disaggregate -> TopK.
  engine::QueryEngine engine(*dataset_->store);
  Session session(dataset_->store.get(), vsg_, text_, &engine);
  ASSERT_TRUE(session.Start({"Germany", "2014"}).ok());
  ASSERT_TRUE(session.PickCandidate(0).ok());
  ASSERT_TRUE(session.Execute().ok());

  auto dis = session.Refine(RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  ASSERT_FALSE(dis->empty());
  ASSERT_TRUE(session.PickRefinement(0).ok());
  auto t = session.Execute();
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(ExampleRowIndexes(session.current(), **t).empty());

  auto topk = session.Refine(RefinementKind::kTopK);
  ASSERT_TRUE(topk.ok());
  if (!topk->empty()) {
    ASSERT_TRUE(session.PickRefinement(0).ok());
    auto t2 = session.Execute();
    ASSERT_TRUE(t2.ok());
    EXPECT_FALSE(ExampleRowIndexes(session.current(), **t2).empty());
  }
}

TEST_F(EurostatIntegration, DisaggregateMatchesProblem2aCardinality) {
  engine::QueryEngine engine(*dataset_->store, kUncached);
  Reolap reolap(vsg_, text_, engine);
  auto queries = reolap.Synthesize({"Germany"});
  ASSERT_TRUE(queries.ok());
  ASSERT_FALSE(queries->empty());
  ExploreState st = InitialState((*queries)[0]);
  auto refs = Disaggregate(*vsg_, *dataset_->store, st);
  // |D(T_r)| = |D(T)| + 1 for every refinement.
  for (const ExploreState& r : refs) {
    EXPECT_EQ(r.query.group_by.size(), st.query.group_by.size() + 1);
  }
  // Excluded: the used base path plus every path extending it upward
  // (both country levels have two hierarchy branches): 10 - 3 = 7.
  EXPECT_EQ(refs.size(), vsg_->level_paths().size() - 3);
}

TEST_F(EurostatIntegration, SubsetRefinementsAreStrictSubsets) {
  engine::QueryEngine engine(*dataset_->store, kUncached);
  Reolap reolap(vsg_, text_, engine);
  auto queries = reolap.Synthesize({"Syria"});
  ASSERT_TRUE(queries.ok());
  ASSERT_FALSE(queries->empty());
  ExploreState st = InitialState((*queries)[0]);
  auto table = RunUncached(*dataset_->store, st.query);
  ASSERT_TRUE(table.ok());
  const size_t full = table->row_count();

  auto topk = SubsetTopK(*dataset_->store, st, *table);
  ASSERT_TRUE(topk.ok());
  for (const ExploreState& r : *topk) {
    auto rt = RunUncached(*dataset_->store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_LT(rt->row_count(), full);               // |T_r| < |T|
    EXPECT_EQ(rt->column_count(), table->column_count());  // D(T_r)=D(T)
    EXPECT_FALSE(ExampleRowIndexes(r, *rt).empty());       // T_E ⊑ T_r
  }
  auto perc = SubsetPercentile(*dataset_->store, st, *table);
  ASSERT_TRUE(perc.ok());
  for (const ExploreState& r : *perc) {
    auto rt = RunUncached(*dataset_->store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_LT(rt->row_count(), full);
    EXPECT_FALSE(ExampleRowIndexes(r, *rt).empty());
  }
}

TEST_F(EurostatIntegration, SimilarityKeepsKPlusExample) {
  engine::QueryEngine engine(*dataset_->store);
  Session session(dataset_->store.get(), vsg_, text_, &engine);
  ASSERT_TRUE(session.Start({"Germany"}).ok());
  ASSERT_TRUE(session.PickCandidate(0).ok());
  // Disaggregate by year so similarity has a feature dimension.
  auto dis = session.Refine(RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  size_t year_idx = 0;
  for (size_t i = 0; i < dis->size(); ++i) {
    if ((*dis)[i].description.find("/ Year") != std::string::npos) {
      year_idx = i;
    }
  }
  ASSERT_TRUE(session.PickRefinement(year_idx).ok());
  SimilarityOptions opts;
  opts.k = 3;
  auto sim = session.Refine(RefinementKind::kSimilarity, opts);
  ASSERT_TRUE(sim.ok());
  ASSERT_FALSE(sim->empty());
  ASSERT_TRUE(session.PickRefinement(0).ok());
  auto t = session.Execute();
  ASSERT_TRUE(t.ok());
  // k + 1 countries, each with <= 10 years.
  EXPECT_LE((*t)->row_count(), (opts.k + 1) * 10);
  EXPECT_FALSE(ExampleRowIndexes(session.current(), **t).empty());
}

TEST_F(EurostatIntegration, BaselineCannotProduceAnalytics) {
  SparqlByEBaseline baseline(dataset_->store.get(), text_);
  auto q = baseline.Synthesize({"Asia", "2011"});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->has_aggregates());
  for (const auto& p : q->patterns) {
    if (!sparql::IsVar(p.p)) {
      EXPECT_EQ(sparql::AsTerm(p.p).value.find("numApplicants"),
                std::string::npos);
    }
  }
}

TEST_F(EurostatIntegration, SynthesisIsDeterministic) {
  engine::QueryEngine engine(*dataset_->store, kUncached);
  Reolap reolap(vsg_, text_, engine);
  auto a = reolap.Synthesize({"Germany", "2014"});
  auto b = reolap.Synthesize({"Germany", "2014"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(sparql::ToSparql((*a)[i].query), sparql::ToSparql((*b)[i].query));
  }
}

TEST_F(EurostatIntegration, SynthesizedSparqlTextRoundTrips) {
  // The emitted SPARQL text must be parseable by our own parser and give
  // identical results — guaranteeing the system works over a standard
  // SPARQL interface (paper: "operates on standard SPARQL interfaces").
  engine::QueryEngine engine(*dataset_->store, kUncached);
  Reolap reolap(vsg_, text_, engine);
  auto queries = reolap.Synthesize({"Asia", "2014"});
  ASSERT_TRUE(queries.ok());
  for (const CandidateQuery& q : *queries) {
    std::string text_q = sparql::ToSparql(q.query);
    auto direct = RunUncached(*dataset_->store, q.query);
    auto reparsed = RunUncachedText(*dataset_->store, text_q);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                               << text_q;
    EXPECT_EQ(direct->row_count(), reparsed->row_count());
  }
}

}  // namespace
}  // namespace re2xolap::core
