// Tests for the natural-language presentation layer (paper Section 5.1)
// and the similarity-measure options of Problem 2c.

#include <gtest/gtest.h>

#include "core/describe.h"
#include "core/exref.h"
#include "core/reolap.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "sparql/executor.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::RunUncached;
using re2xolap::testing::kUncached;

TEST(DescribeTest, PrefersRdfsLabelOverLocalName) {
  rdf::TripleStore store;
  rdf::Term pred = rdf::Term::Iri("http://x/countryDestination");
  store.Add(pred, rdf::Term::Iri("http://www.w3.org/2000/01/rdf-schema#label"),
            rdf::Term::StringLiteral("Country of Destination"));
  store.Add(rdf::Term::Iri("http://x/unlabeled"), pred,
            rdf::Term::Iri("http://x/other"));
  store.Freeze();
  EXPECT_EQ(DisplayNameOfIri(store, "http://x/countryDestination"),
            "Country of Destination");
  // Falls back to prettified local names.
  EXPECT_EQ(DisplayNameOfIri(store, "http://x/unlabeled"), "Unlabeled");
  EXPECT_EQ(DisplayNameOfIri(store, "http://never/seenBefore"),
            "Seen Before");
}

TEST(DescribeTest, LiteralsRenderAsTheirValue) {
  rdf::TripleStore store;
  rdf::TermId lit = store.Intern(rdf::Term::StringLiteral("Hello"));
  store.Freeze();
  EXPECT_EQ(DisplayName(store, lit), "Hello");
}

TEST(DescribeTest, GeneratedEurostatUsesCuratedPredicateLabels) {
  auto ds = qb::Generate(qb::EurostatSpec(200));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(DisplayNameOfIri(*ds->store,
                             ds->spec.iri_base + "countryDestination"),
            "Country of Destination");
  EXPECT_EQ(DisplayNameOfIri(*ds->store, ds->spec.iri_base + "numApplicants"),
            "Number of Applicants");
  auto vsg = VirtualSchemaGraph::Build(*ds->store,
                                       ds->spec.observation_class);
  ASSERT_TRUE(vsg.ok());
  rdf::TextIndex text(*ds->store);
  engine::QueryEngine engine(*ds->store, kUncached);
  Reolap reolap(&*vsg, &text, engine);
  auto queries = reolap.Synthesize({"Germany"});
  ASSERT_TRUE(queries.ok());
  bool labeled_desc = false;
  for (const CandidateQuery& q : *queries) {
    if (q.description.find("Country of Destination") != std::string::npos) {
      labeled_desc = true;
    }
    EXPECT_NE(q.description.find("Number of Applicants"), std::string::npos);
  }
  EXPECT_TRUE(labeled_desc);
}

// --- similarity measure options ------------------------------------------------

class SimilarityMeasureTest
    : public ::testing::TestWithParam<SimilarityMeasure> {
 protected:
  void SetUp() override {
    store = re2xolap::testing::BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, re2xolap::testing::kObsClass);
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

TEST_P(SimilarityMeasureTest, ProducesAnchoredRefinement) {
  auto queries = reolap->Synthesize({"Syria"});
  ASSERT_TRUE(queries.ok());
  ASSERT_FALSE(queries->empty());
  ExploreState st = InitialState((*queries)[0]);
  auto dis = Disaggregate(*vsg, *store, st);
  const ExploreState* with_dest = nullptr;
  for (const ExploreState& d : dis) {
    if (d.extra_columns[0].find("countryDestination") != std::string::npos) {
      with_dest = &d;
    }
  }
  ASSERT_NE(with_dest, nullptr);
  auto table = RunUncached(*store, with_dest->query);
  ASSERT_TRUE(table.ok());
  SimilarityOptions opts;
  opts.k = 1;
  opts.measure = GetParam();
  auto refs = SimilaritySearch(*store, *with_dest, *table, opts);
  ASSERT_TRUE(refs.ok());
  ASSERT_FALSE(refs->empty());
  for (const ExploreState& r : *refs) {
    auto rt = RunUncached(*store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_GT(rt->row_count(), 0u);
    EXPECT_FALSE(ExampleRowIndexes(r, *rt).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, SimilarityMeasureTest,
                         ::testing::Values(SimilarityMeasure::kCosine,
                                           SimilarityMeasure::kEuclidean,
                                           SimilarityMeasure::kPearson));

TEST(SimilarityMeasureOrderTest, EuclideanPrefersCloserMagnitudes) {
  // Degenerate-free test directly on sparse vectors is internal; check via
  // results: with Syria (large values) vs China/Nigeria (small), Euclidean
  // should pick the origin whose per-destination totals are numerically
  // closest to the example's.
  auto store = re2xolap::testing::BuildFigure1Store();
  auto vsg = VirtualSchemaGraph::Build(*store, re2xolap::testing::kObsClass);
  ASSERT_TRUE(vsg.ok());
  rdf::TextIndex text(*store);
  engine::QueryEngine engine(*store, kUncached);
  Reolap reolap(&*vsg, &text, engine);
  auto queries = reolap.Synthesize({"China"});
  ASSERT_TRUE(queries.ok());
  ExploreState st = InitialState((*queries)[0]);
  auto dis = Disaggregate(*vsg, *store, st);
  const ExploreState* with_dest = nullptr;
  for (const ExploreState& d : dis) {
    if (d.extra_columns[0].find("countryDestination") != std::string::npos) {
      with_dest = &d;
    }
  }
  ASSERT_NE(with_dest, nullptr);
  auto table = RunUncached(*store, with_dest->query);
  ASSERT_TRUE(table.ok());
  SimilarityOptions opts;
  opts.k = 1;
  opts.measure = SimilarityMeasure::kEuclidean;
  auto refs = SimilaritySearch(*store, *with_dest, *table, opts);
  ASSERT_TRUE(refs.ok());
  ASSERT_FALSE(refs->empty());
  // China(DE)=80; Nigeria(DE)=60; Syria(DE)=903,(FR)=120. Euclidean picks
  // Nigeria as China's nearest neighbor.
  auto rt = RunUncached(*store, (*refs)[0].query);
  ASSERT_TRUE(rt.ok());
  bool has_nigeria = false, has_syria = false;
  int col = rt->ColumnIndex((*refs)[0].example_columns[0]);
  for (size_t i = 0; i < rt->row_count(); ++i) {
    std::string name = rt->CellToString(rt->at(i, col));
    has_nigeria |= name == "Nigeria";
    has_syria |= name == "Syria";
  }
  EXPECT_TRUE(has_nigeria);
  EXPECT_FALSE(has_syria);
}

}  // namespace
}  // namespace re2xolap::core
