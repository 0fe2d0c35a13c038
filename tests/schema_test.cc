// Tests for incremental virtual-graph updates (VirtualSchemaGraph::Update).

#include <gtest/gtest.h>

#include "core/reolap.h"
#include "core/virtual_schema_graph.h"
#include "sparql/executor.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::RunUncached;
using re2xolap::testing::kObsClass;
using re2xolap::testing::kUncached;

// --- Incremental VSG update ------------------------------------------------------

class VsgUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok());
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
  }

  // Appends a new observation with a brand-new origin country "Mali"
  // (continent Africa) and refreezes.
  void AppendMaliObservation() {
    using rdf::Term;
    auto iri = [](const std::string& l) {
      return Term::Iri("http://test/" + l);
    };
    store->Add(iri("origin/mali"), Term::Iri(re2xolap::testing::kLabelIri),
               Term::StringLiteral("Mali"));
    store->Add(iri("origin/mali"), iri("inContinent"),
               iri("continent/africa"));
    Term obs = iri("obs/99");
    store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri), iri("Observation"));
    store->Add(obs, iri("countryOrigin"), iri("origin/mali"));
    store->Add(obs, iri("countryDestination"), iri("dest/germany"));
    store->Add(obs, iri("refPeriod"), iri("month/2015-01"));
    store->Add(obs, iri("age"), iri("age/18-34"));
    store->Add(obs, iri("numApplicants"), Term::IntegerLiteral(42));
    store->Freeze();
  }

  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
};

TEST_F(VsgUpdateTest, NewMemberMergedIntoExistingLevel) {
  size_t members_before = vsg->total_members();
  size_t levels_before = vsg->level_count();
  AppendMaliObservation();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  EXPECT_EQ(vsg->total_members(), members_before + 1);
  EXPECT_EQ(vsg->level_count(), levels_before);  // no new levels
  rdf::TermId mali = store->Lookup(rdf::Term::Iri("http://test/origin/mali"));
  ASSERT_NE(mali, rdf::kInvalidTermId);
  EXPECT_EQ(vsg->NodesOfMember(mali).size(), 1u);
}

TEST_F(VsgUpdateTest, UpdateMatchesFullRebuild) {
  AppendMaliObservation();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  auto rebuilt = VirtualSchemaGraph::Build(*store, kObsClass);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(vsg->total_members(), rebuilt->total_members());
  EXPECT_EQ(vsg->level_count(), rebuilt->level_count());
  EXPECT_EQ(vsg->level_paths().size(), rebuilt->level_paths().size());
  EXPECT_EQ(vsg->dimension_count(), rebuilt->dimension_count());
}

TEST_F(VsgUpdateTest, UpdatedGraphServesSynthesis) {
  AppendMaliObservation();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  rdf::TextIndex text(*store);
  engine::QueryEngine engine(*store, kUncached);
  Reolap reolap(vsg.get(), &text, engine);
  auto queries = reolap.Synthesize({"Mali"});
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 1u);
  auto table = RunUncached(*store, (*queries)[0].query);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table->row_count(), 0u);
}

TEST_F(VsgUpdateTest, SchemaChangeNewDimensionRejected) {
  using rdf::Term;
  Term obs = Term::Iri("http://test/obs/100");
  store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri),
             Term::Iri(kObsClass));
  store->Add(obs, Term::Iri("http://test/brandNewDim"),
             Term::Iri("http://test/whatever/1"));
  store->Add(obs, Term::Iri("http://test/numApplicants"),
             Term::IntegerLiteral(1));
  store->Freeze();
  util::Status st = vsg->Update(*store, kObsClass);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("brandNewDim"), std::string::npos);
}

TEST_F(VsgUpdateTest, SchemaChangeNewHierarchyStepRejected) {
  using rdf::Term;
  // New member whose hierarchy uses an unknown predicate.
  auto iri = [](const std::string& l) { return Term::Iri("http://test/" + l); };
  store->Add(iri("origin/peru"), iri("inTradeBloc"), iri("bloc/andes"));
  Term obs = iri("obs/101");
  store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri), iri("Observation"));
  store->Add(obs, iri("countryOrigin"), iri("origin/peru"));
  store->Add(obs, iri("numApplicants"), Term::IntegerLiteral(5));
  store->Freeze();
  util::Status st = vsg->Update(*store, kObsClass);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(VsgUpdateTest, NoOpUpdateKeepsEverything) {
  size_t members = vsg->total_members();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  EXPECT_EQ(vsg->total_members(), members);
}

}  // namespace
}  // namespace re2xolap::core

namespace re2xolap::core {
namespace {

TEST(VsgDeltaUpdateTest, DeltaHintEquivalentToFullRescan) {
  using rdf::Term;
  auto store = re2xolap::testing::BuildFigure1Store();
  auto built = VirtualSchemaGraph::Build(
      *store, re2xolap::testing::kObsClass);
  ASSERT_TRUE(built.ok());
  VirtualSchemaGraph with_hint = *built;
  VirtualSchemaGraph without_hint = *built;

  auto iri = [](const std::string& l) { return Term::Iri("http://test/" + l); };
  store->Add(iri("origin/chad"), Term::Iri(re2xolap::testing::kLabelIri),
             Term::StringLiteral("Chad"));
  store->Add(iri("origin/chad"), iri("inContinent"), iri("continent/africa"));
  Term obs = iri("obs/delta");
  store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri), iri("Observation"));
  store->Add(obs, iri("countryOrigin"), iri("origin/chad"));
  store->Add(obs, iri("numApplicants"), Term::IntegerLiteral(3));
  store->Freeze();

  std::vector<rdf::TermId> delta = {store->Lookup(iri("obs/delta"))};
  ASSERT_TRUE(with_hint
                  .Update(*store, re2xolap::testing::kObsClass, &delta)
                  .ok());
  ASSERT_TRUE(
      without_hint.Update(*store, re2xolap::testing::kObsClass).ok());
  EXPECT_EQ(with_hint.total_members(), without_hint.total_members());
  EXPECT_EQ(with_hint.total_members(), built->total_members() + 1);
}

}  // namespace
}  // namespace re2xolap::core
