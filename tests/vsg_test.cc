#include <array>
#include <chrono>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/virtual_schema_graph.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/ntriples.h"
#include "store/ingestor.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::kObsClass;

class VsgFigure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
  }
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
};

TEST_F(VsgFigure1Test, DiscoversDimensions) {
  // age, countryOrigin, countryDestination, refPeriod.
  EXPECT_EQ(vsg->dimension_count(), 4u);
}

TEST_F(VsgFigure1Test, DiscoversMeasure) {
  ASSERT_EQ(vsg->measure_count(), 1u);
  EXPECT_EQ(store->term(vsg->measure_predicates()[0]).value,
            "http://test/numApplicants");
}

TEST_F(VsgFigure1Test, DiscoversLevels) {
  // Levels: age, origin-country, dest-country, month, continent, year = 6.
  EXPECT_EQ(vsg->level_count(), 6u);
}

TEST_F(VsgFigure1Test, DiscoversHierarchyPaths) {
  // Paths: age; origin; origin/continent; dest; month; month/year = 6.
  EXPECT_EQ(vsg->level_paths().size(), 6u);
  size_t depth2 = 0;
  for (const LevelPath& p : vsg->level_paths()) {
    if (p.predicates.size() == 2) ++depth2;
  }
  EXPECT_EQ(depth2, 2u);  // origin->continent and month->year
}

TEST_F(VsgFigure1Test, MembersAttachedToLevels) {
  rdf::TermId syria = store->Lookup(rdf::Term::Iri("http://test/origin/syria"));
  ASSERT_NE(syria, rdf::kInvalidTermId);
  std::vector<int> nodes = vsg->NodesOfMember(syria);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_TRUE(vsg->IsMemberOf(syria, nodes[0]));
  EXPECT_EQ(vsg->node(nodes[0]).members.size(), 3u);  // Syria, China, Nigeria
}

TEST_F(VsgFigure1Test, TotalMembersCountsDistinctIris) {
  // 3 origins + 2 continents + 2 dests + 3 months + 2 years + 2 ages = 14.
  EXPECT_EQ(vsg->total_members(), 14u);
}

TEST_F(VsgFigure1Test, AttributePredicatesDiscovered) {
  rdf::TermId label =
      store->Lookup(rdf::Term::Iri(re2xolap::testing::kLabelIri));
  bool found = false;
  for (const VsgNode& n : vsg->nodes()) {
    if (n.is_root) continue;
    for (rdf::TermId p : n.attribute_predicates) {
      if (p == label) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(VsgFigure1Test, PathsToTargetsAreConsistent) {
  for (const LevelPath& p : vsg->level_paths()) {
    ASSERT_GE(p.target_node, 1);
    EXPECT_FALSE(p.predicates.empty());
    EXPECT_EQ(p.dimension_predicate(), p.predicates.front());
    // A path's target must be reachable: check membership is non-empty.
    EXPECT_FALSE(vsg->node(p.target_node).members.empty());
  }
}

TEST_F(VsgFigure1Test, HierarchyCount) {
  // Leaf paths: age; origin/continent; dest; month/year = 4.
  EXPECT_EQ(vsg->hierarchy_count(), 4u);
}

TEST_F(VsgFigure1Test, MemoryUsagePositive) {
  EXPECT_GT(vsg->MemoryUsage(), 0u);
}

TEST(VsgBuildTest, FailsOnUnknownClass) {
  auto store = BuildFigure1Store();
  auto r = VirtualSchemaGraph::Build(*store, "http://test/NoSuchClass");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(VsgBuildTest, StatsPopulated) {
  auto store = BuildFigure1Store();
  VsgBuildStats stats;
  auto r = VirtualSchemaGraph::Build(*store, kObsClass, {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.store_scans, 0u);
  EXPECT_GT(stats.members_visited, 0u);
  EXPECT_GE(stats.build_millis, 0.0);
}

TEST(VsgBuildTest, DepthCapStopsRecursion) {
  // A chain a -> b -> c -> d as hierarchy under one dimension.
  rdf::TripleStore store;
  using rdf::Term;
  Term type = Term::Iri(re2xolap::testing::kTypeIri);
  Term cls = Term::Iri("http://t/Obs");
  Term obs = Term::Iri("http://t/obs1");
  store.Add(obs, type, cls);
  store.Add(obs, Term::Iri("http://t/dim"), Term::Iri("http://t/a"));
  store.Add(obs, Term::Iri("http://t/m"), Term::IntegerLiteral(1));
  store.Add(Term::Iri("http://t/a"), Term::Iri("http://t/up"),
            Term::Iri("http://t/b"));
  store.Add(Term::Iri("http://t/b"), Term::Iri("http://t/up"),
            Term::Iri("http://t/c"));
  store.Add(Term::Iri("http://t/c"), Term::Iri("http://t/up"),
            Term::Iri("http://t/d"));
  store.Freeze();
  VsgOptions opts;
  opts.max_depth = 2;
  auto r = VirtualSchemaGraph::Build(store, "http://t/Obs", opts);
  ASSERT_TRUE(r.ok());
  // Depth 2 => levels a and b only.
  EXPECT_EQ(r->level_count(), 2u);
}

TEST(VsgBuildTest, HandlesHierarchyCycles) {
  // a -> b -> a cycle must not hang or blow up.
  rdf::TripleStore store;
  using rdf::Term;
  Term type = Term::Iri(re2xolap::testing::kTypeIri);
  Term cls = Term::Iri("http://t/Obs");
  for (int i = 0; i < 3; ++i) {
    Term obs = Term::Iri("http://t/obs" + std::to_string(i));
    store.Add(obs, type, cls);
    store.Add(obs, Term::Iri("http://t/dim"), Term::Iri("http://t/a"));
    store.Add(obs, Term::Iri("http://t/m"), Term::IntegerLiteral(i));
  }
  store.Add(Term::Iri("http://t/a"), Term::Iri("http://t/next"),
            Term::Iri("http://t/b"));
  store.Add(Term::Iri("http://t/b"), Term::Iri("http://t/next"),
            Term::Iri("http://t/a"));
  store.Freeze();
  auto r = VirtualSchemaGraph::Build(store, "http://t/Obs");
  ASSERT_TRUE(r.ok());
  // Paths must not revisit nodes: a and a->b only.
  EXPECT_EQ(r->level_paths().size(), 2u);
}

TEST(VsgBuildTest, PrettifyIriLocalName) {
  EXPECT_EQ(PrettifyIriLocalName("http://x/countryOrigin"), "Country Origin");
  EXPECT_EQ(PrettifyIriLocalName("http://x/in_continent"), "In Continent");
  EXPECT_EQ(PrettifyIriLocalName("http://x#numApplicants"), "Num Applicants");
  EXPECT_EQ(PrettifyIriLocalName("plain"), "Plain");
}

TEST(VsgBuildTest, FromPartsValidatesInput) {
  // Root must be first.
  VsgNode not_root;
  not_root.id = 0;
  EXPECT_FALSE(
      VirtualSchemaGraph::FromParts({not_root}, {}, {}, {}).ok());
  // Dense ids required.
  VsgNode root;
  root.id = 0;
  root.is_root = true;
  VsgNode stray;
  stray.id = 5;
  EXPECT_FALSE(
      VirtualSchemaGraph::FromParts({root, stray}, {}, {}, {}).ok());
  // Edge endpoint validation.
  VsgNode l1;
  l1.id = 1;
  EXPECT_FALSE(VirtualSchemaGraph::FromParts(
                   {root, l1}, {VsgEdge{0, 7, 3}}, {}, {})
                   .ok());
}

// --- against the synthetic datasets --------------------------------------------

TEST(VsgDatasetTest, EurostatShapeMatchesTable3) {
  auto ds = qb::Generate(qb::EurostatSpec(2000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto r = VirtualSchemaGraph::Build(*ds->store,
                                     ds->spec.observation_class);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->dimension_count(), 4u);
  EXPECT_EQ(r->measure_count(), 1u);
  EXPECT_EQ(r->level_count(), 10u);
  EXPECT_EQ(r->hierarchy_count(), 7u);
  // With few observations not every member is referenced; the spec's
  // total is the upper bound and most members should be discovered.
  EXPECT_LE(r->total_members(), 373u);
  EXPECT_GT(r->total_members(), 300u);
}

TEST(VsgDatasetTest, ProductionShape) {
  auto ds = qb::Generate(qb::ProductionSpec(5000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto r =
      VirtualSchemaGraph::Build(*ds->store, ds->spec.observation_class);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->dimension_count(), 7u);
  EXPECT_EQ(r->level_count(), 10u);
}


// --- equivalence with a per-observation reference crawl ----------------------

constexpr char kRefTypeIri[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

struct ReferenceGraph {
  std::vector<VsgNode> nodes;
  std::vector<VsgEdge> edges;
  std::vector<rdf::TermId> measures;
  std::vector<rdf::TermId> attrs;
};

// The schema crawl written the direct way: one Match() per observation and
// per level member, std::set accumulators, the same node-creation order
// (dimension predicates ascending, LIFO worklist, targets by ascending
// predicate) and the same member-set node identity. Build() must agree with
// it field by field.
ReferenceGraph ReferenceCrawl(const rdf::TripleStore& store,
                              const std::string& observation_class,
                              const VsgOptions& options) {
  rdf::TripleStore::ReadPin pin(store);
  ReferenceGraph g;
  const rdf::TermId cls = store.Lookup(rdf::Term::Iri(observation_class));
  const rdf::TermId type = store.Lookup(rdf::Term::Iri(kRefTypeIri));
  VsgNode root;
  root.id = 0;
  root.is_root = true;
  root.name = "Observation";
  g.nodes.push_back(root);

  std::map<rdf::TermId, std::set<rdf::TermId>> dim_members;
  std::set<rdf::TermId> measures, attrs;
  for (const rdf::EncodedTriple& typing :
       store.Match({rdf::kInvalidTermId, type, cls})) {
    for (const rdf::EncodedTriple& t :
         store.Match({typing.s, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
      if (t.p == type) continue;
      const rdf::TermView o = store.term(t.o);
      if (!o.is_literal()) {
        dim_members[t.p].insert(t.o);
      } else if (o.is_numeric_literal()) {
        measures.insert(t.p);
      } else {
        attrs.insert(t.p);
      }
    }
  }
  g.measures.assign(measures.begin(), measures.end());
  g.attrs.assign(attrs.begin(), attrs.end());

  std::vector<bool> expanded{true};
  auto find_or_create = [&](const std::set<rdf::TermId>& members,
                            rdf::TermId pred, bool* created) {
    std::vector<rdf::TermId> sorted(members.begin(), members.end());
    for (const VsgNode& n : g.nodes) {
      if (!n.is_root && n.members == sorted) {
        *created = false;
        return n.id;
      }
    }
    VsgNode node;
    node.id = static_cast<int>(g.nodes.size());
    node.name = PrettifyIriLocalName(store.term(pred).value);
    node.members = std::move(sorted);
    g.nodes.push_back(std::move(node));
    expanded.push_back(false);
    *created = true;
    return g.nodes.back().id;
  };
  std::vector<std::pair<int, size_t>> worklist;
  for (const auto& [pred, members] : dim_members) {
    bool created = false;
    int nid = find_or_create(members, pred, &created);
    g.edges.push_back(VsgEdge{0, nid, pred});
    if (created) worklist.emplace_back(nid, 1);
  }
  while (!worklist.empty()) {
    auto [nid, depth] = worklist.back();
    worklist.pop_back();
    if (expanded[nid]) continue;
    expanded[nid] = true;
    if (depth >= options.max_depth) continue;
    if (options.max_members_per_level > 0 &&
        g.nodes[nid].members.size() > options.max_members_per_level) {
      continue;
    }
    std::map<rdf::TermId, std::set<rdf::TermId>> targets;
    std::set<rdf::TermId> level_attrs;
    for (rdf::TermId m : g.nodes[nid].members) {
      for (const rdf::EncodedTriple& t :
           store.Match({m, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
        if (t.p == type) continue;
        if (store.term(t.o).is_literal()) {
          level_attrs.insert(t.p);
        } else {
          targets[t.p].insert(t.o);
        }
      }
    }
    g.nodes[nid].attribute_predicates.assign(level_attrs.begin(),
                                             level_attrs.end());
    for (const auto& [pred, members] : targets) {
      bool created = false;
      int target = find_or_create(members, pred, &created);
      bool dup = false;
      for (const VsgEdge& e : g.edges) {
        dup |= e.from == nid && e.to == target && e.predicate == pred;
      }
      if (!dup) g.edges.push_back(VsgEdge{nid, target, pred});
      if (created) worklist.emplace_back(target, depth + 1);
    }
  }
  return g;
}

void ExpectSameGraph(const VirtualSchemaGraph& got,
                     const ReferenceGraph& ref) {
  auto want_or = VirtualSchemaGraph::FromParts(ref.nodes, ref.edges,
                                               ref.measures, ref.attrs);
  ASSERT_TRUE(want_or.ok()) << want_or.status().ToString();
  const VirtualSchemaGraph& want = *want_or;
  ASSERT_EQ(got.nodes().size(), want.nodes().size());
  for (size_t i = 0; i < want.nodes().size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const VsgNode& a = got.node(static_cast<int>(i));
    const VsgNode& b = want.node(static_cast<int>(i));
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.is_root, b.is_root);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.attribute_predicates, b.attribute_predicates);
    EXPECT_EQ(got.out_edges(static_cast<int>(i)),
              want.out_edges(static_cast<int>(i)));
    for (rdf::TermId m : b.members) {
      EXPECT_EQ(got.NodesOfMember(m), want.NodesOfMember(m)) << m;
    }
  }
  ASSERT_EQ(got.edges().size(), want.edges().size());
  for (size_t i = 0; i < want.edges().size(); ++i) {
    EXPECT_EQ(got.edges()[i].from, want.edges()[i].from) << i;
    EXPECT_EQ(got.edges()[i].to, want.edges()[i].to) << i;
    EXPECT_EQ(got.edges()[i].predicate, want.edges()[i].predicate) << i;
  }
  EXPECT_EQ(got.measure_predicates(), want.measure_predicates());
  EXPECT_EQ(got.observation_attributes(), want.observation_attributes());
  ASSERT_EQ(got.level_paths().size(), want.level_paths().size());
  for (size_t i = 0; i < want.level_paths().size(); ++i) {
    EXPECT_EQ(got.level_paths()[i].predicates,
              want.level_paths()[i].predicates) << i;
    EXPECT_EQ(got.level_paths()[i].target_node,
              want.level_paths()[i].target_node) << i;
  }
  EXPECT_EQ(got.dimension_count(), want.dimension_count());
  EXPECT_EQ(got.hierarchy_count(), want.hierarchy_count());
  std::set<rdf::TermId> members;
  for (const VsgNode& n : ref.nodes) {
    if (!n.is_root) members.insert(n.members.begin(), n.members.end());
  }
  EXPECT_EQ(got.total_members(), members.size());
  EXPECT_EQ(want.total_members(), members.size());
}

using TermTriple = std::array<rdf::Term, 3>;

constexpr char kRandomObsClass[] = "http://r/Obs";

// A random statistical KG that exercises every classification corner:
//  - `mix` carries numeric literals, string literals and IRIs alike;
//  - `shared` is both an observation dimension and a hierarchy step;
//  - some observations are themselves members of a level (`self`), so
//    their measures and dimensions are crawled again as level triples;
//  - members include blank nodes, `up`/`up2` steps form diamonds and
//    cycles, and untyped or differently typed subjects use the
//    observation predicates too;
//  - every triple may appear twice.
// `scale` multiplies the observation and member counts.
std::vector<TermTriple> RandomKg(uint32_t seed, size_t scale = 1) {
  std::mt19937 rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  auto iri = [](const std::string& local) {
    return rdf::Term::Iri("http://r/" + local);
  };
  const size_t n_obs = (20 + pick(60)) * scale;
  const size_t n_members = (10 + pick(50)) * scale;
  auto member = [&](size_t i) {
    return i % 7 == 3 ? rdf::Term::Blank("b" + std::to_string(i))
                      : iri("m" + std::to_string(i));
  };
  auto obs = [&](size_t i) { return iri("obs" + std::to_string(i)); };
  const rdf::Term type = rdf::Term::Iri(kRefTypeIri);
  const rdf::Term cls = rdf::Term::Iri(kRandomObsClass);
  std::vector<TermTriple> out;
  auto add = [&](rdf::Term s, rdf::Term p, rdf::Term o) {
    out.push_back({s, p, o});
    if (pick(10) == 0) out.push_back({s, p, o});
  };
  for (size_t i = 0; i < n_obs; ++i) {
    const bool typed = pick(10) != 0;  // untyped ones are decoys
    if (typed) add(obs(i), type, cls);
    if (!typed && pick(2) == 0) add(obs(i), type, iri("Other"));
    for (int d = 0; d < 3; ++d) {
      if (pick(8) == 0) continue;
      // Dimension d draws from a band of the member pool.
      add(obs(i), iri("dim" + std::to_string(d)),
          member((d * n_members / 3 + pick(n_members / 2 + 1)) % n_members));
    }
    if (pick(4) != 0) {
      add(obs(i), iri("measure"),
          pick(3) == 0 ? rdf::Term::DoubleLiteral(0.5 * pick(100))
                       : rdf::Term::IntegerLiteral(pick(1000)));
    }
    if (pick(3) == 0) {
      add(obs(i), iri("attr"),
          rdf::Term::StringLiteral("a" + std::to_string(pick(4))));
    }
    switch (pick(4)) {
      case 0:
        add(obs(i), iri("mix"), rdf::Term::IntegerLiteral(pick(9)));
        break;
      case 1:
        add(obs(i), iri("mix"), rdf::Term::StringLiteral("x"));
        break;
      case 2:
        add(obs(i), iri("mix"), member(pick(n_members)));
        break;
      default:
        break;
    }
    if (pick(2) == 0) add(obs(i), iri("shared"), member(pick(n_members)));
    if (pick(6) == 0) add(obs(i), iri("self"), obs(pick(n_obs)));
  }
  for (size_t i = 0; i < n_members; ++i) {
    if (pick(3) != 0) add(member(i), iri("up"), member(pick(n_members)));
    if (pick(4) == 0) add(member(i), iri("up2"), member(pick(n_members)));
    if (pick(5) == 0) add(member(i), iri("shared"), member(pick(n_members)));
    if (pick(2) == 0) {
      add(member(i), rdf::Term::Iri(re2xolap::testing::kLabelIri),
          rdf::Term::StringLiteral("m" + std::to_string(i)));
    }
    if (pick(6) == 0) add(member(i), type, iri("Member"));
    if (pick(8) == 0) add(member(i), iri("dim0"), member(pick(n_members)));
    if (pick(9) == 0) {
      add(member(i), iri("measure"), rdf::Term::IntegerLiteral(pick(5)));
    }
  }
  // Diamonds: two members that step to the same parent by different
  // predicates, and a member-level cycle through `up`.
  add(member(0), iri("up"), member(1));
  add(member(2), iri("up2"), member(1));
  add(member(1), iri("up"), member(0));
  return out;
}

std::unique_ptr<rdf::TripleStore> StoreOf(const std::vector<TermTriple>& kg) {
  auto store = std::make_unique<rdf::TripleStore>();
  for (const TermTriple& t : kg) store->Add(t[0], t[1], t[2]);
  store->Freeze();
  return store;
}

std::vector<VsgOptions> CrawlOptions() {
  std::vector<VsgOptions> out(5);
  out[1].max_depth = 1;
  out[2].max_depth = 2;
  out[3].max_members_per_level = 5;
  out[4].max_depth = 3;
  out[4].max_members_per_level = 12;
  return out;
}

void ExpectBuildMatchesReference(const rdf::TripleStore& store,
                                 const std::string& cls) {
  for (const VsgOptions& options : CrawlOptions()) {
    SCOPED_TRACE("max_depth=" + std::to_string(options.max_depth) +
                 " max_members=" +
                 std::to_string(options.max_members_per_level));
    auto built = VirtualSchemaGraph::Build(store, cls, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ExpectSameGraph(*built, ReferenceCrawl(store, cls, options));
  }
}

TEST(VsgEquivalenceTest, BuildMatchesReferenceCrawlOnRandomGraphs) {
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto store = StoreOf(RandomKg(seed));
    ExpectBuildMatchesReference(*store, kRandomObsClass);
  }
  // Larger graphs: ids past 128 and levels whose members straddle a
  // 64-bit word of the crawl's member bitmaps.
  for (uint32_t seed = 41; seed <= 44; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " x4");
    auto store = StoreOf(RandomKg(seed, 4));
    ASSERT_GT(store->dictionary().size(), 128u);
    auto built = VirtualSchemaGraph::Build(*store, kRandomObsClass);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    bool straddles = false;
    for (const VsgNode& n : built->nodes()) {
      if (n.is_root || n.members.empty()) continue;
      straddles |= n.members.front() / 64 != n.members.back() / 64;
    }
    EXPECT_TRUE(straddles);
    ExpectBuildMatchesReference(*store, kRandomObsClass);
  }
}

TEST(VsgEquivalenceTest, BuildMatchesReferenceCrawlOnFigure1) {
  auto store = BuildFigure1Store();
  ExpectBuildMatchesReference(*store, kObsClass);
}

// Observations that join the cube later: every fourth typed observation
// is cloned, with one dimension member swapped for a fresh member that
// copies the original member's triples (minus its typing), and Update()
// merges the fresh members into their levels. The member count equals a
// rebuild's, and so does every member's level list wherever the rebuild
// keeps the same levels.
TEST(VsgEquivalenceTest, UpdateMatchesRebuildOnRandomGraphs) {
  const rdf::Term type = rdf::Term::Iri(kRefTypeIri);
  const rdf::Term cls = rdf::Term::Iri(kRandomObsClass);
  size_t updated = 0;
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<TermTriple> kg = RandomKg(seed);
    auto store = StoreOf(kg);
    auto built = VirtualSchemaGraph::Build(*store, kRandomObsClass);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    VirtualSchemaGraph graph = std::move(built).value();
    const size_t members_before = graph.total_members();

    std::vector<rdf::Term> observations;
    for (const TermTriple& t : kg) {
      if (t[1] == type && t[2] == cls) observations.push_back(t[0]);
    }
    size_t fresh = 0;
    for (size_t i = 0; i < observations.size(); i += 4) {
      const rdf::Term clone =
          rdf::Term::Iri("http://r/clone" + std::to_string(i));
      bool swapped = false;
      for (const TermTriple& t : kg) {
        if (t[0] != observations[i]) continue;
        const bool dim = t[1].value.rfind("http://r/dim", 0) == 0;
        if (!dim || swapped) {
          store->Add(clone, t[1], t[2]);
          continue;
        }
        const rdf::Term member =
            rdf::Term::Iri("http://r/fresh" + std::to_string(fresh++));
        for (const TermTriple& u : kg) {
          if (u[0] == t[2] && u[1] != type) store->Add(member, u[1], u[2]);
        }
        store->Add(clone, t[1], member);
        swapped = true;
      }
    }
    store->Freeze();
    ASSERT_TRUE(graph.Update(*store, kRandomObsClass).ok());
    auto rebuilt = VirtualSchemaGraph::Build(*store, kRandomObsClass);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(graph.total_members(), rebuilt->total_members());
    updated += graph.total_members() > members_before;
    bool same_levels = graph.nodes().size() == rebuilt->nodes().size();
    for (size_t n = 0; same_levels && n < graph.nodes().size(); ++n) {
      same_levels = graph.nodes()[n].members == rebuilt->nodes()[n].members;
    }
    for (const VsgNode& n : rebuilt->nodes()) {
      for (rdf::TermId m : n.members) {
        EXPECT_FALSE(graph.NodesOfMember(m).empty()) << m;
        if (same_levels) {
          EXPECT_EQ(graph.NodesOfMember(m), rebuilt->NodesOfMember(m)) << m;
        }
      }
    }
  }
  // Most seeds add members (a clone may find no dimension to swap).
  EXPECT_GE(updated, 30u);
}

// A live store reads through the merged base-plus-delta view: Build must
// see inserted triples and miss deleted ones exactly as Match() does.
TEST(VsgEquivalenceTest, BuildMatchesReferenceCrawlOnLiveStore) {
  util::FailpointRegistry::Global().DisarmAll();
  for (uint32_t seed = 101; seed <= 110; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<TermTriple> kg = RandomKg(seed);
    const size_t base_size = kg.size() * 3 / 4;
    auto store = StoreOf({kg.begin(), kg.begin() + base_size});
    store->EnterLive();
    util::ThreadPool pool(1);
    store::Ingestor ingestor(store.get(), &pool);
    auto text = [](auto first, auto last) {
      std::string s;
      for (auto it = first; it != last; ++it) {
        s += rdf::ToNTriples((*it)[0]) + " " + rdf::ToNTriples((*it)[1]) +
             " " + rdf::ToNTriples((*it)[2]) + " .\n";
      }
      return s;
    };
    auto inserted = ingestor.IngestText(text(kg.begin() + base_size, kg.end()),
                                        store::IngestOp::kInsert, nullptr);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    std::vector<TermTriple> doomed;
    for (size_t i = seed % 5; i < kg.size(); i += 5) doomed.push_back(kg[i]);
    auto deleted = ingestor.IngestText(text(doomed.begin(), doomed.end()),
                                       store::IngestOp::kDelete, nullptr);
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    ASSERT_GE(store->chain_depth(), 1u);
    ExpectBuildMatchesReference(*store, kRandomObsClass);
  }
}

// XXH64 over the graph's fields: nodes (id, root flag, name, members,
// attribute predicates), edges, measures, observation attributes and level
// paths. The footprint MemoryUsage() reports is left out: it measures the
// representation, not the graph.
uint64_t GraphDigest(const VirtualSchemaGraph& g) {
  std::string bytes;
  auto add = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  auto add_ids = [&](const std::vector<rdf::TermId>& ids) {
    add(ids.size());
    for (rdf::TermId id : ids) add(id);
  };
  add(g.nodes().size());
  for (const VsgNode& n : g.nodes()) {
    add(static_cast<uint64_t>(n.id));
    add(n.is_root);
    add(n.name.size());
    bytes += n.name;
    add_ids(n.members);
    add_ids(n.attribute_predicates);
  }
  add(g.edges().size());
  for (const VsgEdge& e : g.edges()) {
    add(static_cast<uint64_t>(e.from));
    add(static_cast<uint64_t>(e.to));
    add(e.predicate);
  }
  add_ids(g.measure_predicates());
  add_ids(g.observation_attributes());
  add(g.level_paths().size());
  for (const LevelPath& p : g.level_paths()) {
    add_ids(p.predicates);
    add(static_cast<uint64_t>(p.target_node));
  }
  return util::Xxh64(bytes.data(), bytes.size());
}

// Build on the generated datasets is pinned to digests of the graphs the
// per-observation crawl produced.
TEST(VsgEquivalenceTest, GeneratedDatasetGraphsMatchRecordedDigests) {
  struct Case {
    const char* name;
    qb::DatasetSpec spec;
    uint64_t want;
  };
  const Case cases[] = {
      {"eurostat-3000", qb::EurostatSpec(3000), 6426783247046541283ull},
      {"production-3000", qb::ProductionSpec(3000), 17619003996911487426ull},
      {"dbpedia-1000", qb::DbpediaSpec(1000), 4538780894495797796ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto ds = qb::Generate(c.spec);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto g = VirtualSchemaGraph::Build(*ds->store, c.spec.observation_class);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_EQ(GraphDigest(*g), c.want);
  }
}

// --- guardrails --------------------------------------------------------------

constexpr char kGuardObsClass[] = "http://g/Obs";

// 100 observations with three more triples each: the rdf:type run stays
// within one guard poll interval, the predicate sweeps after it do not.
std::unique_ptr<rdf::TripleStore> ManyObservationsStore() {
  auto store = std::make_unique<rdf::TripleStore>();
  const rdf::Term type = rdf::Term::Iri(kRefTypeIri);
  const rdf::Term cls = rdf::Term::Iri(kGuardObsClass);
  for (int i = 0; i < 100; ++i) {
    rdf::Term obs = rdf::Term::Iri("http://g/obs" + std::to_string(i));
    store->Add(obs, type, cls);
    store->Add(obs, rdf::Term::Iri("http://g/dim"),
               rdf::Term::Iri("http://g/m" + std::to_string(i % 10)));
    store->Add(obs, rdf::Term::Iri("http://g/measure"),
               rdf::Term::IntegerLiteral(i));
    store->Add(obs, rdf::Term::Iri("http://g/note"),
               rdf::Term::StringLiteral("n" + std::to_string(i)));
  }
  store->Freeze();
  return store;
}

// One observation reaching 100 members, chained m_i -> m_i+1 by `next`:
// the sweep covers about 200 triples, but level expansion visits eight
// levels of 100 members each.
std::unique_ptr<rdf::TripleStore> DeepLevelsStore() {
  auto store = std::make_unique<rdf::TripleStore>();
  auto m = [](int i) {
    return rdf::Term::Iri("http://g/m" + std::to_string(i));
  };
  const rdf::Term obs = rdf::Term::Iri("http://g/obs");
  const rdf::Term dim = rdf::Term::Iri("http://g/dim");
  const rdf::Term next = rdf::Term::Iri("http://g/next");
  store->Add(obs, rdf::Term::Iri(kRefTypeIri), rdf::Term::Iri(kGuardObsClass));
  for (int i = 0; i < 100; ++i) store->Add(obs, dim, m(i));
  for (int i = 0; i < 110; ++i) store->Add(m(i), next, m(i + 1));
  store->Freeze();
  return store;
}

// A tripped guard aborts Build with its status. `in_sweep` says which pass
// must notice: the observation sweep scans the rdf:type run plus one run
// per other predicate, so an abort while sweeping predicates leaves
// store_scans above 1 and at most that many, and an expansion abort
// leaves it above.
void ExpectGuardAborts(const rdf::TripleStore& store, bool in_sweep) {
  const uint64_t sweep_scans = store.AllPredicates().size();
  util::CancellationToken token;
  token.Cancel();
  const util::ExecGuard cancelled(util::ExecGuard::Limits{}, &token);
  const util::ExecGuard expired = util::ExecGuard::WithDeadlineAt(
      1, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  const std::pair<const util::ExecGuard*, util::StatusCode> cases[] = {
      {&expired, util::StatusCode::kTimeout},
      {&cancelled, util::StatusCode::kCancelled},
  };
  for (const auto& [guard, code] : cases) {
    VsgOptions options;
    options.guard = guard;
    VsgBuildStats stats;
    auto r = VirtualSchemaGraph::Build(store, kGuardObsClass, options, &stats);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code) << r.status().ToString();
    if (in_sweep) {
      EXPECT_GT(stats.store_scans, 1u);
      EXPECT_LE(stats.store_scans, sweep_scans);
    } else {
      EXPECT_GT(stats.store_scans, sweep_scans);
    }
  }
  VsgBuildStats stats;
  auto unguarded = VirtualSchemaGraph::Build(store, kGuardObsClass, {}, &stats);
  ASSERT_TRUE(unguarded.ok()) << unguarded.status().ToString();
  EXPECT_GT(stats.store_scans, sweep_scans);
}

TEST(VsgGuardTest, TrippedGuardAbortsObservationSweep) {
  ExpectGuardAborts(*ManyObservationsStore(), /*in_sweep=*/true);
}

TEST(VsgGuardTest, TrippedGuardAbortsLevelExpansion) {
  auto store = DeepLevelsStore();
  VsgBuildStats stats;
  auto full = VirtualSchemaGraph::Build(*store, kGuardObsClass, {}, &stats);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->level_count(), 7u);
  ExpectGuardAborts(*store, /*in_sweep=*/false);
}

}  // namespace
}  // namespace re2xolap::core
