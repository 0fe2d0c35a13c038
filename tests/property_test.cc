// Property-based (parameterized) tests: invariants that must hold for
// randomly generated stores, queries, and exploration states across seeds.

#include <algorithm>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/exref.h"
#include "core/reolap.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/ntriples.h"
#include "rdf/text_index.h"
#include "sparql/executor.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace re2xolap {
namespace {

// --- TripleStore: index consistency across all pattern shapes ------------------

class StorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorePropertyTest, MatchAgreesWithBruteForce) {
  util::Rng rng(GetParam());
  rdf::TripleStore store;
  // Random small graph: ids from small pools to force duplicates/joins.
  std::vector<rdf::TermId> subjects, predicates, objects;
  for (int i = 0; i < 12; ++i) {
    subjects.push_back(
        store.Intern(rdf::Term::Iri("s" + std::to_string(i))));
  }
  for (int i = 0; i < 5; ++i) {
    predicates.push_back(
        store.Intern(rdf::Term::Iri("p" + std::to_string(i))));
  }
  for (int i = 0; i < 8; ++i) {
    objects.push_back(store.Intern(rdf::Term::Iri("o" + std::to_string(i))));
  }
  std::vector<rdf::EncodedTriple> truth;
  for (int i = 0; i < 200; ++i) {
    rdf::EncodedTriple t{subjects[rng.Uniform(subjects.size())],
                         predicates[rng.Uniform(predicates.size())],
                         objects[rng.Uniform(objects.size())]};
    truth.push_back(t);
    store.AddEncoded(t);
  }
  store.Freeze();
  // Deduplicate ground truth like Freeze does.
  std::sort(truth.begin(), truth.end(),
            [](const rdf::EncodedTriple& a, const rdf::EncodedTriple& b) {
              return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
            });
  truth.erase(std::unique(truth.begin(), truth.end()), truth.end());

  // Every pattern shape over random constants must agree with a filter
  // over the ground truth.
  for (int probe = 0; probe < 100; ++probe) {
    rdf::TriplePattern q;
    if (rng.Bernoulli(0.5)) q.s = subjects[rng.Uniform(subjects.size())];
    if (rng.Bernoulli(0.5)) q.p = predicates[rng.Uniform(predicates.size())];
    if (rng.Bernoulli(0.5)) q.o = objects[rng.Uniform(objects.size())];
    size_t expected = 0;
    for (const rdf::EncodedTriple& t : truth) {
      if (q.Matches(t)) ++expected;
    }
    auto span = store.Match(q);
    ASSERT_EQ(span.size(), expected)
        << "pattern (" << q.s << "," << q.p << "," << q.o << ")";
    for (const rdf::EncodedTriple& t : span) {
      EXPECT_TRUE(q.Matches(t));
    }
  }
}

TEST_P(StorePropertyTest, PredicateStatsSumToStoreSize) {
  util::Rng rng(GetParam() * 7919);
  rdf::TripleStore store;
  for (int i = 0; i < 150; ++i) {
    store.Add(rdf::Term::Iri("s" + std::to_string(rng.Uniform(20))),
              rdf::Term::Iri("p" + std::to_string(rng.Uniform(6))),
              rdf::Term::Iri("o" + std::to_string(rng.Uniform(15))));
  }
  store.Freeze();
  uint64_t total = 0;
  for (rdf::TermId p : store.AllPredicates()) {
    rdf::PredicateStats st = store.predicate_stats(p);
    total += st.triple_count;
    EXPECT_LE(st.distinct_subjects, st.triple_count);
    EXPECT_LE(st.distinct_objects, st.triple_count);
    EXPECT_GT(st.triple_count, 0u);
  }
  EXPECT_EQ(total, store.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- SPARQL executor: plan invariance and modifier algebra ----------------------

class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto ds = qb::Generate(qb::EurostatSpec(600, GetParam()));
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(ds).value();
  }
  qb::GeneratedDataset dataset_;
};

TEST_P(ExecutorPropertyTest, JoinReorderingDoesNotChangeResults) {
  const std::string queries[] = {
      R"(SELECT ?dest (SUM(?v) AS ?t) WHERE {
           ?o <http://example.org/eurostat/countryDestination> ?dest .
           ?o <http://example.org/eurostat/numApplicants> ?v .
         } GROUP BY ?dest)",
      R"(SELECT ?cont (COUNT(*) AS ?n) WHERE {
           ?c <http://example.org/eurostat/inContinent> ?cont .
           ?o <http://example.org/eurostat/countryOrigin> ?c .
           ?o <http://example.org/eurostat/numApplicants> ?v .
           FILTER (?v > 100)
         } GROUP BY ?cont)",
      R"(SELECT ?y ?q WHERE {
           ?m <http://example.org/eurostat/inYear> ?y .
           ?m <http://example.org/eurostat/inQuarter> ?q .
         } ORDER BY ?y ?q LIMIT 30)",
  };
  for (const std::string& q : queries) {
    sparql::ExecOptions with, without;
    without.plan.use_join_reordering = false;
    auto a = sparql::ExecuteText(*dataset_.store, q, with);
    auto b = sparql::ExecuteText(*dataset_.store, q, without);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->row_count(), b->row_count()) << q;
  }
}

TEST_P(ExecutorPropertyTest, SumDecomposesOverGroups) {
  // SUM over all observations equals the sum of per-group SUMs.
  auto total = sparql::ExecuteText(
      *dataset_.store,
      "SELECT (SUM(?v) AS ?t) WHERE { ?o "
      "<http://example.org/eurostat/numApplicants> ?v }");
  auto grouped = sparql::ExecuteText(
      *dataset_.store,
      "SELECT ?d (SUM(?v) AS ?t) WHERE { ?o "
      "<http://example.org/eurostat/countryDestination> ?d . ?o "
      "<http://example.org/eurostat/numApplicants> ?v } GROUP BY ?d");
  ASSERT_TRUE(total.ok());
  ASSERT_TRUE(grouped.ok());
  double sum_groups = 0;
  int tc = grouped->ColumnIndex("t");
  for (size_t r = 0; r < grouped->row_count(); ++r) {
    sum_groups += grouped->NumericValue(grouped->at(r, tc));
  }
  EXPECT_DOUBLE_EQ(sum_groups,
                   total->NumericValue(total->at(0, total->ColumnIndex("t"))));
}

TEST_P(ExecutorPropertyTest, MinMaxBracketAvg) {
  auto r = sparql::ExecuteText(
      *dataset_.store,
      "SELECT ?d (MIN(?v) AS ?lo) (AVG(?v) AS ?mid) (MAX(?v) AS ?hi) WHERE "
      "{ ?o <http://example.org/eurostat/age> ?d . ?o "
      "<http://example.org/eurostat/numApplicants> ?v } GROUP BY ?d");
  ASSERT_TRUE(r.ok());
  int lo = r->ColumnIndex("lo"), mid = r->ColumnIndex("mid"),
      hi = r->ColumnIndex("hi");
  ASSERT_GT(r->row_count(), 0u);
  for (size_t i = 0; i < r->row_count(); ++i) {
    EXPECT_LE(r->NumericValue(r->at(i, lo)), r->NumericValue(r->at(i, mid)));
    EXPECT_LE(r->NumericValue(r->at(i, mid)), r->NumericValue(r->at(i, hi)));
  }
}

TEST_P(ExecutorPropertyTest, LimitOffsetPartitionsResults) {
  const std::string base =
      "SELECT ?o WHERE { ?o a "
      "<http://purl.org/linked-data/cube#Observation> } ";
  auto all = sparql::ExecuteText(*dataset_.store, base);
  ASSERT_TRUE(all.ok());
  size_t n = all->row_count();
  size_t covered = 0;
  for (size_t off = 0; off < n; off += 97) {
    auto page = sparql::ExecuteText(
        *dataset_.store,
        base + "LIMIT 97 OFFSET " + std::to_string(off));
    ASSERT_TRUE(page.ok());
    covered += page->row_count();
  }
  EXPECT_EQ(covered, n);
}

TEST_P(ExecutorPropertyTest, HavingNeverIncreasesRows) {
  const std::string q =
      "SELECT ?d (SUM(?v) AS ?t) WHERE { ?o "
      "<http://example.org/eurostat/countryOrigin> ?d . ?o "
      "<http://example.org/eurostat/numApplicants> ?v } GROUP BY ?d";
  auto full = sparql::ExecuteText(*dataset_.store, q);
  ASSERT_TRUE(full.ok());
  for (const char* cond : {"HAVING (?t > 1000)", "HAVING (?t <= 1000)"}) {
    auto filtered =
        sparql::ExecuteText(*dataset_.store, q + " " + cond);
    ASSERT_TRUE(filtered.ok());
    EXPECT_LE(filtered->row_count(), full->row_count());
  }
  // The two complementary HAVINGs partition the groups.
  auto gt = sparql::ExecuteText(*dataset_.store, q + " HAVING (?t > 1000)");
  auto le = sparql::ExecuteText(*dataset_.store, q + " HAVING (?t <= 1000)");
  ASSERT_TRUE(gt.ok());
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(gt->row_count() + le->row_count(), full->row_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// --- ReOLAP + refinements: the paper's formal guarantees across seeds ------------

struct ReolapCase {
  uint64_t seed;
  const char* v0;
  const char* v1;  // nullptr = size-1 input
};

// Prints the case by value. Without it gtest dumps the struct's raw bytes,
// pointers included, so the test names ctest discovers change with every
// build's address layout.
void PrintTo(const ReolapCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " <" << c.v0;
  if (c.v1) *os << ", " << c.v1;
  *os << ">";
}

class ReolapPropertyTest : public ::testing::TestWithParam<ReolapCase> {};

TEST_P(ReolapPropertyTest, SynthesisGuarantees) {
  const ReolapCase& c = GetParam();
  auto ds = qb::Generate(qb::EurostatSpec(3000, c.seed));
  ASSERT_TRUE(ds.ok());
  auto vsg = core::VirtualSchemaGraph::Build(*ds->store,
                                             ds->spec.observation_class);
  ASSERT_TRUE(vsg.ok());
  rdf::TextIndex text(*ds->store);
  core::Reolap reolap(ds->store.get(), &*vsg, &text);

  std::vector<std::string> tuple = {c.v0};
  if (c.v1) tuple.push_back(c.v1);
  auto queries = reolap.Synthesize(tuple);
  ASSERT_TRUE(queries.ok());
  for (const core::CandidateQuery& q : *queries) {
    // Minimality: |group columns| == |example| (Problem 1's constraint
    // D(Q(G)) = D(T_E)).
    EXPECT_EQ(q.group_columns.size(), tuple.size());
    // Correctness: non-empty result subsuming the example.
    auto table = sparql::Execute(*ds->store, q.query);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_GT(table->row_count(), 0u) << q.description;
    core::ExploreState st = core::InitialState(q);
    EXPECT_FALSE(core::ExampleRowIndexes(st, *table).empty())
        << q.description;
    // Distinct dimensions within one combination.
    std::set<rdf::TermId> dims;
    for (const core::Interpretation& in : q.interpretations) {
      EXPECT_TRUE(dims.insert(in.path->dimension_predicate()).second);
    }
  }
}

TEST_P(ReolapPropertyTest, RefinementGuarantees) {
  const ReolapCase& c = GetParam();
  auto ds = qb::Generate(qb::EurostatSpec(3000, c.seed));
  ASSERT_TRUE(ds.ok());
  auto vsg = core::VirtualSchemaGraph::Build(*ds->store,
                                             ds->spec.observation_class);
  ASSERT_TRUE(vsg.ok());
  rdf::TextIndex text(*ds->store);
  core::Reolap reolap(ds->store.get(), &*vsg, &text);

  std::vector<std::string> tuple = {c.v0};
  if (c.v1) tuple.push_back(c.v1);
  auto queries = reolap.Synthesize(tuple);
  ASSERT_TRUE(queries.ok());
  if (queries->empty()) GTEST_SKIP() << "no candidate for this tuple";
  core::ExploreState st = core::InitialState((*queries)[0]);
  auto table = sparql::Execute(*ds->store, st.query);
  ASSERT_TRUE(table.ok());

  // Problem 2a: every disaggregation adds exactly one dimension and keeps
  // the example subsumed.
  for (const core::ExploreState& r :
       core::Disaggregate(*vsg, *ds->store, st)) {
    auto rt = sparql::Execute(*ds->store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->column_count(), table->column_count() + 1);
    EXPECT_FALSE(core::ExampleRowIndexes(r, *rt).empty())
        << r.description;
  }

  // Problem 2b: strict subsets, same dimensions, example kept.
  auto topk = core::SubsetTopK(*ds->store, st, *table);
  ASSERT_TRUE(topk.ok());
  for (const core::ExploreState& r : *topk) {
    auto rt = sparql::Execute(*ds->store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_LT(rt->row_count(), table->row_count()) << r.description;
    EXPECT_EQ(rt->column_count(), table->column_count());
    EXPECT_FALSE(core::ExampleRowIndexes(r, *rt).empty()) << r.description;
  }
  auto perc = core::SubsetPercentile(*ds->store, st, *table);
  ASSERT_TRUE(perc.ok());
  for (const core::ExploreState& r : *perc) {
    auto rt = sparql::Execute(*ds->store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_LT(rt->row_count(), table->row_count()) << r.description;
    EXPECT_FALSE(core::ExampleRowIndexes(r, *rt).empty()) << r.description;
  }

  // Problem 2c: same dimensions, example kept.
  auto sim = core::SimilaritySearch(*ds->store, st, *table);
  ASSERT_TRUE(sim.ok());
  for (const core::ExploreState& r : *sim) {
    auto rt = sparql::Execute(*ds->store, r.query);
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->column_count(), table->column_count());
    EXPECT_FALSE(core::ExampleRowIndexes(r, *rt).empty()) << r.description;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tuples, ReolapPropertyTest,
    ::testing::Values(ReolapCase{101, "Germany", nullptr},
                      ReolapCase{102, "Syria", "2014"},
                      ReolapCase{103, "Asia", nullptr},
                      ReolapCase{104, "France", "Q3 2015"},
                      ReolapCase{105, "18-34", "Africa"},
                      ReolapCase{106, "October 2012", nullptr},
                      ReolapCase{107, "High income", "Sweden"}));

// --- TextIndex properties ----------------------------------------------------------

class TextIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextIndexPropertyTest, EveryMemberLabelIsFindable) {
  auto ds = qb::Generate(qb::EurostatSpec(500, GetParam()));
  ASSERT_TRUE(ds.ok());
  rdf::TextIndex text(*ds->store);
  util::Rng rng(GetParam());
  for (const qb::LevelSpec& level : ds->spec.levels) {
    // Probe a few labels of each level.
    for (int probe = 0; probe < 3; ++probe) {
      const std::string& label =
          level.labels[rng.Uniform(level.labels.size())];
      std::vector<rdf::TermId> hits = text.Match(label);
      ASSERT_FALSE(hits.empty()) << label;
      // The literal's exact text matches case-insensitively.
      for (rdf::TermId id : hits) {
        EXPECT_EQ(util::ToLower(ds->store->term(id).value),
                  util::ToLower(label));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextIndexPropertyTest,
                         ::testing::Values(201, 202, 203));

// --- N-Triples writer/parser properties --------------------------------------------

class NTriplesPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// parse(write(parse(x))) == parse(x): serializing a store and re-parsing
// it yields exactly the same triples, even when literal lexical forms
// contain quotes, backslashes, newlines, and tabs.
TEST_P(NTriplesPropertyTest, WriteParseRoundTripIsIdentity) {
  util::Rng rng(GetParam());
  const char kNasty[] = {'"', '\\', '\n', '\r', '\t', ' ', 'x', '7', '.'};
  rdf::TripleStore store;
  std::vector<rdf::Term> subjects, predicates, objects;
  for (int i = 0; i < 8; ++i) {
    subjects.push_back(rdf::Term::Iri("http://x/s" + std::to_string(i)));
    predicates.push_back(rdf::Term::Iri("http://x/p" + std::to_string(i)));
  }
  for (int i = 0; i < 24; ++i) {
    switch (rng.Uniform(4)) {
      case 0:
        objects.push_back(rdf::Term::Iri("http://x/o" + std::to_string(i)));
        break;
      case 1:
        objects.push_back(rdf::Term::IntegerLiteral(
            static_cast<int64_t>(rng.Uniform(1000))));
        break;
      default: {
        std::string lex;
        size_t len = rng.Uniform(12);
        for (size_t j = 0; j < len; ++j) {
          lex += kNasty[rng.Uniform(sizeof(kNasty))];
        }
        objects.push_back(rdf::Term::StringLiteral(lex));
        break;
      }
    }
  }
  for (int i = 0; i < 120; ++i) {
    store.Add(subjects[rng.Uniform(subjects.size())],
              predicates[rng.Uniform(predicates.size())],
              objects[rng.Uniform(objects.size())]);
  }
  store.Freeze();

  std::ostringstream first;
  rdf::WriteNTriples(store, first);
  rdf::TripleStore reparsed;
  ASSERT_TRUE(rdf::ParseNTriples(first.str(), &reparsed).ok());
  reparsed.Freeze();
  ASSERT_EQ(reparsed.size(), store.size());

  // Compare term-level triple sets (ids may differ between the stores).
  auto rendered = [](const rdf::TripleStore& s) {
    std::multiset<std::string> out;
    for (const rdf::EncodedTriple& t :
         s.Match(rdf::TriplePattern{})) {
      out.insert(rdf::ToNTriples(s.term(t.s)) + " " +
                 rdf::ToNTriples(s.term(t.p)) + " " +
                 rdf::ToNTriples(s.term(t.o)));
    }
    return out;
  };
  EXPECT_EQ(rendered(store), rendered(reparsed));

  // And the serialization itself is a fixed point up to line order (the
  // writer emits in intern order, which reparsing permutes).
  auto sorted_lines = [](const std::string& text) {
    std::multiset<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.insert(line);
    return lines;
  };
  std::ostringstream second;
  rdf::WriteNTriples(reparsed, second);
  EXPECT_EQ(sorted_lines(first.str()), sorted_lines(second.str()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NTriplesPropertyTest,
                         ::testing::Values(301, 302, 303, 304));

}  // namespace
}  // namespace re2xolap
