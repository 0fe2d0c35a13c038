#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qb/datasets.h"
#include "qb/generator.h"
#include "util/hash.h"

namespace re2xolap::qb {
namespace {

TEST(SpecTest, EurostatTable3Shape) {
  DatasetSpec spec = EurostatSpec(1000);
  EXPECT_EQ(spec.dimension_count(), 4u);
  EXPECT_EQ(spec.measure_count(), 1u);
  EXPECT_EQ(spec.level_count(), 10u);
  EXPECT_EQ(spec.hierarchy_count(), 7u);
  EXPECT_EQ(spec.total_members(), 373u);  // the paper's |N_D|
}

TEST(SpecTest, ProductionTable3Shape) {
  DatasetSpec spec = ProductionSpec(1000);
  EXPECT_EQ(spec.dimension_count(), 7u);
  EXPECT_EQ(spec.measure_count(), 1u);
  EXPECT_EQ(spec.level_count(), 10u);
  EXPECT_EQ(spec.total_members(), 6444u);  // the paper's |N_D|
}

TEST(SpecTest, DbpediaTable3Shape) {
  DatasetSpec spec = DbpediaSpec(1000);
  EXPECT_EQ(spec.dimension_count(), 5u);
  EXPECT_EQ(spec.measure_count(), 1u);
  EXPECT_EQ(spec.level_count(), 24u);
  EXPECT_EQ(spec.total_members(), 87160u);  // the paper's |N_D|
}

TEST(GeneratorTest, ObservationCountHonored) {
  auto ds = Generate(EurostatSpec(500));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  rdf::TermId cls =
      ds->store->Lookup(rdf::Term::Iri(ds->spec.observation_class));
  rdf::TermId type = ds->store->Lookup(rdf::Term::Iri(kRdfType));
  ASSERT_NE(cls, rdf::kInvalidTermId);
  EXPECT_EQ(ds->store->CountMatches({rdf::kInvalidTermId, type, cls}), 500u);
}

TEST(GeneratorTest, EveryObservationHasAllDimensionsAndMeasure) {
  auto ds = Generate(EurostatSpec(50));
  ASSERT_TRUE(ds.ok());
  const rdf::TripleStore& s = *ds->store;
  rdf::TermId type = s.Lookup(rdf::Term::Iri(kRdfType));
  rdf::TermId cls = s.Lookup(rdf::Term::Iri(ds->spec.observation_class));
  for (const rdf::EncodedTriple& t :
       s.Match({rdf::kInvalidTermId, type, cls})) {
    for (const DimensionSpec& d : ds->spec.dimensions) {
      rdf::TermId p = s.Lookup(rdf::Term::Iri(ds->spec.iri_base + d.predicate));
      ASSERT_NE(p, rdf::kInvalidTermId);
      EXPECT_EQ(s.CountMatches({t.s, p, rdf::kInvalidTermId}), 1u);
    }
    rdf::TermId m = s.Lookup(
        rdf::Term::Iri(ds->spec.iri_base + ds->spec.measure_predicates[0]));
    EXPECT_EQ(s.CountMatches({t.s, m, rdf::kInvalidTermId}), 1u);
  }
}

TEST(GeneratorTest, MembersCarryLabels) {
  auto ds = Generate(EurostatSpec(50));
  ASSERT_TRUE(ds.ok());
  const rdf::TripleStore& s = *ds->store;
  rdf::TermId label = s.Lookup(rdf::Term::Iri(kHasLabel));
  ASSERT_NE(label, rdf::kInvalidTermId);
  // "Germany" appears as a label of both an origin and a destination member.
  rdf::TermId germany = s.Lookup(rdf::Term::StringLiteral("Germany"));
  ASSERT_NE(germany, rdf::kInvalidTermId);
  EXPECT_EQ(s.CountMatches({rdf::kInvalidTermId, label, germany}), 2u);
}

TEST(GeneratorTest, HierarchyEdgesRespectParentOf) {
  auto ds = Generate(EurostatSpec(50));
  ASSERT_TRUE(ds.ok());
  const rdf::TripleStore& s = *ds->store;
  // Syria (origin index 33) must be in continent index 1 (Asia).
  rdf::TermId syria =
      s.Lookup(rdf::Term::Iri(ds->MemberIri("countryOrigin", 33)));
  rdf::TermId asia =
      s.Lookup(rdf::Term::Iri(ds->MemberIri("continentOrigin", 1)));
  rdf::TermId in_continent =
      s.Lookup(rdf::Term::Iri(ds->spec.iri_base + "inContinent"));
  ASSERT_NE(syria, rdf::kInvalidTermId);
  ASSERT_NE(asia, rdf::kInvalidTermId);
  EXPECT_TRUE(s.Exists({syria, in_continent, asia}));
}

TEST(GeneratorTest, MonthsMapToYears) {
  auto ds = Generate(EurostatSpec(10));
  const rdf::TripleStore& s = *ds->store;
  rdf::TermId in_year = s.Lookup(rdf::Term::Iri(ds->spec.iri_base + "inYear"));
  // Month 13 (February 2011) -> year index 1 (2011).
  rdf::TermId feb11 = s.Lookup(rdf::Term::Iri(ds->MemberIri("month", 13)));
  rdf::TermId y2011 = s.Lookup(rdf::Term::Iri(ds->MemberIri("year", 1)));
  EXPECT_TRUE(s.Exists({feb11, in_year, y2011}));
}

TEST(GeneratorTest, MToNHierarchiesProduceMultipleParents) {
  auto ds = Generate(DbpediaSpec(100));
  ASSERT_TRUE(ds.ok());
  const rdf::TripleStore& s = *ds->store;
  rdf::TermId sub = s.Lookup(rdf::Term::Iri(ds->spec.iri_base + "subGenreOf"));
  ASSERT_NE(sub, rdf::kInvalidTermId);
  rdf::TermId genre0 = s.Lookup(rdf::Term::Iri(ds->MemberIri("genre", 0)));
  EXPECT_EQ(s.CountMatches({genre0, sub, rdf::kInvalidTermId}), 2u);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  auto a = Generate(EurostatSpec(100, 7));
  auto b = Generate(EurostatSpec(100, 7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->store->size(), b->store->size());
  // Compare a few sampled triples via the canonical SPO order.
  auto sa = a->store->Match({});
  auto sb = b->store->Match({});
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); i += 997) {
    EXPECT_EQ(a->store->term(sa[i].s).value, b->store->term(sb[i].s).value);
    EXPECT_EQ(a->store->term(sa[i].o).value, b->store->term(sb[i].o).value);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = Generate(EurostatSpec(100, 7));
  auto b = Generate(EurostatSpec(100, 8));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Observation assignments should differ somewhere.
  bool differ = false;
  auto sa = a->store->Match({});
  auto sb = b->store->Match({});
  for (size_t i = 0; i < std::min(sa.size(), sb.size()) && !differ; ++i) {
    differ = !(a->store->term(sa[i].s).value == b->store->term(sb[i].s).value &&
               a->store->term(sa[i].o).value == b->store->term(sb[i].o).value);
  }
  EXPECT_TRUE(differ);
}

TEST(GeneratorTest, RejectsBadSpecs) {
  DatasetSpec spec = EurostatSpec(10);
  spec.dimensions[0].base_level = "no-such-level";
  EXPECT_FALSE(Generate(spec).ok());

  DatasetSpec spec2 = EurostatSpec(10);
  spec2.levels[0].labels.clear();
  EXPECT_FALSE(Generate(spec2).ok());

  DatasetSpec spec3 = EurostatSpec(10);
  spec3.levels.push_back(spec3.levels[0]);  // duplicate level name
  EXPECT_FALSE(Generate(spec3).ok());
}

TEST(GeneratorTest, ObservationAttrsAttached) {
  auto ds = Generate(EurostatSpec(20));
  const rdf::TripleStore& s = *ds->store;
  rdf::TermId sex = s.Lookup(rdf::Term::Iri(ds->spec.iri_base + "sex"));
  ASSERT_NE(sex, rdf::kInvalidTermId);
  EXPECT_EQ(s.CountMatches({rdf::kInvalidTermId, sex, rdf::kInvalidTermId}),
            20u);
}

// XXH64 over a byte stream built from fixed-width fields, so the digest
// depends on nothing but the values appended.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  void Add(std::string_view s) {
    Add(s.size());
    bytes_ += s;
  }
  uint64_t Digest() const { return util::Xxh64(bytes_.data(), bytes_.size()); }

 private:
  std::string bytes_;
};

struct StoreDigests {
  uint64_t dictionary, spo, pos, osp, stats;
};

StoreDigests DigestStore(const rdf::TripleStore& s) {
  Fingerprint dict;
  s.dictionary().ForEach([&](rdf::TermId id, rdf::TermView t) {
    dict.Add(id);
    dict.Add(static_cast<uint64_t>(t.kind));
    dict.Add(static_cast<uint64_t>(t.literal_type));
    dict.Add(t.value);
  });
  auto perm_digest = [&s](rdf::Perm perm) {
    Fingerprint f;
    for (const rdf::EncodedTriple& t : s.PermutationRange(perm)) {
      f.Add(t.s);
      f.Add(t.p);
      f.Add(t.o);
    }
    return f.Digest();
  };
  std::vector<rdf::TermId> preds = s.AllPredicates();
  Fingerprint stats;
  for (rdf::TermId p : preds) {
    rdf::PredicateStats st = s.predicate_stats(p);
    stats.Add(p);
    stats.Add(st.triple_count);
    stats.Add(st.distinct_subjects);
    stats.Add(st.distinct_objects);
  }
  return {dict.Digest(), perm_digest(rdf::Perm::kSpo),
          perm_digest(rdf::Perm::kPos), perm_digest(rdf::Perm::kOsp),
          stats.Digest()};
}

// Term ids, the three permutations and the predicate stats of generated
// stores are pinned to digests of the store that per-triple Add() calls
// and comparison sorts build: memoized interning and the counting-sort
// index build must reproduce it bit for bit, on one thread or several.
TEST(GeneratorTest, GeneratedStoreIsBitIdenticalToRecordedDigests) {
  struct Case {
    const char* name;
    DatasetSpec spec;
    StoreDigests want;
  };
  const Case cases[] = {
      {"eurostat-3000", EurostatSpec(3000),
       {18042907088273982241ull, 10333071212324549493ull,
        6806650602963244226ull, 12889266276655732789ull,
        13061530376661414404ull}},
      // 330,970 triples: above the size at which Freeze starts threads.
      {"eurostat-30000", EurostatSpec(30000),
       {17913978439744385386ull, 3830889694553545459ull,
        18316362515586561318ull, 7716288820509800488ull,
        13424206229387681873ull}},
      {"dbpedia-1000", DbpediaSpec(1000),
       {14500672023350541730ull, 10042637518140192401ull,
        15711433426334556387ull, 10971972233451666563ull,
        10127504776548108951ull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto ds = Generate(c.spec);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    StoreDigests got = DigestStore(*ds->store);
    EXPECT_EQ(got.dictionary, c.want.dictionary);
    EXPECT_EQ(got.spo, c.want.spo);
    EXPECT_EQ(got.pos, c.want.pos);
    EXPECT_EQ(got.osp, c.want.osp);
    EXPECT_EQ(got.stats, c.want.stats);
  }
}

}  // namespace
}  // namespace re2xolap::qb
