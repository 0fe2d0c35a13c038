#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "qb/datasets.h"
#include "qb/generator.h"
#include "util/hash.h"
#include "util/rng.h"

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

  // Member and observation IRIs are appended to the dictionary unprobed;
  // any other term equal to one of them is rejected, not merged.
  auto tiny = [] {
    DatasetSpec spec;
    spec.name = "tiny";
    spec.iri_base = "http://example.org/tiny/";
    spec.observation_class = spec.iri_base + "Observation";
    spec.measure_predicates = {"amount"};
    spec.levels = {{"color", {"red", "green"}}, {"shade", {"light", "dark"}}};
    spec.dimensions = {
        {"Color", "color", "color",
         {BranchSpec{{HierarchyStep{"inShade", "color", "shade", nullptr, 1}}}}}};
    spec.predicate_labels = {{"color", "Color"}};
    spec.observations = 3;
    return spec;
  };
  auto rejected = [](const DatasetSpec& spec) {
    auto ds = Generate(spec);
    return !ds.ok() && ds.status().IsInvalidArgument();
  };
  ASSERT_TRUE(Generate(tiny()).ok());
  {
    SCOPED_TRACE("a level named like the observations");
    DatasetSpec spec = tiny();
    spec.levels[0].name = "obs";
    spec.dimensions[0].base_level = "obs";
    spec.dimensions[0].branches[0].steps[0].from_level = "obs";
    EXPECT_TRUE(rejected(spec));
  }
  {
    SCOPED_TRACE("a dimension predicate equal to a member");
    DatasetSpec spec = tiny();
    spec.dimensions[0].predicate = "color/1";
    EXPECT_TRUE(rejected(spec));
  }
  {
    SCOPED_TRACE("a hierarchy predicate equal to a member");
    DatasetSpec spec = tiny();
    spec.dimensions[0].branches[0].steps[0].predicate = "shade/0";
    EXPECT_TRUE(rejected(spec));
  }
  {
    SCOPED_TRACE("a measure predicate equal to an observation");
    DatasetSpec spec = tiny();
    spec.measure_predicates = {"obs/2"};
    EXPECT_TRUE(rejected(spec));
  }
  {
    SCOPED_TRACE("a labelled predicate equal to a member");
    DatasetSpec spec = tiny();
    spec.predicate_labels.push_back({"color/0", "Red"});
    EXPECT_TRUE(rejected(spec));
  }
  for (const char* local : {"color/0", "obs/0"}) {
    SCOPED_TRACE(std::string("the class equal to ") + local);
    DatasetSpec spec = tiny();
    spec.observation_class = spec.iri_base + local;
    EXPECT_TRUE(rejected(spec));
  }
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

// Lookup() inverts term() for every id: the reverse index, which
// IndexAppended() fills for member and observation IRIs, finds each term.
void ExpectLookupsInvertTerms(const rdf::TripleStore& s) {
  const rdf::Dictionary& d = s.dictionary();
  for (rdf::TermId id = 1; id <= d.size(); ++id) {
    ASSERT_EQ(d.Lookup(d.term(id)), id) << d.term(id).ToString();
  }
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
      // The two datasets the end-to-end benchmark serves.
      {"eurostat-120000", EurostatSpec(120000),
       {15601311024855975116ull, 16780486661621512604ull,
        6694938105513030991ull, 15184091551281938630ull,
        2963162666096874806ull}},
      {"dbpedia-60000", DbpediaSpec(60000),
       {1984100497667033196ull, 15699028600025400566ull,
        3438288832655265073ull, 7894785622057517716ull,
        6745528599716225733ull}},
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
    ExpectLookupsInvertTerms(*ds->store);
  }
}

// --- reference generator -------------------------------------------------

// The dataset of `spec` from per-triple Add() calls and one RNG drawing
// every observation in order on one thread: Generate() as a plain serial
// loop, without memoized interning, pre-sizing or chunked draws. `spec`
// must be valid.
std::unique_ptr<rdf::TripleStore> ReferenceGenerate(const DatasetSpec& spec) {
  constexpr uint64_t kMeasureRange = 10000;
  auto store = std::make_unique<rdf::TripleStore>();
  auto iri = [&spec](const std::string& local) {
    return rdf::Term::Iri(spec.iri_base + local);
  };
  auto member = [&iri](const std::string& level, uint64_t i) {
    return iri(level + "/" + std::to_string(i));
  };
  const rdf::Term label = rdf::Term::Iri(kHasLabel);
  std::set<std::string> emitted;
  auto emit_level = [&](const LevelSpec& level) {
    if (!emitted.insert(level.name).second) return;
    for (size_t i = 0; i < level.labels.size(); ++i) {
      store->Add(member(level.name, i), label,
                 rdf::Term::StringLiteral(level.labels[i]));
    }
  };
  for (const auto& [local, text] : spec.predicate_labels) {
    store->Add(iri(local), label, rdf::Term::StringLiteral(text));
  }
  size_t salt = 1;
  for (const DimensionSpec& dim : spec.dimensions) {
    emit_level(*spec.FindLevel(dim.base_level));
    for (const BranchSpec& branch : dim.branches) {
      for (const HierarchyStep& step : branch.steps) {
        const LevelSpec& from = *spec.FindLevel(step.from_level);
        const LevelSpec& to = *spec.FindLevel(step.to_level);
        emit_level(from);
        emit_level(to);
        const size_t parents = to.member_count();
        for (size_t i = 0; i < from.member_count(); ++i) {
          for (size_t k = 0; k < std::min(step.parents_per_member, parents);
               ++k) {
            size_t parent;
            if (step.parent_of && k == 0) {
              parent = step.parent_of(i);
            } else if (k == 0 && i < parents) {
              parent = i;
            } else {
              uint64_t h =
                  i * 2654435761ULL + (salt + k) * 0x9E3779B97F4A7C15ULL;
              h ^= h >> 29;
              parent = static_cast<size_t>(h % parents);
            }
            store->Add(member(from.name, i), iri(step.predicate),
                       member(to.name, parent % parents));
          }
        }
        ++salt;
      }
    }
  }
  const rdf::Term type = rdf::Term::Iri(kRdfType);
  const rdf::Term cls = rdf::Term::Iri(spec.observation_class);
  util::Rng rng(spec.seed);
  for (uint64_t n = 0; n < spec.observations; ++n) {
    const rdf::Term obs = member("obs", n);
    store->Add(obs, type, cls);
    for (const DimensionSpec& dim : spec.dimensions) {
      const uint64_t members = spec.FindLevel(dim.base_level)->member_count();
      uint64_t m = n;
      if (n >= members) m = std::min(rng.Skewed(members), members - 1);
      store->Add(obs, iri(dim.predicate), member(dim.base_level, m));
    }
    for (const std::string& measure : spec.measure_predicates) {
      const int64_t value = 1 + static_cast<int64_t>(rng.Skewed(kMeasureRange));
      store->Add(obs, iri(measure), rdf::Term::IntegerLiteral(value));
    }
    for (const ObservationAttrSpec& attr : spec.observation_attrs) {
      const size_t v = rng.Uniform(attr.values.size());
      store->Add(obs, iri(attr.predicate),
                 rdf::Term::StringLiteral(attr.values[v]));
    }
  }
  store->Freeze();
  return store;
}

void ExpectSameStore(const rdf::TripleStore& got,
                     const rdf::TripleStore& want) {
  ASSERT_EQ(got.dictionary().size(), want.dictionary().size());
  for (rdf::TermId id = 1; id <= want.dictionary().size(); ++id) {
    const rdf::TermView g = got.term(id);
    const rdf::TermView w = want.term(id);
    ASSERT_TRUE(g.kind == w.kind && g.literal_type == w.literal_type &&
                g.value == w.value)
        << "term " << id << ": " << g.ToString() << " vs " << w.ToString();
  }
  ExpectLookupsInvertTerms(got);
  for (rdf::Perm perm : {rdf::Perm::kSpo, rdf::Perm::kPos}) {
    std::vector<rdf::EncodedTriple> g, w;
    for (const rdf::EncodedTriple& t : got.PermutationRange(perm)) {
      g.push_back(t);
    }
    for (const rdf::EncodedTriple& t : want.PermutationRange(perm)) {
      w.push_back(t);
    }
    ASSERT_EQ(g.size(), w.size());
    const auto diff = std::mismatch(g.begin(), g.end(), w.begin());
    EXPECT_TRUE(diff.first == g.end())
        << "permutation " << static_cast<int>(perm) << " differs at "
        << diff.first - g.begin();
  }
}

// A spec that puts more than one chunk of members on a base level, so the
// coverage pass ends inside the second chunk; two measures; and an
// attribute value that is also a level label, so interning it returns an
// existing id.
DatasetSpec WideSpec(uint64_t observations, bool attributes) {
  DatasetSpec spec;
  spec.name = "wide";
  spec.iri_base = "http://example.org/wide/";
  spec.observation_class = spec.iri_base + "Observation";
  spec.measure_predicates = {"amount", "weight"};
  LevelSpec item{"item", {}};
  for (uint64_t i = 0; i < kObservationChunk + kObservationChunk / 2 + 7; ++i) {
    item.labels.push_back("item " + std::to_string(i));
  }
  spec.levels = {item,
                 {"group", {"small", "medium", "large"}},
                 {"color", {"red", "green", "blue", "black"}}};
  spec.dimensions = {
      {"Item", "item", "item",
       {BranchSpec{{HierarchyStep{"inGroup", "item", "group", nullptr, 2}}}}},
      {"Color", "color", "color", {}}};
  if (attributes) {
    spec.observation_attrs = {{"finish", {"matte", "red", "glossy"}}};
  }
  spec.predicate_labels = {{"item", "Item"}, {"amount", "Amount"}};
  spec.observations = observations;
  spec.seed = 5;
  return spec;
}

// Generate() draws observations in chunks on a pool and interns them
// afterwards; the serial reference must come out the same, id for id, on
// every chunk seam.
TEST(GeneratorTest, MatchesSerialReferenceGenerator) {
  struct Case {
    std::string name;
    DatasetSpec spec;
  };
  const uint64_t chunk = kObservationChunk;
  const Case cases[] = {
      {"eurostat-1", EurostatSpec(1)},
      {"eurostat-chunk-1", EurostatSpec(chunk - 1)},
      {"eurostat-chunk", EurostatSpec(chunk)},
      {"eurostat-chunk+1", EurostatSpec(chunk + 1)},
      // Above the size at which the draw pass starts threads.
      {"eurostat-3.3-chunks", EurostatSpec(3 * chunk + 1234)},
      {"dbpedia-2-chunks+3", DbpediaSpec(2 * chunk + 3)},
      {"wide", WideSpec(3 * chunk + 5, true)},
      {"wide-no-attributes", WideSpec(3 * chunk + 5, false)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto ds = Generate(c.spec);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ExpectSameStore(*ds->store, *ReferenceGenerate(c.spec));
  }
}

}  // namespace
}  // namespace re2xolap::qb
