#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"

namespace re2xolap::rdf {
namespace {

// --- Term ---------------------------------------------------------------------

TEST(TermTest, Factories) {
  EXPECT_TRUE(Term::Iri("http://x/a").is_iri());
  EXPECT_TRUE(Term::StringLiteral("hi").is_literal());
  EXPECT_TRUE(Term::Blank("b0").is_blank());
  EXPECT_TRUE(Term::IntegerLiteral(4).is_numeric_literal());
  EXPECT_TRUE(Term::DoubleLiteral(1.5).is_numeric_literal());
  EXPECT_FALSE(Term::StringLiteral("4").is_numeric_literal());
}

TEST(TermTest, AsDouble) {
  EXPECT_DOUBLE_EQ(Term::IntegerLiteral(42).AsDouble(), 42.0);
  EXPECT_DOUBLE_EQ(Term::DoubleLiteral(2.25).AsDouble(), 2.25);
  EXPECT_DOUBLE_EQ(Term::StringLiteral("42").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Term::Iri("http://x").AsDouble(), 0.0);
}

TEST(TermTest, EqualityDistinguishesKindAndType) {
  EXPECT_EQ(Term::Iri("a"), Term::Iri("a"));
  EXPECT_FALSE(Term::Iri("a") == Term::StringLiteral("a"));
  EXPECT_FALSE(Term::StringLiteral("4") == Term::IntegerLiteral(4));
}

TEST(TermTest, ToStringForms) {
  EXPECT_EQ(Term::Iri("http://x/a").ToString(), "<http://x/a>");
  EXPECT_EQ(Term::StringLiteral("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Term::IntegerLiteral(3).ToString(), "\"3\"^^xsd:integer");
  EXPECT_EQ(Term::Blank("b").ToString(), "_:b");
}

// --- Dictionary ------------------------------------------------------------------

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  TermId a = d.Intern(Term::Iri("http://x/a"));
  TermId b = d.Intern(Term::Iri("http://x/b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern(Term::Iri("http://x/a")), a);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, LookupMissingReturnsInvalid) {
  Dictionary d;
  EXPECT_EQ(d.Lookup(Term::Iri("http://none")), kInvalidTermId);
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary d;
  Term t = Term::StringLiteral("Germany");
  TermId id = d.Intern(t);
  EXPECT_TRUE(d.IsValid(id));
  EXPECT_EQ(d.term(id), t);
}

TEST(DictionaryTest, ForEachVisitsAllInIdOrder) {
  Dictionary d;
  d.Intern(Term::Iri("a"));
  d.Intern(Term::Iri("b"));
  std::vector<TermId> ids;
  d.ForEach([&](TermId id, const Term&) { ids.push_back(id); });
  EXPECT_EQ(ids, (std::vector<TermId>{1, 2}));
}

// --- TripleStore -------------------------------------------------------------------

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // s1 -p1-> o1 ; s1 -p1-> o2 ; s1 -p2-> o1 ; s2 -p1-> o1
    s1 = store.Intern(Term::Iri("s1"));
    s2 = store.Intern(Term::Iri("s2"));
    p1 = store.Intern(Term::Iri("p1"));
    p2 = store.Intern(Term::Iri("p2"));
    o1 = store.Intern(Term::Iri("o1"));
    o2 = store.Intern(Term::Iri("o2"));
    store.AddEncoded({s1, p1, o1});
    store.AddEncoded({s1, p1, o2});
    store.AddEncoded({s1, p2, o1});
    store.AddEncoded({s2, p1, o1});
    store.Freeze();
  }
  TripleStore store;
  TermId s1, s2, p1, p2, o1, o2;
};

TEST_F(TripleStoreTest, MatchAllPatternShapes) {
  EXPECT_EQ(store.Match({}).size(), 4u);                       // ???
  EXPECT_EQ(store.Match({s1, 0, 0}).size(), 3u);               // s??
  EXPECT_EQ(store.Match({0, p1, 0}).size(), 3u);               // ?p?
  EXPECT_EQ(store.Match({0, 0, o1}).size(), 3u);               // ??o
  EXPECT_EQ(store.Match({s1, p1, 0}).size(), 2u);              // sp?
  EXPECT_EQ(store.Match({s1, 0, o1}).size(), 2u);              // s?o
  EXPECT_EQ(store.Match({0, p1, o1}).size(), 2u);              // ?po
  EXPECT_EQ(store.Match({s1, p1, o1}).size(), 1u);             // spo
  EXPECT_EQ(store.Match({s2, p2, 0}).size(), 0u);              // no match
}

TEST_F(TripleStoreTest, MatchedTriplesActuallyMatch) {
  for (const EncodedTriple& t : store.Match({s1, 0, 0})) {
    EXPECT_EQ(t.s, s1);
  }
  for (const EncodedTriple& t : store.Match({0, p1, o1})) {
    EXPECT_EQ(t.p, p1);
    EXPECT_EQ(t.o, o1);
  }
}

TEST_F(TripleStoreTest, DuplicatesRemovedOnFreeze) {
  TripleStore s;
  TermId a = s.Intern(Term::Iri("a"));
  TermId b = s.Intern(Term::Iri("b"));
  s.AddEncoded({a, b, a});
  s.AddEncoded({a, b, a});
  s.Freeze();
  EXPECT_EQ(s.size(), 1u);
}

TEST_F(TripleStoreTest, PredicateStats) {
  PredicateStats st = store.predicate_stats(p1);
  EXPECT_EQ(st.triple_count, 3u);
  EXPECT_EQ(st.distinct_subjects, 2u);  // s1, s2
  EXPECT_EQ(st.distinct_objects, 2u);   // o1, o2
  EXPECT_EQ(store.predicate_stats(o1).triple_count, 0u);
}

TEST_F(TripleStoreTest, PredicatesOfSubjectAndObject) {
  EXPECT_EQ(store.PredicatesOfSubject(s1), (std::vector<TermId>{p1, p2}));
  EXPECT_EQ(store.PredicatesOfSubject(s2), (std::vector<TermId>{p1}));
  EXPECT_EQ(store.PredicatesOfObject(o1), (std::vector<TermId>{p1, p2}));
  EXPECT_EQ(store.PredicatesOfObject(o2), (std::vector<TermId>{p1}));
}

TEST_F(TripleStoreTest, AllPredicates) {
  EXPECT_EQ(store.AllPredicates(), (std::vector<TermId>{p1, p2}));
}

TEST_F(TripleStoreTest, RefreezeAfterAdd) {
  TripleStore s;
  s.Add(Term::Iri("x"), Term::Iri("p"), Term::Iri("y"));
  s.Freeze();
  EXPECT_EQ(s.size(), 1u);
  s.Add(Term::Iri("x"), Term::Iri("p"), Term::Iri("z"));
  EXPECT_FALSE(s.frozen());
  s.Freeze();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.Match({s.Lookup(Term::Iri("x")), 0, 0}).size(), 2u);
}

TEST_F(TripleStoreTest, MemoryUsagePositive) {
  EXPECT_GT(store.MemoryUsage(), 0u);
}

// --- Freeze vs a comparison-sort oracle ----------------------------------------

enum class FreezeShape {
  kRandomWithDuplicates,
  kEmpty,
  kSingleTriple,
  kSharedPredicate,
  kSharedObject,
  kMaxIds,
};

// Triples over ids 1..terms (all interned). Small id pools force duplicate
// triples and long ties in every column.
std::vector<EncodedTriple> ShapeTriples(FreezeShape shape, TermId terms,
                                        std::mt19937* rng) {
  auto id = [&](TermId pool) {
    return static_cast<TermId>(1 + (*rng)() % pool);
  };
  std::vector<EncodedTriple> out;
  switch (shape) {
    case FreezeShape::kEmpty:
      break;
    case FreezeShape::kSingleTriple:
      out.push_back({id(terms), id(terms), id(terms)});
      break;
    case FreezeShape::kRandomWithDuplicates:
      for (int i = 0; i < 2000; ++i) out.push_back({id(30), id(6), id(20)});
      break;
    case FreezeShape::kSharedPredicate:
      for (int i = 0; i < 1500; ++i) out.push_back({id(terms), 5, id(40)});
      break;
    case FreezeShape::kSharedObject:
      for (int i = 0; i < 1500; ++i) out.push_back({id(40), id(8), 7});
      break;
    case FreezeShape::kMaxIds:
      for (int i = 0; i < 1000; ++i) {
        out.push_back({id(terms), id(terms), id(terms)});
      }
      out.push_back({terms, terms, terms});
      out.push_back({terms, 1, terms});
      out.push_back({1, terms, 1});
      break;
  }
  return out;
}

template <typename Key>
std::vector<EncodedTriple> OracleSorted(std::vector<EncodedTriple> v, Key key) {
  std::sort(v.begin(), v.end(), [&](const EncodedTriple& a,
                                    const EncodedTriple& b) {
    return key(a) < key(b);
  });
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<EncodedTriple> Drain(const IndexRange& range) {
  std::vector<EncodedTriple> out;
  for (const EncodedTriple& t : range) out.push_back(t);
  return out;
}

std::map<TermId, PredicateStats> BruteForceStats(
    const std::vector<EncodedTriple>& distinct) {
  std::map<TermId, std::set<TermId>> subjects, objects;
  std::map<TermId, PredicateStats> out;
  for (const EncodedTriple& t : distinct) {
    ++out[t.p].triple_count;
    subjects[t.p].insert(t.s);
    objects[t.p].insert(t.o);
  }
  for (auto& [p, st] : out) {
    st.distinct_subjects = subjects[p].size();
    st.distinct_objects = objects[p].size();
  }
  return out;
}

void ExpectStatsEqual(const std::unordered_map<TermId, PredicateStats>& got,
                      const std::map<TermId, PredicateStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [p, w] : want) {
    auto it = got.find(p);
    ASSERT_NE(it, got.end()) << "predicate " << p;
    EXPECT_EQ(it->second.triple_count, w.triple_count) << "predicate " << p;
    EXPECT_EQ(it->second.distinct_subjects, w.distinct_subjects)
        << "predicate " << p;
    EXPECT_EQ(it->second.distinct_objects, w.distinct_objects)
        << "predicate " << p;
  }
}

class FreezeOracleTest : public ::testing::TestWithParam<IndexFormat> {};

// The counting-sort index build must produce exactly what sorting each
// permutation with std::sort and dropping duplicates produces, and the
// sort-free stats must match brute-force counts, for every id shape.
TEST_P(FreezeOracleTest, MatchesSortUniqueOracle) {
  constexpr TermId kTerms = 60;
  std::mt19937 rng(20230328);
  for (FreezeShape shape :
       {FreezeShape::kRandomWithDuplicates, FreezeShape::kEmpty,
        FreezeShape::kSingleTriple, FreezeShape::kSharedPredicate,
        FreezeShape::kSharedObject, FreezeShape::kMaxIds}) {
    SCOPED_TRACE(static_cast<int>(shape));
    TripleStore store;
    store.set_index_format(GetParam());
    for (TermId i = 1; i <= kTerms; ++i) {
      store.Intern(Term::Iri("t" + std::to_string(i)));
    }
    ASSERT_EQ(store.dictionary().size(), kTerms);
    std::vector<EncodedTriple> raw = ShapeTriples(shape, kTerms, &rng);
    for (const EncodedTriple& t : raw) store.AddEncoded(t);
    store.Freeze();

    auto spo = OracleSorted(raw, [](const EncodedTriple& t) {
      return std::tie(t.s, t.p, t.o);
    });
    auto pos = OracleSorted(raw, [](const EncodedTriple& t) {
      return std::tie(t.p, t.o, t.s);
    });
    auto osp = OracleSorted(raw, [](const EncodedTriple& t) {
      return std::tie(t.o, t.s, t.p);
    });
    EXPECT_EQ(store.size(), spo.size());
    EXPECT_EQ(Drain(store.PermutationRange(Perm::kSpo)), spo);
    EXPECT_EQ(Drain(store.PermutationRange(Perm::kPos)), pos);
    EXPECT_EQ(Drain(store.PermutationRange(Perm::kOsp)), osp);

    const std::map<TermId, PredicateStats> want = BruteForceStats(spo);
    ExpectStatsEqual(ComputePredicateStats(spo, pos), want);
    ExpectStatsEqual(store.all_predicate_stats(), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FreezeOracleTest,
    ::testing::Values(IndexFormat::kRaw, IndexFormat::kCompressed),
    [](const ::testing::TestParamInfo<IndexFormat>& info) {
      return info.param == IndexFormat::kRaw ? "Raw" : "Compressed";
    });

// --- TextIndex ------------------------------------------------------------------------

class TextIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](const std::string& subj, const std::string& text) {
      store.Add(Term::Iri(subj), Term::Iri("label"),
                Term::StringLiteral(text));
    };
    add("m/1", "Germany");
    add("m/2", "October 2014");
    add("m/3", "November 2014");
    add("m/4", "germany");  // different literal, same lowercase
    add("m/5", "East Germany");
    store.Add(Term::Iri("m/6"), Term::Iri("count"), Term::IntegerLiteral(7));
    store.Freeze();
    index = std::make_unique<TextIndex>(store);
  }
  TripleStore store;
  std::unique_ptr<TextIndex> index;
};

TEST_F(TextIndexTest, ExactMatchIsCaseInsensitive) {
  EXPECT_EQ(index->ExactMatch("Germany").size(), 2u);  // "Germany", "germany"
  EXPECT_EQ(index->ExactMatch("GERMANY").size(), 2u);
  EXPECT_TRUE(index->ExactMatch("France").empty());
}

TEST_F(TextIndexTest, KeywordMatchRequiresAllTokens) {
  EXPECT_EQ(index->KeywordMatch("2014").size(), 2u);
  EXPECT_EQ(index->KeywordMatch("october 2014").size(), 1u);
  EXPECT_TRUE(index->KeywordMatch("october 2015").empty());
  EXPECT_EQ(index->KeywordMatch("germany").size(), 3u);  // incl. East Germany
}

TEST_F(TextIndexTest, MatchPrefersExact) {
  // "Germany" has exact matches, so "East Germany" is not returned.
  EXPECT_EQ(index->Match("Germany").size(), 2u);
  // No exact match for "East": falls back to keyword search.
  EXPECT_EQ(index->Match("East").size(), 1u);
}

TEST_F(TextIndexTest, LimitCapsResults) {
  EXPECT_EQ(index->KeywordMatch("germany", 2).size(), 2u);
  EXPECT_EQ(index->Match("Germany", 1).size(), 1u);
}

TEST_F(TextIndexTest, OnlyStringLiteralsIndexed) {
  EXPECT_EQ(index->indexed_literal_count(), 5u);
  EXPECT_TRUE(index->Match("7").empty());
}

TEST_F(TextIndexTest, EmptyQueryMatchesNothing) {
  EXPECT_TRUE(index->KeywordMatch("").empty());
  EXPECT_TRUE(index->KeywordMatch("...").empty());
}

// --- N-Triples I/O -----------------------------------------------------------------------

TEST(NTriplesTest, RoundTrip) {
  TripleStore store;
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o"));
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/label"),
            Term::StringLiteral("hello world"));
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/count"),
            Term::IntegerLiteral(42));
  store.Freeze();

  std::ostringstream os;
  WriteNTriples(store, os);

  TripleStore back;
  ASSERT_TRUE(ParseNTriples(os.str(), &back).ok());
  back.Freeze();
  EXPECT_EQ(back.size(), store.size());
  EXPECT_NE(back.Lookup(Term::StringLiteral("hello world")), kInvalidTermId);
  EXPECT_NE(back.Lookup(Term::IntegerLiteral(42)), kInvalidTermId);
}

TEST(NTriplesTest, ParsesCommentsAndBlankLines) {
  TripleStore store;
  std::string text =
      "# a comment\n"
      "\n"
      "<http://x/s> <http://x/p> <http://x/o> .\n"
      "<http://x/s> <http://x/p> \"lit\" .\n";
  ASSERT_TRUE(ParseNTriples(text, &store).ok());
  store.Freeze();
  EXPECT_EQ(store.size(), 2u);
}

TEST(NTriplesTest, RejectsMalformedInput) {
  TripleStore store;
  EXPECT_TRUE(ParseNTriples("<a> <b>\n", &store).IsParseError());
  EXPECT_TRUE(ParseNTriples("<a> <b> <c>\n", &store).IsParseError());
  EXPECT_TRUE(ParseNTriples("\"lit\" <b> <c> .\n", &store).IsParseError());
  EXPECT_TRUE(ParseNTriples("<a> \"lit\" <c> .\n", &store).IsParseError());
}

TEST(NTriplesTest, ParsesTypedLiterals) {
  TripleStore store;
  std::string text =
      "<a> <p> \"5\"^^xsd:integer .\n"
      "<a> <p> \"2.5\"^^xsd:double .\n"
      "<a> <p> \"true\"^^xsd:boolean .\n"
      "<a> <p> \"2014-10-01\"^^xsd:date .\n";
  ASSERT_TRUE(ParseNTriples(text, &store).ok());
  store.Freeze();
  EXPECT_NE(store.Lookup(Term::IntegerLiteral(5)), kInvalidTermId);
  EXPECT_NE(store.Lookup(Term(TermKind::kLiteral, "2.5",
                              LiteralType::kDouble)),
            kInvalidTermId);
  EXPECT_NE(store.Lookup(Term::BooleanLiteral(true)), kInvalidTermId);
  EXPECT_NE(store.Lookup(Term::DateLiteral("2014-10-01")), kInvalidTermId);
}

TEST(NTriplesTest, EscapesSurviveRoundTrip) {
  TripleStore store;
  const std::string nasty = "line1\nline2\t\"quoted\" back\\slash\rend";
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::StringLiteral(nasty));
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::StringLiteral("plain"));
  store.Freeze();

  std::ostringstream os;
  WriteNTriples(store, os);
  // The writer must keep every triple on its own line despite the newline
  // in the lexical form.
  const std::string text = os.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);

  TripleStore back;
  ASSERT_TRUE(ParseNTriples(os.str(), &back).ok());
  back.Freeze();
  EXPECT_EQ(back.size(), store.size());
  EXPECT_NE(back.Lookup(Term::StringLiteral(nasty)), kInvalidTermId);
}

TEST(NTriplesTest, ParserDecodesEscapes) {
  TripleStore store;
  ASSERT_TRUE(ParseNTriples(
                  "<a> <p> \"tab\\there \\\"q\\\" back\\\\slash\\nnl\" .\n",
                  &store)
                  .ok());
  store.Freeze();
  EXPECT_NE(store.Lookup(Term::StringLiteral("tab\there \"q\" back\\slash\nnl")),
            kInvalidTermId);
}

TEST(DictionaryTest, TermsStoredOnceNotTwice) {
  // The reverse index keys by TermId (4 bytes) through a transparent
  // hash, so big term texts are resident exactly once. With 100 terms of
  // ~4 KB each (~400 KB of text), a Term-keyed index would hold ~800 KB;
  // assert the accounting stays well under that.
  Dictionary d;
  constexpr size_t kTerms = 100;
  constexpr size_t kValueBytes = 4096;
  for (size_t i = 0; i < kTerms; ++i) {
    std::string value(kValueBytes, 'a' + (i % 26));
    value += std::to_string(i);
    d.Intern(Term::Iri(value));
  }
  EXPECT_EQ(d.size(), kTerms);
  const size_t text_bytes = kTerms * kValueBytes;
  EXPECT_LT(d.MemoryUsage(), text_bytes + text_bytes / 2);
  // Lookup still works through the transparent path.
  std::string probe(kValueBytes, 'a');
  probe += "0";
  EXPECT_NE(d.Lookup(Term::Iri(probe)), kInvalidTermId);
  EXPECT_EQ(d.Lookup(Term::Iri("absent")), kInvalidTermId);
}

TEST(DictionaryTest, ReserveKeepsIdsAndLookupsStable) {
  Dictionary d;
  TermId a = d.Intern(Term::Iri("a"));
  d.Reserve(1000);
  EXPECT_EQ(d.Lookup(Term::Iri("a")), a);
  TermId b = d.Intern(Term::Iri("b"));
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(d.term(a), Term::Iri("a"));
}

}  // namespace
}  // namespace re2xolap::rdf
