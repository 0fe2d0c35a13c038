#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "util/exec_guard.h"
#include "util/hash.h"
#include "util/string_utils.h"

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
  kSharedSubject,
  kDescendingRuns,
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
    case FreezeShape::kSharedSubject:
      // One subject run holding every triple: the per-subject sort sees
      // the whole input.
      for (int i = 0; i < 4000; ++i) out.push_back({9, id(terms), id(terms)});
      break;
    case FreezeShape::kDescendingRuns:
      // Subjects interleaved, each subject's (p,o) pairs arriving in
      // descending order, so every run must be fully reordered.
      for (int p = static_cast<int>(terms); p >= 1; p -= 3) {
        for (int o = static_cast<int>(terms); o >= 1; o -= 7) {
          for (int s = 1; s <= static_cast<int>(terms); s += 5) {
            out.push_back({static_cast<TermId>(s), static_cast<TermId>(p),
                           static_cast<TermId>(o)});
          }
        }
      }
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

// The index build (counting sorts plus per-subject run sorts) must produce
// exactly what sorting each permutation with std::sort and dropping
// duplicates produces, and the sort-free stats must match brute-force
// counts, for every id shape.
TEST_P(FreezeOracleTest, MatchesSortUniqueOracle) {
  constexpr TermId kTerms = 60;
  std::mt19937 rng(20230328);
  for (FreezeShape shape :
       {FreezeShape::kRandomWithDuplicates, FreezeShape::kEmpty,
        FreezeShape::kSingleTriple, FreezeShape::kSharedPredicate,
        FreezeShape::kSharedObject, FreezeShape::kMaxIds,
        FreezeShape::kSharedSubject, FreezeShape::kDescendingRuns}) {
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

using TextMap = std::map<std::string, std::vector<TermId>>;

// The index's tables through its ordered visitors, checking on the way
// that keys arrive strictly ascending.
TextMap Visited(const TextIndex& index, bool exact) {
  TextMap out;
  auto visit = [&out](std::string_view key, std::span<const TermId> ids) {
    EXPECT_TRUE(out.empty() || out.rbegin()->first < key) << key;
    out.emplace(std::string(key), std::vector<TermId>(ids.begin(), ids.end()));
  };
  if (exact) {
    index.ForEachExact(visit);
  } else {
    index.ForEachPosting(visit);
  }
  return out;
}

std::vector<TermId> Prefix(std::vector<TermId> ids, size_t limit) {
  if (limit > 0 && ids.size() > limit) ids.resize(limit);
  return ids;
}

std::string AsciiUpper(std::string s) {
  for (char& c : s) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return s;
}

// A random literal built from pieces that stress the tokenizer: mixed
// case, punctuation, digits, bytes >= 0x80, runs of one repeated token,
// and empty or whitespace-only values.
std::string RandomLiteralText(std::mt19937* rng) {
  static const char* const kPieces[] = {
      "Germany", "GERMANY", "germany", "Oct.",  "2014",   "x86-64",
      "(BA)",    "a",       "A",       "\xC3\xA9t\xC3\xA9", "caf\xC3\xA9",
      "\xFF",    "\x80z",   "  ",      "\t",    "\n",     ",;:!",
      "N0rth",   "_id_",    "0",       "",      "e\xE2\x80\x94m"};
  constexpr size_t kCount = sizeof(kPieces) / sizeof(kPieces[0]);
  switch ((*rng)() % 8) {
    case 0:
      return "";
    case 1:
      return std::string(1 + (*rng)() % 4, " \t\n"[(*rng)() % 3]);
    case 2: {  // one token repeated
      std::string tok = kPieces[(*rng)() % kCount];
      std::string out;
      for (size_t n = 1 + (*rng)() % 4; n > 0; --n) out += tok + " ";
      return out;
    }
    default: {
      std::string out;
      for (size_t n = (*rng)() % 7; n > 0; --n) {
        out += kPieces[(*rng)() % kCount];
        if ((*rng)() % 2 == 0) out += " ";
      }
      return out;
    }
  }
}

TEST_F(TextIndexTest, BuildMatchesReferenceTokenizer) {
  for (uint32_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    TripleStore store;
    const Term label = Term::Iri("label");
    for (int i = 0; i < 3000; ++i) {
      const Term subj = Term::Iri("s/" + std::to_string(i));
      const std::string text = RandomLiteralText(&rng);
      // Non-string literals and IRIs carry words too but must be skipped.
      switch (rng() % 6) {
        case 0:
          store.Add(subj, label, Term(TermKind::kLiteral, text,
                                      LiteralType::kOther));
          break;
        case 1:
          store.Add(subj, label, Term::DateLiteral(text));
          break;
        case 2:
          store.Add(subj, label, Term::Iri("iri " + text));
          break;
        default:
          store.Add(subj, label, Term::StringLiteral(text));
      }
    }
    // Case-only duplicates: three literals, one exact key.
    for (const char* text : {"Paris", "paris", "PARIS"}) {
      store.Add(Term::Iri("city"), label, Term::StringLiteral(text));
    }
    store.Add(Term::Iri("n"), label, Term::IntegerLiteral(2014));
    store.Freeze();

    TextMap postings;
    TextMap exact;
    size_t literals = 0;
    store.dictionary().ForEach([&](TermId id, const Term& t) {
      if (!t.is_literal() || t.literal_type != LiteralType::kString) return;
      ++literals;
      exact[util::ToLower(t.value)].push_back(id);
      std::vector<std::string> tokens = util::TokenizeWords(t.value);
      std::sort(tokens.begin(), tokens.end());
      tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
      for (const std::string& tok : tokens) postings[tok].push_back(id);
    });
    ASSERT_GT(literals, 500u);
    ASSERT_EQ(exact["paris"].size(), 3u);

    TextIndex index(store);
    EXPECT_EQ(index.indexed_literal_count(), literals);
    EXPECT_EQ(index.exact_key_count(), exact.size());
    EXPECT_EQ(index.distinct_token_count(), postings.size());
    EXPECT_EQ(Visited(index, /*exact=*/true), exact);
    EXPECT_EQ(Visited(index, /*exact=*/false), postings);

    // The reference answer of Match(): exact key first, else keywords.
    auto keyword_ref = [&](const std::string& query) {
      std::vector<std::string> tokens = util::TokenizeWords(query);
      if (tokens.empty()) return std::vector<TermId>{};
      std::vector<TermId> out;
      for (size_t i = 0; i < tokens.size(); ++i) {
        auto it = postings.find(tokens[i]);
        if (it == postings.end()) return std::vector<TermId>{};
        if (i == 0) {
          out = it->second;
          continue;
        }
        std::vector<TermId> next;
        std::set_intersection(out.begin(), out.end(), it->second.begin(),
                              it->second.end(), std::back_inserter(next));
        out.swap(next);
      }
      return out;
    };
    auto match_ref = [&](const std::string& query) {
      auto it = exact.find(util::ToLower(query));
      return it != exact.end() ? it->second : keyword_ref(query);
    };

    // Every key, in any ASCII case and under a random limit.
    for (const auto& [key, ids] : exact) {
      SCOPED_TRACE(key);
      const size_t limit = rng() % 4;
      EXPECT_EQ(index.ExactMatch(key), ids);
      EXPECT_EQ(index.ExactMatch(AsciiUpper(key)), ids);
      EXPECT_EQ(index.Match(key, limit), Prefix(ids, limit));
    }
    EXPECT_EQ(index.ExactMatch("pArIs"), exact["paris"]);
    EXPECT_EQ(index.Match("Paris", 2), Prefix(exact["paris"], 2));
    for (const auto& [tok, ids] : postings) {
      SCOPED_TRACE(tok);
      const size_t limit = rng() % 4;
      EXPECT_EQ(index.KeywordMatch(tok), ids);
      EXPECT_EQ(index.KeywordMatch(AsciiUpper(tok), limit),
                Prefix(ids, limit));
      EXPECT_EQ(index.Match(tok, limit), Prefix(match_ref(tok), limit));
    }

    // Random multi-token queries, some with a token no literal has.
    std::vector<std::string> tokens;
    for (const auto& entry : postings) tokens.push_back(entry.first);
    util::CancellationToken cancelled;
    cancelled.Cancel();
    const util::ExecGuard expired(util::ExecGuard::Limits{}, &cancelled);
    for (int q = 0; q < 400; ++q) {
      std::vector<std::string> picked;
      for (size_t n = 1 + rng() % 3; n > 0; --n) {
        picked.push_back(rng() % 8 == 0 ? "zzmissing"
                                        : tokens[rng() % tokens.size()]);
      }
      std::string query;
      for (const std::string& tok : picked) {
        query += (rng() % 2 == 0 ? tok : AsciiUpper(tok));
        query += " ,;"[rng() % 3];
      }
      SCOPED_TRACE(query);
      const size_t limit = rng() % 4;
      const std::vector<TermId> want = keyword_ref(query);
      EXPECT_EQ(index.KeywordMatch(query), want);
      EXPECT_EQ(index.KeywordMatch(query, limit), Prefix(want, limit));
      EXPECT_EQ(index.Match(query, limit), Prefix(match_ref(query), limit));

      // An expired guard stops before the first intersection: the answer
      // is a shortest posting list, a superset of the full answer.
      const std::vector<TermId> degraded =
          index.KeywordMatch(query, 0, &expired);
      const bool missing =
          std::find(picked.begin(), picked.end(), "zzmissing") != picked.end();
      if (missing) {
        EXPECT_TRUE(degraded.empty());
        continue;
      }
      size_t shortest = SIZE_MAX;
      bool is_a_list = false;
      for (const std::string& tok : picked) {
        shortest = std::min(shortest, postings[tok].size());
      }
      for (const std::string& tok : picked) {
        is_a_list |= postings[tok] == degraded;
      }
      EXPECT_EQ(degraded.size(), shortest);
      EXPECT_TRUE(is_a_list);
      EXPECT_TRUE(std::includes(degraded.begin(), degraded.end(),
                                want.begin(), want.end()));
      EXPECT_EQ(index.KeywordMatch(query, limit, &expired),
                Prefix(degraded, limit));
    }
  }
}

// The sorted text maps of a generated DBpedia store, pinned to the digest
// of the index that per-literal token vectors built.
TEST_F(TextIndexTest, GeneratedDbpediaMatchesRecordedDigest) {
  auto ds = qb::Generate(qb::DbpediaSpec(1000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  TextIndex index(*ds->store);
  std::string bytes;
  auto add = [&bytes](uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  add(index.indexed_literal_count());
  for (bool exact : {true, false}) {
    const TextMap sorted = Visited(index, exact);
    add(sorted.size());
    for (const auto& [key, ids] : sorted) {
      add(key.size());
      bytes += key;
      add(ids.size());
      for (TermId id : ids) add(id);
    }
  }
  EXPECT_EQ(util::Xxh64(bytes.data(), bytes.size()), 13399243192803250235ull);
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
  // The reverse index is a flat table of (hash tag, TermId) slots, so big
  // term texts are resident exactly once. With 100 terms of ~4 KB each
  // (~400 KB of text), a Term-keyed index would hold ~800 KB; assert the
  // accounting stays well under that.
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
  // Lookup still works through the tag-then-term probe.
  std::string probe(kValueBytes, 'a');
  probe += "0";
  EXPECT_NE(d.Lookup(Term::Iri(probe)), kInvalidTermId);
  EXPECT_EQ(d.Lookup(Term::Iri("absent")), kInvalidTermId);
}

// Differential test against a std::map oracle. 300k+ distinct terms make
// equal 32-bit tags of distinct terms occur naturally (the birthday bound
// predicts about 10), so the probe's tag-then-term comparison is exercised.
TEST(DictionaryTest, MatchesMapOracle) {
  std::mt19937_64 rng(15);
  Dictionary d;
  d.Reserve(1000);
  std::map<Term, TermId> oracle;
  std::vector<Term> by_id(1);  // id -> term; slot 0 unused
  // One lexical form in four kinds: IRI, string, integer, blank node.
  auto make = [](int kind, std::string value) {
    switch (kind) {
      case 0:
        return Term::Iri(std::move(value));
      case 1:
        return Term::StringLiteral(std::move(value));
      case 2:
        return Term(TermKind::kLiteral, std::move(value),
                    LiteralType::kInteger);
      default:
        return Term::Blank(std::move(value));
    }
  };
  auto random_value = [&rng]() -> std::string {
    const uint64_t r = rng() % 1000;
    if (r == 0) return "";
    if (r == 1) return std::string(4096, static_cast<char>('a' + rng() % 3));
    if (r == 2) {
      std::string big(4096, 'q');
      big += std::to_string(rng() % 400);
      return big;
    }
    return "v" + std::to_string(rng() % 200000);
  };

  constexpr size_t kOps = 520000;
  for (size_t op = 0; op < kOps; ++op) {
    if (op == kOps / 3) {
      d.Reserve(by_id.size() + 200000);  // mid-stream growth
      d.Reserve(10);                      // smaller than current: no-op
    }
    if (op % 5 == 0 && by_id.size() > 1) {
      // A duplicate through either overload leaves the size unchanged.
      const TermId want = static_cast<TermId>(1 + rng() % (by_id.size() - 1));
      const size_t before = d.size();
      Term copy = by_id[want];
      const TermId got =
          op % 2 == 0 ? d.Intern(by_id[want]) : d.Intern(std::move(copy));
      ASSERT_EQ(got, want);
      ASSERT_EQ(d.size(), before);
      continue;
    }
    Term t = make(static_cast<int>(rng() % 4), random_value());
    auto it = oracle.find(t);
    const TermId want = it == oracle.end() ? static_cast<TermId>(by_id.size())
                                           : it->second;
    const TermId got = op % 2 == 0 ? d.Intern(t) : d.Intern(Term(t));
    ASSERT_EQ(got, want) << t.ToString();
    if (it == oracle.end()) {
      oracle.emplace(t, got);
      by_id.push_back(std::move(t));
    }
    ASSERT_EQ(d.size(), by_id.size() - 1);
  }
  ASSERT_GE(oracle.size(), 300000u);

  // Equal tags of distinct terms do occur among them.
  std::vector<uint32_t> tags;
  tags.reserve(oracle.size());
  for (const auto& [t, id] : oracle) tags.push_back(Dictionary::Tag(t));
  std::sort(tags.begin(), tags.end());
  EXPECT_NE(std::adjacent_find(tags.begin(), tags.end()), tags.end());

  for (const auto& [t, id] : oracle) {
    ASSERT_EQ(d.Lookup(t), id) << t.ToString();
    ASSERT_EQ(d.term(id), t);
  }
  TermId next = 1;
  d.ForEach([&](TermId id, const Term& t) {
    ASSERT_EQ(id, next++);
    ASSERT_EQ(t, by_id[id]);
  });
  auto absent = [&](size_t i) {
    return make(static_cast<int>(i % 4), "absent" + std::to_string(i));
  };
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(d.Lookup(absent(i)), kInvalidTermId);
  }

  // Live mode: base ids stay put, new terms extend the id range.
  const TermId base_end = static_cast<TermId>(by_id.size());
  d.EnterLive();
  for (TermId id = 1; id < base_end; id += 97) {
    ASSERT_EQ(d.InternLive(by_id[id]), id);
  }
  for (size_t i = 0; i < 1000; ++i) {
    const TermId id = d.InternLive(absent(i));
    ASSERT_EQ(id, base_end + i);
    ASSERT_EQ(d.InternLive(absent(i)), id);
  }
  EXPECT_EQ(d.size(), by_id.size() - 1 + 1000);
  for (size_t i = 0; i < 2000; ++i) {
    const TermId want = i < 1000 ? static_cast<TermId>(base_end + i)
                                 : kInvalidTermId;
    ASSERT_EQ(d.Lookup(absent(i)), want);
    if (want != kInvalidTermId) {
      ASSERT_TRUE(d.IsValid(want));
      ASSERT_EQ(d.term(want), absent(i));
    }
  }
  for (const auto& [t, id] : oracle) ASSERT_EQ(d.Lookup(t), id);
  EXPECT_FALSE(d.IsValid(static_cast<TermId>(base_end + 1000)));
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
