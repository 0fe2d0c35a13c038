// Property tests of the index-cursor abstraction: randomized triple sets
// (duplicate-heavy and single-predicate-skewed shapes) must freeze into a
// store whose Match / CountMatches / PredicatesOf* answers equal a
// sort+unique oracle over the input; IndexRange searches, slices, fetches
// and the cursor contract must agree with the plain sorted array on both
// backings — a raw span and a merged run of add and tombstone sources.
#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/delta_layer.h"
#include "rdf/index_cursor.h"
#include "rdf/triple_store.h"

namespace re2xolap::rdf {
namespace {

constexpr TermId kUnbound = kInvalidTermId;

/// Uniform term id in [lo, lo + n) — mt19937 yields unsigned long on this
/// platform, so aggregate-init of EncodedTriple needs the explicit cast.
TermId Rand(std::mt19937& rng, uint32_t n, uint32_t lo = 1) {
  return static_cast<TermId>(lo + rng() % n);
}

/// Interns `terms` distinct IRIs and returns a store with `triples` added
/// (not yet frozen). `shape` picks the id distribution:
///   duplicate-heavy: tiny id universe, so most triples collide and the
///     dedup dominates;
///   single-predicate skew: 90% of triples share one predicate, so one
///     POS run spans most of the permutation.
enum class Shape { kDuplicateHeavy, kSinglePredicateSkew };

/// Returns the triples added, in insertion order.
std::vector<EncodedTriple> FillStore(TripleStore* store, Shape shape,
                                     size_t triples, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<EncodedTriple> added;
  const uint32_t terms = shape == Shape::kDuplicateHeavy ? 24 : 4000;
  for (uint32_t i = 0; i < terms; ++i) {
    store->dictionary().Intern(
        Term::Iri("http://t/" + std::to_string(i)));
  }
  for (size_t i = 0; i < triples; ++i) {
    EncodedTriple t;
    if (shape == Shape::kDuplicateHeavy) {
      t = {Rand(rng, terms), Rand(rng, terms), Rand(rng, terms)};
    } else {
      t.s = Rand(rng, terms);
      t.p = rng() % 10 != 0 ? 7 : Rand(rng, 16);  // 90% one predicate
      t.o = Rand(rng, terms);
    }
    store->AddEncoded(t);
    added.push_back(t);
  }
  return added;
}

/// The store's exact encoded triples via Match — materialized so two
/// stores' answers can be compared bit-for-bit.
std::vector<EncodedTriple> Materialize(IndexRange range) {
  std::vector<EncodedTriple> out;
  out.reserve(range.size());
  for (const EncodedTriple& t : range) out.push_back(t);
  return out;
}

bool SameTriples(const std::vector<EncodedTriple>& a,
                 const std::vector<EncodedTriple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].s != b[i].s || a[i].p != b[i].p || a[i].o != b[i].o) {
      return false;
    }
  }
  return true;
}

std::vector<EncodedTriple> SortedUnique(std::vector<EncodedTriple> v,
                                        Perm perm) {
  std::sort(v.begin(), v.end(), [perm](const EncodedTriple& a,
                                       const EncodedTriple& b) {
    return PermLess(perm, a, b);
  });
  v.erase(std::unique(v.begin(), v.end(),
                      [](const EncodedTriple& a, const EncodedTriple& b) {
                        return a.s == b.s && a.p == b.p && a.o == b.o;
                      }),
          v.end());
  return v;
}

/// The oracle's answer to `q`: every triple of `spo_sorted` the pattern
/// matches, in SPO order.
std::vector<EncodedTriple> OracleMatch(
    const std::vector<EncodedTriple>& spo_sorted, const TriplePattern& q) {
  std::vector<EncodedTriple> out;
  for (const EncodedTriple& t : spo_sorted) {
    if ((q.s == kUnbound || t.s == q.s) && (q.p == kUnbound || t.p == q.p) &&
        (q.o == kUnbound || t.o == q.o)) {
      out.push_back(t);
    }
  }
  return out;
}

/// Distinct predicates of the oracle triples whose subject (by_subject)
/// or object equals `id`, ascending.
std::vector<TermId> OraclePredicates(
    const std::vector<EncodedTriple>& spo_sorted, TermId id, bool by_subject) {
  std::vector<TermId> out;
  for (const EncodedTriple& t : spo_sorted) {
    if ((by_subject ? t.s : t.o) == id) out.push_back(t.p);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

class StoreOraclePropertyTest : public ::testing::TestWithParam<Shape> {};

// For every pattern shape (all 8 bound combinations), the frozen store
// answers with exactly the oracle's triples, in the serving permutation's
// order, with a matching CountMatches; PredicatesOfSubject/Object agree
// with the oracle too.
TEST_P(StoreOraclePropertyTest, MatchesSortUniqueOracle) {
  TripleStore store;
  const std::vector<EncodedTriple> spo =
      SortedUnique(FillStore(&store, GetParam(), 6000, 20260809), Perm::kSpo);
  store.Freeze();
  EXPECT_EQ(store.size(), spo.size());
  EXPECT_EQ(store.freeze_epoch(), 1u);

  std::mt19937 rng(7);
  for (int probe = 0; probe < 200; ++probe) {
    // Half the probes are triples that exist (so bound components hit),
    // half arbitrary ids (mostly misses).
    EncodedTriple base = probe % 2 == 0
                             ? spo[rng() % spo.size()]
                             : EncodedTriple{Rand(rng, 64), Rand(rng, 64),
                                             Rand(rng, 64)};
    for (uint32_t mask = 0; mask < 8; ++mask) {
      TriplePattern q;
      q.s = (mask & 1) != 0 ? base.s : kUnbound;
      q.p = (mask & 2) != 0 ? base.p : kUnbound;
      q.o = (mask & 4) != 0 ? base.o : kUnbound;
      SCOPED_TRACE("mask=" + std::to_string(mask) +
                   " s=" + std::to_string(q.s) + " p=" + std::to_string(q.p) +
                   " o=" + std::to_string(q.o));
      const IndexRange range = store.Match(q);
      const std::vector<EncodedTriple> got = Materialize(range);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                                 [&range](const EncodedTriple& a,
                                          const EncodedTriple& b) {
                                   return PermLess(range.perm(), a, b);
                                 }));
      const std::vector<EncodedTriple> want = OracleMatch(spo, q);
      EXPECT_EQ(store.CountMatches(q), want.size());
      EXPECT_TRUE(SameTriples(SortedUnique(got, Perm::kSpo), want));
      EXPECT_EQ(got.size(), want.size());
    }
    EXPECT_EQ(store.PredicatesOfSubject(base.s),
              OraclePredicates(spo, base.s, /*by_subject=*/true));
    EXPECT_EQ(store.PredicatesOfObject(base.o),
              OraclePredicates(spo, base.o, /*by_subject=*/false));
  }
}

// Re-freezing after a mutation advances the epoch and answers the new
// triple set: the Materialize -> mutate -> re-Freeze cycle loses nothing.
TEST_P(StoreOraclePropertyTest, MutationRefreezeKeepsEpochAndResultsAligned) {
  TripleStore store;
  std::vector<EncodedTriple> added = FillStore(&store, GetParam(), 3000, 99);
  store.Freeze();
  ASSERT_EQ(store.freeze_epoch(), 1u);

  store.AddEncoded({2, 3, 4});
  added.push_back({2, 3, 4});
  store.Freeze();
  EXPECT_EQ(store.freeze_epoch(), 2u);
  const std::vector<EncodedTriple> spo = SortedUnique(added, Perm::kSpo);
  EXPECT_EQ(store.size(), spo.size());
  EXPECT_TRUE(SameTriples(Materialize(store.Match(TriplePattern{})), spo));
}

INSTANTIATE_TEST_SUITE_P(Shapes, StoreOraclePropertyTest,
                         ::testing::Values(Shape::kDuplicateHeavy,
                                           Shape::kSinglePredicateSkew));

// --- IndexRange / IndexCursor semantics --------------------------------------

/// Sources of a merged run whose visible triples are exactly `sorted` (SPO
/// order, unique): two add sources splitting the set at random, a few
/// visible triples reinserted into both adds with one tombstone between
/// them, and extra triples added to one add source only to be cancelled by
/// a tombstone. The vectors back the range's spans, so they must outlive
/// it.
struct MergedSources {
  std::vector<EncodedTriple> adds[2];
  std::vector<EncodedTriple> dels;
  IndexRange range;
};

void BuildMerged(const std::vector<EncodedTriple>& sorted, uint32_t seed,
                 MergedSources* out) {
  std::mt19937 rng(seed);
  for (const EncodedTriple& t : sorted) {
    const uint32_t roll = rng() % 16;
    if (roll == 0) {
      out->adds[0].push_back(t);
      out->adds[1].push_back(t);
      out->dels.push_back(t);
    } else {
      out->adds[roll % 2].push_back(t);
    }
  }
  // Cancelled extras: objects past every object of `sorted`, so none of
  // them is visible.
  TermId max_o = 0;
  for (const EncodedTriple& t : sorted) max_o = std::max(max_o, t.o);
  for (TermId i = 1; i <= 64; ++i) {
    const EncodedTriple t{Rand(rng, 200), Rand(rng, 6), max_o + i};
    out->adds[i % 2].push_back(t);
    out->dels.push_back(t);
  }
  for (std::vector<EncodedTriple>* v : {&out->adds[0], &out->adds[1], &out->dels}) {
    std::sort(v->begin(), v->end(), SpoLess());
  }
  std::vector<IndexRange> adds = {IndexRange::FromSpan(out->adds[0], Perm::kSpo),
                                  IndexRange::FromSpan(out->adds[1], Perm::kSpo)};
  std::vector<IndexRange> dels = {IndexRange::FromSpan(out->dels, Perm::kSpo)};
  auto run = std::make_shared<const MergedRun>(std::move(adds), std::move(dels),
                                               Perm::kSpo, nullptr);
  const uint64_t n = run->size();
  out->range = IndexRange::FromMerged(std::move(run), 0, n, Perm::kSpo);
}

class IndexRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937 rng(11);
    for (int i = 0; i < 4000; ++i) {
      triples_.push_back({Rand(rng, 200), Rand(rng, 6), Rand(rng, 500)});
    }
    triples_ = SortedUnique(std::move(triples_), Perm::kSpo);
    raw_ = IndexRange::FromSpan(triples_, Perm::kSpo);
    BuildMerged(triples_, 29, &sources_);
    merged_ = sources_.range;
    ASSERT_TRUE(merged_.merged());
    ASSERT_EQ(merged_.size(), triples_.size());
  }

  std::vector<EncodedTriple> triples_;
  MergedSources sources_;
  IndexRange raw_;
  IndexRange merged_;
};

TEST_F(IndexRangeTest, SearchesAgreeWithStdAlgorithmsOnBothBackings) {
  std::mt19937 rng(3);
  for (int i = 0; i < 400; ++i) {
    EncodedTriple probe{Rand(rng, 220), Rand(rng, 8, 0), Rand(rng, 520, 0)};
    const uint64_t expect_lb =
        std::lower_bound(triples_.begin(), triples_.end(), probe,
                         SpoLess()) -
        triples_.begin();
    const uint64_t expect_ub =
        std::upper_bound(triples_.begin(), triples_.end(), probe,
                         SpoLess()) -
        triples_.begin();
    for (const IndexRange* r : {&raw_, &merged_}) {
      EXPECT_EQ(r->LowerBound(probe), expect_lb);
      EXPECT_EQ(r->UpperBound(probe), expect_ub);
      // Gallop from an arbitrary valid start at or before the answer.
      const uint64_t from = expect_lb == 0 ? 0 : rng() % expect_lb;
      EXPECT_EQ(r->GallopLowerBound(from, probe), expect_lb);
      EXPECT_EQ(r->GallopUpperBound(from, probe), expect_ub);
    }
  }
}

TEST_F(IndexRangeTest, SlicedRangesKeepRelativePositionSemantics) {
  std::mt19937 rng(17);
  for (int i = 0; i < 50; ++i) {
    uint64_t lo = rng() % triples_.size();
    uint64_t hi = lo + rng() % (triples_.size() - lo);
    IndexRange raw_slice = raw_.Slice(lo, hi);
    IndexRange merged_slice = merged_.Slice(lo, hi);
    ASSERT_EQ(raw_slice.size(), hi - lo);
    ASSERT_EQ(merged_slice.size(), hi - lo);
    if (lo < hi) {
      EXPECT_EQ(raw_slice.front().s, triples_[lo].s);
      EXPECT_EQ(merged_slice.front().s, triples_[lo].s);
      EXPECT_EQ(merged_slice.back().o, triples_[hi - 1].o);
      const uint64_t mid = (hi - lo) / 2;
      EXPECT_EQ(merged_slice[mid].p, triples_[lo + mid].p);
    }
    EXPECT_TRUE(
        SameTriples(Materialize(raw_slice), Materialize(merged_slice)));
  }
}

TEST_F(IndexRangeTest, RawFetchIsZeroCopyWholeRemainder) {
  // The raw path must keep the old zero-copy span behavior: one Fetch
  // returns the entire remainder aliasing the source array, so cursor
  // loops cost a single extra iteration and no copies.
  std::span<const EncodedTriple> chunk = raw_.Fetch(5, 0, nullptr);
  EXPECT_EQ(chunk.size(), triples_.size() - 5);
  EXPECT_EQ(chunk.data(), triples_.data() + 5);
  std::span<const EncodedTriple> capped = raw_.Fetch(5, 7, nullptr);
  EXPECT_EQ(capped.size(), 7u);
  EXPECT_EQ(capped.data(), triples_.data() + 5);
}

TEST_F(IndexRangeTest, FetchChunksTileTheRangeOnBothBackings) {
  std::mt19937 rng(31);
  for (const IndexRange* r : {&raw_, &merged_}) {
    IndexBlockScratch scratch;
    uint64_t pos = 0;
    std::vector<EncodedTriple> seen;
    while (pos < r->size()) {
      // Random caps, including 0 (= no cap), exercise both the
      // sequential continuation and the capped window.
      const uint64_t limit = rng() % 4 == 0 ? 0 : 1 + rng() % 700;
      std::span<const EncodedTriple> chunk = r->Fetch(pos, limit, &scratch);
      ASSERT_FALSE(chunk.empty());
      if (limit != 0) {
        EXPECT_LE(chunk.size(), limit);
      }
      seen.insert(seen.end(), chunk.begin(), chunk.end());
      pos += chunk.size();
    }
    EXPECT_TRUE(r->Fetch(pos, 0, &scratch).empty());
    EXPECT_TRUE(SameTriples(seen, triples_));
    // Backward and random positions: a cold fetch re-seeks.
    for (int i = 0; i < 100; ++i) {
      const uint64_t at = rng() % triples_.size();
      std::span<const EncodedTriple> one = r->Fetch(at, 1, &scratch);
      ASSERT_EQ(one.size(), 1u);
      EXPECT_EQ(one[0], triples_[at]);
    }
  }
}

TEST_F(IndexRangeTest, CursorSeekAndChunkContractOnBothBackings) {
  for (const IndexRange* r : {&raw_, &merged_}) {
    IndexCursor cursor(*r);
    EXPECT_FALSE(cursor.done());
    // Seek to an existing triple: the next chunk must start with it.
    const EncodedTriple target = triples_[triples_.size() / 2];
    cursor.SeekLowerBound(target);
    std::span<const EncodedTriple> chunk = cursor.NextChunk(3);
    ASSERT_EQ(chunk.size(), 3u);
    EXPECT_EQ(chunk[0].s, target.s);
    EXPECT_EQ(chunk[0].p, target.p);
    EXPECT_EQ(chunk[0].o, target.o);
    // Drain the rest; empty chunk <=> done().
    while (!cursor.NextChunk().empty()) {
    }
    EXPECT_TRUE(cursor.done());
    EXPECT_TRUE(cursor.NextChunk().empty());
    // Re-attach resets the position.
    cursor.Attach(*r);
    EXPECT_EQ(cursor.position(), 0u);
    EXPECT_FALSE(cursor.done());
  }
}

TEST_F(IndexRangeTest, SharedScratchSurvivesInterleavedRanges) {
  // One scratch bounced between two merged runs must never serve the
  // other run's window: the second run holds every triple with its
  // object shifted by one, so a stale hit reads the wrong object.
  std::vector<EncodedTriple> shifted = triples_;
  for (EncodedTriple& t : shifted) ++t.o;
  MergedSources other;
  BuildMerged(shifted, 37, &other);
  ASSERT_EQ(other.range.size(), triples_.size());
  IndexBlockScratch scratch;
  std::mt19937 rng(23);
  for (int i = 0; i < 200; ++i) {
    const uint64_t pos = rng() % triples_.size();
    std::span<const EncodedTriple> a = merged_.Fetch(pos, 1, &scratch);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].o, triples_[pos].o);
    std::span<const EncodedTriple> b = other.range.Fetch(pos, 1, &scratch);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].o, triples_[pos].o + 1);
  }
}

}  // namespace
}  // namespace re2xolap::rdf
