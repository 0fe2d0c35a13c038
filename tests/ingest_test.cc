// Live-ingestion subsystem tests: delta-merge iterator corner cases
// (duplicate triples, delete-then-reinsert, empty batches), epoch
// semantics (per-query pinning, cache-key movement), background
// compaction, zero-copy reads over a compacted base, the live
// base-plus-delta snapshot round trip (bit-identity), the POST /ingest HTTP route with per-client fair
// shedding, and a concurrent read/ingest/compact stress that must be
// TSan-clean.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "server/http_client.h"
#include "server/server.h"
#include "sparql/executor.h"
#include "storage/snapshot.h"
#include "store/ingestor.h"
#include "tests/reference_eval.h"
#include "tests/test_data.h"
#include "tests/uncached_engine.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace re2xolap {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::RunUncachedText;
using store::IngestOp;
using store::IngestReceipt;
using store::Ingestor;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "re2x_ingest_test_" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// One statement of the synthetic id-space corpus the randomized tests
/// ingest: <http://t/sN> <http://t/pN> <http://t/oN> .
std::string Line(int s, int p, int o) {
  return "<http://t/s" + std::to_string(s) + "> <http://t/p" +
         std::to_string(p) + "> <http://t/o" + std::to_string(o) + "> .\n";
}

/// Every visible triple, rendered to N-Triples text and sorted — the
/// term-level fingerprint two stores can be compared by even when their
/// dictionaries assigned ids in different orders.
std::multiset<std::string> VisibleTriples(const rdf::TripleStore& store) {
  rdf::TripleStore::ReadPin pin(store);
  std::multiset<std::string> out;
  rdf::IndexRange range = store.PermutationRange(rdf::Perm::kSpo);
  for (const rdf::EncodedTriple& t : range) {
    out.insert(rdf::ToNTriples(store.term(t.s)) + " " +
               rdf::ToNTriples(store.term(t.p)) + " " +
               rdf::ToNTriples(store.term(t.o)) + " .");
  }
  return out;
}

/// Sorted stringified result rows (order-insensitive comparison across
/// stores whose emission orders differ with dictionary id assignment).
std::vector<std::string> SortedRows(const sparql::ResultTable& t) {
  std::vector<std::string> rows;
  rows.reserve(t.row_count());
  for (size_t r = 0; r < t.row_count(); ++r) {
    std::string row;
    for (size_t c = 0; c < t.column_count(); ++c) {
      row += t.CellToString(t.at(r, c));
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A small live store: the Figure-1 KG as the frozen base, entered into
/// live mode with an attached ingestor.
struct LiveFixture {
  std::unique_ptr<rdf::TripleStore> store;
  util::ThreadPool pool{2};
  std::unique_ptr<Ingestor> ingestor;

  explicit LiveFixture(store::IngestorConfig config = {}) {
    // The chaos CI baseline arms store.ingest/store.compact from the
    // environment; these tests assert exact receipts and epochs, so
    // they run clean (FailpointsGateIngestAndCompact arms its own).
    util::FailpointRegistry::Global().DisarmAll();
    store = BuildFigure1Store();
    store->EnterLive();
    ingestor = std::make_unique<Ingestor>(store.get(), &pool, config);
  }

  IngestReceipt MustIngest(const std::string& text,
                           IngestOp op = IngestOp::kInsert) {
    auto r = ingestor->IngestText(text, op, nullptr);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : IngestReceipt{};
  }
};

// ---------------------------------------------------------------------------
// Visibility and set semantics
// ---------------------------------------------------------------------------

TEST(IngestTest, InsertsVisibleWithoutRefreeze) {
  LiveFixture fx;
  const uint64_t epoch0 = fx.store->freeze_epoch();
  const uint64_t size0 = fx.store->size();

  IngestReceipt r = fx.MustIngest(Line(1, 1, 1) + Line(2, 1, 1));
  EXPECT_EQ(r.added, 2u);
  EXPECT_EQ(r.deleted, 0u);
  EXPECT_EQ(r.chain_depth, 1u);
  EXPECT_EQ(r.epoch, epoch0 + 1);
  EXPECT_EQ(fx.store->freeze_epoch(), epoch0 + 1);
  EXPECT_EQ(fx.store->size(), size0 + 2);

  // The new triples answer through the classic pattern API, no Freeze().
  rdf::TermId p = fx.store->Lookup(rdf::Term::Iri("http://t/p1"));
  ASSERT_NE(p, rdf::kInvalidTermId);
  EXPECT_EQ(fx.store->CountMatches({0, p, 0}), 2u);
  rdf::TermId s1 = fx.store->Lookup(rdf::Term::Iri("http://t/s1"));
  rdf::TermId o1 = fx.store->Lookup(rdf::Term::Iri("http://t/o1"));
  EXPECT_TRUE(fx.store->Exists({s1, p, o1}));
  // Base data still answers too.
  rdf::TermId type = fx.store->Lookup(rdf::Term::Iri(testing::kTypeIri));
  EXPECT_EQ(fx.store->CountMatches({0, type, 0}), 5u);
}

TEST(IngestTest, SetSemanticsCollapseDuplicatesAndNoOps) {
  LiveFixture fx;
  // Duplicate statements inside one batch collapse to one insert.
  IngestReceipt first = fx.MustIngest(Line(1, 1, 1) + Line(1, 1, 1));
  EXPECT_EQ(first.added, 1u);

  // Re-inserting a visible triple is a no-op batch: nothing published,
  // the epoch does not move, the chain does not deepen.
  const uint64_t epoch = fx.store->freeze_epoch();
  IngestReceipt dup = fx.MustIngest(Line(1, 1, 1));
  EXPECT_EQ(dup.added, 0u);
  EXPECT_EQ(dup.epoch, epoch);
  EXPECT_EQ(fx.store->freeze_epoch(), epoch);
  EXPECT_EQ(fx.store->chain_depth(), 1u);

  // Deleting an absent triple is equally a no-op.
  IngestReceipt miss = fx.MustIngest(Line(9, 9, 9), IngestOp::kDelete);
  EXPECT_EQ(miss.deleted, 0u);
  EXPECT_EQ(fx.store->freeze_epoch(), epoch);
}

TEST(IngestTest, DeleteThenReinsertAcrossBatches) {
  LiveFixture fx;
  rdf::TermId p;
  fx.MustIngest(Line(1, 1, 1));
  p = fx.store->Lookup(rdf::Term::Iri("http://t/p1"));
  ASSERT_NE(p, rdf::kInvalidTermId);
  EXPECT_EQ(fx.store->CountMatches({0, p, 0}), 1u);

  IngestReceipt del = fx.MustIngest(Line(1, 1, 1), IngestOp::kDelete);
  EXPECT_EQ(del.deleted, 1u);
  EXPECT_EQ(fx.store->CountMatches({0, p, 0}), 0u);
  EXPECT_FALSE(fx.store->Exists({0, p, 0}));

  IngestReceipt re = fx.MustIngest(Line(1, 1, 1));
  EXPECT_EQ(re.added, 1u);
  EXPECT_EQ(fx.store->CountMatches({0, p, 0}), 1u);
  EXPECT_EQ(fx.store->chain_depth(), 3u);
}

TEST(IngestTest, DeletesBaseTriples) {
  LiveFixture fx;
  // Delete one of the frozen base's observation-type triples.
  const std::string stmt = "<http://test/obs/0> <" +
                           std::string(testing::kTypeIri) + "> <" +
                           std::string(testing::kObsClass) + "> .\n";
  rdf::TermId type = fx.store->Lookup(rdf::Term::Iri(testing::kTypeIri));
  ASSERT_EQ(fx.store->CountMatches({0, type, 0}), 5u);
  IngestReceipt del = fx.MustIngest(stmt, IngestOp::kDelete);
  EXPECT_EQ(del.deleted, 1u);
  EXPECT_EQ(fx.store->CountMatches({0, type, 0}), 4u);
  rdf::TermId obs0 = fx.store->Lookup(rdf::Term::Iri("http://test/obs/0"));
  EXPECT_FALSE(fx.store->Exists({obs0, type, 0}));
  // The other obs/0 triples survive.
  EXPECT_GT(fx.store->CountMatches({obs0, 0, 0}), 0u);
}

TEST(IngestTest, ReadPinGivesEpochConsistentSnapshot) {
  LiveFixture fx;
  fx.MustIngest(Line(1, 1, 1));
  rdf::TermId p = fx.store->Lookup(rdf::Term::Iri("http://t/p1"));

  {
    rdf::TripleStore::ReadPin pin(*fx.store);
    const uint64_t pinned_epoch = fx.store->freeze_epoch();
    ASSERT_EQ(fx.store->CountMatches({0, p, 0}), 1u);
    // Ingest from another thread (the ingestor reads visibility through
    // the calling thread's chain view, so the writer must not inherit
    // this thread's pin).
    std::thread writer([&] { fx.MustIngest(Line(2, 1, 1)); });
    writer.join();
    // Same pin, same epoch, same answer — the concurrent publish is
    // invisible to this query.
    EXPECT_EQ(fx.store->freeze_epoch(), pinned_epoch);
    EXPECT_EQ(fx.store->CountMatches({0, p, 0}), 1u);
  }
  // Pin released: the new batch is visible.
  EXPECT_EQ(fx.store->CountMatches({0, p, 0}), 2u);
}

// ---------------------------------------------------------------------------
// Randomized merge correctness against an oracle store
// ---------------------------------------------------------------------------

TEST(IngestTest, MergedViewMatchesRefrozenOracle) {
  // No auto-compaction: a background fold scheduled at the depth
  // threshold would race the chain-depth check below.
  store::IngestorConfig config;
  config.auto_compact = false;
  LiveFixture fx(config);
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> id(0, 11);

  // The test-maintained truth: the set of synthetic triples visible now.
  std::set<std::tuple<int, int, int>> truth;
  for (int batch = 0; batch < 8; ++batch) {
    const bool deleting = batch % 3 == 2;
    std::string text;
    for (int i = 0; i < 24; ++i) {
      int s = id(rng), p = id(rng), o = id(rng);
      if (deleting) {
        truth.erase({s, p, o});
      } else {
        truth.insert({s, p, o});
      }
      text += Line(s, p, o);
    }
    fx.MustIngest(text, deleting ? IngestOp::kDelete : IngestOp::kInsert);
  }
  ASSERT_GT(fx.store->chain_depth(), 2u);

  // Oracle: a classic freeze-once store holding base + exactly `truth`.
  auto oracle = BuildFigure1Store();
  {
    std::string all;
    for (const auto& [s, p, o] : truth) all += Line(s, p, o);
    // Re-open the frozen oracle for loading, then freeze again.
    ASSERT_TRUE(rdf::ParseNTriples(all, oracle.get()).ok());
    oracle->Freeze();
  }
  EXPECT_EQ(VisibleTriples(*fx.store), VisibleTriples(*oracle));
  EXPECT_EQ(fx.store->size(), oracle->size());

  // All three permutations agree triple-by-triple (term-level) and are
  // sorted in their key orders.
  for (rdf::Perm perm :
       {rdf::Perm::kSpo, rdf::Perm::kPos, rdf::Perm::kOsp}) {
    rdf::TripleStore::ReadPin pin(*fx.store);
    rdf::IndexRange range = fx.store->PermutationRange(perm);
    ASSERT_EQ(range.size(), fx.store->size());
    uint64_t n = 0;
    for (const rdf::EncodedTriple& t : range) {
      (void)t;
      ++n;
    }
    EXPECT_EQ(n, range.size());
  }

  // Pattern cardinalities agree for every shape over the id space.
  auto live_id = [&](const std::string& iri) {
    return fx.store->Lookup(rdf::Term::Iri(iri));
  };
  auto oracle_id = [&](const std::string& iri) {
    return oracle->Lookup(rdf::Term::Iri(iri));
  };
  for (int v = 0; v <= 11; ++v) {
    const std::string s = "http://t/s" + std::to_string(v);
    const std::string p = "http://t/p" + std::to_string(v);
    const std::string o = "http://t/o" + std::to_string(v);
    EXPECT_EQ(fx.store->CountMatches({live_id(s), 0, 0}),
              oracle->CountMatches({oracle_id(s), 0, 0}));
    EXPECT_EQ(fx.store->CountMatches({0, live_id(p), 0}),
              oracle->CountMatches({0, oracle_id(p), 0}));
    EXPECT_EQ(fx.store->CountMatches({0, 0, live_id(o)}),
              oracle->CountMatches({0, 0, oracle_id(o)}));
    EXPECT_EQ(fx.store->CountMatches({live_id(s), live_id(p), 0}),
              oracle->CountMatches({oracle_id(s), oracle_id(p), 0}));
  }

  // Merged-range access paths agree with each other: operator[] versus
  // Fetch chunks versus Slice, plus LowerBound consistency.
  {
    rdf::TripleStore::ReadPin pin(*fx.store);
    rdf::IndexRange range = fx.store->PermutationRange(rdf::Perm::kSpo);
    if (fx.store->chain_depth() > 0) {
      EXPECT_TRUE(range.merged());
    }
    rdf::IndexBlockScratch scratch;
    std::vector<rdf::EncodedTriple> fetched;
    for (uint64_t pos = 0; pos < range.size();) {
      auto chunk = range.Fetch(pos, 0, &scratch);
      ASSERT_FALSE(chunk.empty());
      fetched.insert(fetched.end(), chunk.begin(), chunk.end());
      pos += chunk.size();
    }
    ASSERT_EQ(fetched.size(), range.size());
    std::uniform_int_distribution<uint64_t> pick(0, range.size() - 1);
    for (int i = 0; i < 64; ++i) {
      uint64_t pos = pick(rng);
      rdf::EncodedTriple t = range[pos];
      EXPECT_EQ(t, fetched[pos]);
      // LowerBound of an existing element finds its first occurrence.
      uint64_t lb = range.LowerBound(t);
      ASSERT_LT(lb, range.size());
      EXPECT_EQ(range[lb], t);
      // Slicing preserves the merged backing and the elements.
      uint64_t hi = std::min(pos + 5, range.size());
      rdf::IndexRange slice = range.Slice(pos, hi);
      ASSERT_EQ(slice.size(), hi - pos);
      for (uint64_t j = 0; j < slice.size(); ++j) {
        EXPECT_EQ(slice[j], fetched[pos + j]);
      }
    }
  }

  // The executor answers over the live chain agree with the reference
  // evaluator on the same chain and with the executor on the oracle.
  const char* kQueries[] = {
      "SELECT ?s ?o WHERE { ?s <http://t/p1> ?o }",
      "SELECT ?s WHERE { ?s <http://t/p1> ?x . ?x <http://t/p2> ?y }",
      "SELECT ?obs WHERE { ?obs a <http://test/Observation> }",
  };
  for (const char* query : kQueries) {
    EXPECT_TRUE(testing::AgreesWithReference(*fx.store, query))
        << "query: " << query;
    auto live = RunUncachedText(*fx.store, query);
    auto expect = RunUncachedText(*oracle, query);
    ASSERT_TRUE(live.ok()) << live.status() << "\nquery: " << query;
    ASSERT_TRUE(expect.ok()) << expect.status();
    EXPECT_EQ(SortedRows(*live), SortedRows(*expect)) << "query: " << query;
  }
}

/// Every triple of `range`, in range order.
std::vector<rdf::EncodedTriple> Drain(const rdf::IndexRange& range) {
  return std::vector<rdf::EncodedTriple>(range.begin(), range.end());
}

/// `triples` sorted in `perm`'s key order, spelled out here rather than
/// taken from rdf::PermLess: the independent oracle of a permutation read.
std::vector<rdf::EncodedTriple> SortedBy(std::vector<rdf::EncodedTriple> triples,
                                         rdf::Perm perm) {
  auto key = [perm](const rdf::EncodedTriple& t) {
    switch (perm) {
      case rdf::Perm::kSpo:
        return std::tuple(t.s, t.p, t.o);
      case rdf::Perm::kPos:
        return std::tuple(t.p, t.o, t.s);
      default:
        return std::tuple(t.o, t.s, t.p);
    }
  };
  std::sort(triples.begin(), triples.end(),
            [&key](const rdf::EncodedTriple& a, const rdf::EncodedTriple& b) {
              return key(a) < key(b);
            });
  return triples;
}

/// Probes `range` at random positions, probes and limits and requires
/// every bound, gallop, point read and Fetch chunk to agree with the
/// sorted array `want`.
void ExpectRangeReadsMatch(const rdf::IndexRange& range,
                           const std::vector<rdf::EncodedTriple>& want,
                           rdf::TermId max_id, std::mt19937* rng) {
  ASSERT_EQ(range.size(), want.size());
  if (want.empty()) return;
  const rdf::Perm perm = range.perm();
  auto less = [perm](const rdf::EncodedTriple& a,
                     const rdf::EncodedTriple& b) {
    return rdf::PermLess(perm, a, b);
  };
  // Probe components at, between and beyond the stored ids.
  auto component = [&]() -> rdf::TermId {
    switch ((*rng)() % 4) {
      case 0:
        return rdf::kInvalidTermId;
      case 1:
        return rdf::kMaxTermId;
      default:
        return 1 + static_cast<rdf::TermId>((*rng)() % max_id);
    }
  };
  rdf::IndexBlockScratch scratch;
  for (int i = 0; i < 200; ++i) {
    rdf::EncodedTriple probe{component(), component(), component()};
    if (i % 2 == 0) probe = want[(*rng)() % want.size()];
    const uint64_t lb = static_cast<uint64_t>(
        std::lower_bound(want.begin(), want.end(), probe, less) - want.begin());
    const uint64_t ub = static_cast<uint64_t>(
        std::upper_bound(want.begin(), want.end(), probe, less) - want.begin());
    EXPECT_EQ(range.LowerBound(probe), lb);
    EXPECT_EQ(range.UpperBound(probe), ub);
    const uint64_t from = (*rng)() % (want.size() + 1);
    EXPECT_EQ(range.GallopLowerBound(from, probe), std::max(from, lb));
    EXPECT_EQ(range.GallopUpperBound(from, probe), std::max(from, ub));

    const uint64_t pos = (*rng)() % want.size();
    const uint64_t limit = (*rng)() % 40;  // 0 = no cap
    EXPECT_EQ(range[pos], want[pos]) << "pos " << pos;
    std::span<const rdf::EncodedTriple> chunk =
        range.Fetch(pos, limit, &scratch);
    ASSERT_FALSE(chunk.empty()) << "pos " << pos;
    if (limit != 0) {
      EXPECT_LE(chunk.size(), limit);
    }
    ASSERT_LE(pos + chunk.size(), want.size());
    for (size_t j = 0; j < chunk.size(); ++j) {
      ASSERT_EQ(chunk[j], want[pos + j]) << "pos " << pos << " + " << j;
    }
  }
}

// The OSP order is a merge of the POS predicate runs of every chain
// source: the base (the store's first, or a compacted one) and each
// layer's inserts and tombstones. On random chains of depth 0-6, over the
// first base or a compacted one, with triples deleted and reinserted
// across layers, every OSP read must equal the refrozen store's (same
// term ids) and an independent sort of the visible triples, in order.
TEST(IngestTest, OspViewMatchesRefrozenStoreOnRandomChains) {
  for (int trial = 0; trial < 14; ++trial) {
    SCOPED_TRACE(trial);
    store::IngestorConfig config;
    config.auto_compact = false;
    LiveFixture fx(config);
    std::mt19937 rng(7100 + trial);
    const bool compacted = trial % 2 == 1;
    const int depth = trial / 2;
    std::vector<std::string> deleted;  // reinsertion candidates
    auto ingest_batch = [&](bool deleting) {
      const std::multiset<std::string> visible_set = VisibleTriples(*fx.store);
      const std::vector<std::string> visible(visible_set.begin(),
                                             visible_set.end());
      std::string text;
      if (deleting) {
        // Visible triples (base or synthetic), plus one that may not be.
        for (int i = 0; i < 10; ++i) {
          const std::string& line = visible[rng() % visible.size()];
          text += line + "\n";
          deleted.push_back(line);
        }
        text += Line(rng() % 8, rng() % 4, rng() % 8);
      } else {
        // Fresh triples over a small id space, so objects recur under
        // several predicates, plus reinsertions of deleted triples.
        for (int i = 0; i < 12; ++i) {
          text += Line(rng() % 8, rng() % 4, rng() % 8);
        }
        for (int i = 0; i < 4 && !deleted.empty(); ++i) {
          text += deleted[rng() % deleted.size()] + "\n";
        }
      }
      fx.MustIngest(text, deleting ? IngestOp::kDelete : IngestOp::kInsert);
    };
    if (compacted) {
      for (int b = 0; b < 3; ++b) ingest_batch(b == 1);
      ASSERT_TRUE(fx.ingestor->Compact().ok());
      ASSERT_EQ(fx.store->chain_depth(), 0u);
    }
    for (int b = 0; b < depth; ++b) ingest_batch(b % 3 == 1);
    ASSERT_EQ(fx.store->chain_depth(), static_cast<uint64_t>(depth));

    auto frozen = testing::RefreezeVisible(*fx.store);
    rdf::TripleStore::ReadPin pin(*fx.store);
    const std::vector<rdf::EncodedTriple> osp = SortedBy(
        Drain(frozen->PermutationRange(rdf::Perm::kSpo)), rdf::Perm::kOsp);
    ASSERT_EQ(osp.size(), fx.store->size());
    EXPECT_EQ(Drain(fx.store->PermutationRange(rdf::Perm::kOsp)), osp);
    EXPECT_EQ(Drain(frozen->PermutationRange(rdf::Perm::kOsp)), osp);

    const auto max_id =
        static_cast<rdf::TermId>(fx.store->dictionary().size());
    for (rdf::TermId o = 1; o <= max_id; ++o) {
      auto first = std::lower_bound(
          osp.begin(), osp.end(), rdf::EncodedTriple{0, 0, o},
          [](const rdf::EncodedTriple& a, const rdf::EncodedTriple& b) {
            return a.o < b.o;
          });
      auto last = first;
      while (last != osp.end() && last->o == o) ++last;
      const std::vector<rdf::EncodedTriple> with_o(first, last);
      ASSERT_EQ(Drain(fx.store->Match({0, 0, o})), with_o) << "o " << o;
      ASSERT_EQ(Drain(frozen->Match({0, 0, o})), with_o) << "o " << o;
      for (rdf::TermId s = 1; s <= max_id; ++s) {
        std::vector<rdf::EncodedTriple> with_so;
        for (const rdf::EncodedTriple& t : with_o) {
          if (t.s == s) with_so.push_back(t);
        }
        ASSERT_EQ(Drain(fx.store->Match({s, 0, o})), with_so)
            << "s " << s << " o " << o;
        ASSERT_EQ(Drain(frozen->Match({s, 0, o})), with_so)
            << "s " << s << " o " << o;
      }
    }
    ExpectRangeReadsMatch(fx.store->PermutationRange(rdf::Perm::kOsp), osp,
                          max_id, &rng);
    ExpectRangeReadsMatch(frozen->PermutationRange(rdf::Perm::kOsp), osp,
                          max_id, &rng);
  }
}

// Merged seeks on stores large enough that a cold Fetch bisects rather
// than merging forward from the start: the OSP view of a generated store
// (one source per predicate, over disjoint object ranges) and all three
// orders of a live chain above it, against sorted copies.
TEST(IngestTest, MergedSeeksMatchSortedOracleOnGeneratedStore) {
  util::FailpointRegistry::Global().DisarmAll();
  auto ds = qb::Generate(qb::EurostatSpec(3000));
  ASSERT_TRUE(ds.ok()) << ds.status();
  rdf::TripleStore& store = *ds->store;
  std::mt19937 rng(9090);
  const std::span<const rdf::EncodedTriple> base = store.index_base()->spo;
  const std::vector<rdf::EncodedTriple> spo(base.begin(), base.end());
  const auto max_id = static_cast<rdf::TermId>(store.dictionary().size());
  {
    const rdf::IndexRange osp = store.PermutationRange(rdf::Perm::kOsp);
    EXPECT_TRUE(osp.merged());
    ExpectRangeReadsMatch(osp, SortedBy(spo, rdf::Perm::kOsp), max_id, &rng);
  }

  store.EnterLive();
  util::ThreadPool pool(1);
  store::IngestorConfig config;
  config.auto_compact = false;
  Ingestor ingestor(&store, &pool, config);
  for (int batch = 0; batch < 4; ++batch) {
    std::string text;
    if (batch % 2 == 1) {
      rdf::TripleStore::ReadPin pin(store);
      const rdf::IndexRange all = store.PermutationRange(rdf::Perm::kSpo);
      for (int i = 0; i < 300; ++i) {
        const rdf::EncodedTriple t = all[rng() % all.size()];
        text += rdf::ToNTriples(store.term(t.s)) + " " +
                rdf::ToNTriples(store.term(t.p)) + " " +
                rdf::ToNTriples(store.term(t.o)) + " .\n";
      }
    } else {
      for (int i = 0; i < 300; ++i) text += Line(rng() % 50, rng() % 6, rng() % 50);
    }
    auto receipt = ingestor.IngestText(
        text, batch % 2 == 1 ? IngestOp::kDelete : IngestOp::kInsert, nullptr);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
  }
  ASSERT_EQ(store.chain_depth(), 4u);
  auto frozen = testing::RefreezeVisible(store);
  const std::span<const rdf::EncodedTriple> refrozen =
      frozen->index_base()->spo;
  const std::vector<rdf::EncodedTriple> visible(refrozen.begin(),
                                                refrozen.end());
  rdf::TripleStore::ReadPin pin(store);
  for (rdf::Perm perm :
       {rdf::Perm::kSpo, rdf::Perm::kPos, rdf::Perm::kOsp}) {
    SCOPED_TRACE(static_cast<int>(perm));
    const rdf::IndexRange range = store.PermutationRange(perm);
    EXPECT_TRUE(range.merged());
    ExpectRangeReadsMatch(range, SortedBy(visible, perm),
                          static_cast<rdf::TermId>(store.dictionary().size()),
                          &rng);
  }
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

TEST(IngestTest, CompactionFoldsChainPreservingVisibleSet) {
  store::IngestorConfig config;
  config.auto_compact = false;  // deterministic: explicit Compact() only
  LiveFixture fx(config);
  fx.MustIngest(Line(1, 1, 1) + Line(2, 1, 2));
  fx.MustIngest(Line(1, 1, 1), IngestOp::kDelete);
  fx.MustIngest(Line(3, 2, 3));
  const auto before = VisibleTriples(*fx.store);
  const uint64_t epoch_before = fx.store->freeze_epoch();
  ASSERT_EQ(fx.store->chain_depth(), 3u);

  ASSERT_TRUE(fx.ingestor->Compact().ok());
  EXPECT_EQ(fx.store->chain_depth(), 0u);
  EXPECT_EQ(fx.store->freeze_epoch(), epoch_before + 1);
  rdf::TripleStore::LiveInfo info = fx.store->live_info();
  EXPECT_TRUE(info.live);
  EXPECT_EQ(info.delta_adds, 0u);
  EXPECT_EQ(info.delta_dels, 0u);
  EXPECT_EQ(VisibleTriples(*fx.store), before);

  // A compacted store keeps ingesting; stats stay coherent for planning.
  fx.MustIngest(Line(4, 2, 4));
  EXPECT_EQ(fx.store->chain_depth(), 1u);
  rdf::TermId p2 = fx.store->Lookup(rdf::Term::Iri("http://t/p2"));
  EXPECT_EQ(fx.store->CountMatches({0, p2, 0}), 2u);
  EXPECT_EQ(fx.store->predicate_stats(p2).triple_count, 2u);

  // Compacting a depth-0 chain is a published no-op (idempotent).
  ASSERT_TRUE(fx.ingestor->Compact().ok());
  ASSERT_TRUE(fx.ingestor->Compact().ok());
  EXPECT_EQ(fx.store->chain_depth(), 0u);
  EXPECT_EQ(VisibleTriples(*fx.store).count(
                "<http://t/s4> <http://t/p2> <http://t/o4> ."),
            1u);
}

TEST(IngestTest, AutoCompactionTriggersOnDepth) {
  store::IngestorConfig config;
  config.compact_threshold_layers = 2;
  config.compact_threshold_triples = 0;
  LiveFixture fx(config);
  for (int i = 0; i < 6; ++i) fx.MustIngest(Line(i, 0, i));
  // The background fold runs on the pool; wait for it to land.
  for (int spin = 0; spin < 200 && fx.store->chain_depth() >= 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(fx.store->chain_depth(), 2u);
  rdf::TermId p0 = fx.store->Lookup(rdf::Term::Iri("http://t/p0"));
  EXPECT_EQ(fx.store->CountMatches({0, p0, 0}), 6u);
}

TEST(IngestTest, FailpointsGateIngestAndCompact) {
  util::FailpointRegistry::Global().DisarmAll();
  store::IngestorConfig config;
  config.auto_compact = false;
  LiveFixture fx(config);
  fx.MustIngest(Line(1, 1, 1));
  const uint64_t epoch = fx.store->freeze_epoch();

  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("store.ingest=error*1")
                  .ok());
  auto rejected = fx.ingestor->IngestText(Line(2, 1, 1), IngestOp::kInsert,
                                          nullptr);
  EXPECT_FALSE(rejected.ok());
  // The rejected batch published nothing: all-or-nothing.
  EXPECT_EQ(fx.store->freeze_epoch(), epoch);
  EXPECT_EQ(fx.store->chain_depth(), 1u);

  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("store.compact=error*1")
                  .ok());
  EXPECT_FALSE(fx.ingestor->Compact().ok());
  EXPECT_EQ(fx.store->chain_depth(), 1u);
  util::FailpointRegistry::Global().DisarmAll();

  // Budgets spent: both paths recover.
  EXPECT_TRUE(fx.ingestor->IngestText(Line(2, 1, 1), IngestOp::kInsert,
                                      nullptr)
                  .ok());
  EXPECT_TRUE(fx.ingestor->Compact().ok());
  EXPECT_EQ(fx.store->chain_depth(), 0u);
}

// ---------------------------------------------------------------------------
// Engine integration: epoch movement invalidates cached results
// ---------------------------------------------------------------------------

TEST(IngestTest, EngineCacheFollowsEpochBumps) {
  LiveFixture fx;
  engine::QueryEngine engine(*fx.store);
  const char* query = "SELECT ?s WHERE { ?s <http://t/p1> ?o }";
  sparql::ExecOptions opts;
  auto before = engine.ExecuteText(query, opts, nullptr);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ((*before)->row_count(), 0u);

  fx.MustIngest(Line(1, 1, 1) + Line(2, 1, 2));
  auto after = engine.ExecuteText(query, opts, nullptr);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ((*after)->row_count(), 2u);

  fx.MustIngest(Line(1, 1, 1), IngestOp::kDelete);
  auto deleted = engine.ExecuteText(query, opts, nullptr);
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ((*deleted)->row_count(), 1u);
}

// A live store compacted to depth 0 reads its base exactly like a frozen
// store reads its own: Match and PermutationRange answer with zero-copy
// spans, not merged views. Each span owns the chain it was read from, so
// one taken before later ingest + Compact publications (which release that
// chain's base) still reads the same triples after them, with no pin
// held.
TEST(IngestTest, CompactedBaseReadsAreZeroCopyAndOutliveRepublication) {
  store::IngestorConfig config;
  config.auto_compact = false;
  LiveFixture fx(config);
  fx.MustIngest(Line(1, 1, 1) + Line(2, 1, 2) + Line(3, 2, 1));
  fx.MustIngest(Line(2, 1, 2), IngestOp::kDelete);
  ASSERT_TRUE(fx.ingestor->Compact().ok());
  ASSERT_EQ(fx.store->chain_depth(), 0u);

  const rdf::TermId p1 = fx.store->Lookup(rdf::Term::Iri("http://t/p1"));
  const rdf::TermId s1 = fx.store->Lookup(rdf::Term::Iri("http://t/s1"));
  const rdf::IndexRange all = fx.store->PermutationRange(rdf::Perm::kSpo);
  const rdf::IndexRange by_p = fx.store->Match({0, p1, 0});
  const rdf::IndexRange by_s = fx.store->Match({s1, 0, 0});
  for (const rdf::IndexRange* r : {&all, &by_p, &by_s}) {
    EXPECT_FALSE(r->merged());
    EXPECT_FALSE(r->empty());
  }
  EXPECT_FALSE(fx.store->PermutationRange(rdf::Perm::kPos).merged());
  const std::vector<rdf::EncodedTriple> all_before = Drain(all);
  const std::vector<rdf::EncodedTriple> p_before = Drain(by_p);
  const std::vector<rdf::EncodedTriple> s_before = Drain(by_s);
  EXPECT_EQ(all_before.size(), fx.store->size());
  EXPECT_EQ(p_before.size(), 1u);

  for (int round = 0; round < 2; ++round) {
    fx.MustIngest(Line(10 + round, 1, 3));
    ASSERT_TRUE(fx.ingestor->Compact().ok());
  }
  ASSERT_EQ(fx.store->chain_depth(), 0u);
  EXPECT_EQ(fx.store->CountMatches({0, p1, 0}), 3u);
  EXPECT_EQ(Drain(all), all_before);
  EXPECT_EQ(Drain(by_p), p_before);
  EXPECT_EQ(Drain(by_s), s_before);
  EXPECT_EQ(all.raw().size(), all_before.size());
}

// Once the store is live its base is held only through the epoch chain,
// so the first compaction frees the arrays frozen before ingestion: with
// no range or pin outstanding, the heap holds the dictionary, the one
// compacted base (arrays and stats) and nothing else.
TEST(IngestTest, CompactionFreesPreIngestArrays) {
  store::IngestorConfig config;
  config.auto_compact = false;
  LiveFixture fx(config);
  fx.MustIngest(Line(1, 1, 1) + Line(2, 1, 2));
  fx.MustIngest(Line(3, 2, 3));
  ASSERT_TRUE(fx.ingestor->Compact().ok());
  ASSERT_EQ(fx.store->chain_depth(), 0u);

  const size_t stats_bytes =
      fx.store->AllPredicates().size() *
      (sizeof(rdf::TermId) + sizeof(rdf::PredicateStats) + 2 * sizeof(void*));
  const rdf::StoreMemory m = fx.store->MemoryBreakdown();
  EXPECT_EQ(m.heap_bytes, fx.store->dictionary().MemoryUsage() +
                              2 * fx.store->size() *
                                  sizeof(rdf::EncodedTriple) +
                              stats_bytes);
  EXPECT_EQ(m.mapped_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Live snapshots: base + delta chain
// ---------------------------------------------------------------------------

TEST(LiveSnapshotTest, LiveRoundTripIsBitIdentical) {
  const std::string path1 = TempPath("live1.snap");
  const std::string path2 = TempPath("live2.snap");
  LiveFixture fx;
  fx.MustIngest(Line(1, 1, 1) + Line(2, 1, 2));
  fx.MustIngest(Line(1, 1, 1), IngestOp::kDelete);
  fx.MustIngest("<http://t/s3> <http://t/p2> \"ninety\" .\n");
  const auto visible = VisibleTriples(*fx.store);
  const uint64_t epoch = fx.store->freeze_epoch();

  ASSERT_TRUE(
      storage::SaveSnapshot(path1, *fx.store, nullptr, nullptr).ok());
  auto info = storage::InspectSnapshot(path1);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, storage::kSnapshotVersion);

  auto loaded = storage::LoadSnapshot(path1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->store->live());
  EXPECT_EQ(loaded->store->freeze_epoch(), epoch);
  EXPECT_EQ(loaded->store->chain_depth(), fx.store->chain_depth());
  EXPECT_EQ(VisibleTriples(*loaded->store), visible);
  rdf::TripleStore::LiveInfo info_a = fx.store->live_info();
  rdf::TripleStore::LiveInfo info_b = loaded->store->live_info();
  EXPECT_EQ(info_a.delta_adds, info_b.delta_adds);
  EXPECT_EQ(info_a.delta_dels, info_b.delta_dels);
  EXPECT_EQ(info_a.visible_triples, info_b.visible_triples);

  // save(load(save(x))) == save(x), byte for byte.
  ASSERT_TRUE(
      storage::SaveSnapshot(path2, *loaded->store, nullptr, nullptr).ok());
  EXPECT_EQ(ReadAll(path1), ReadAll(path2));

  // The reloaded store keeps serving and keeps ingesting. This ingest
  // takes the chain to the auto-compaction depth; with auto-compaction on,
  // a pool worker could fold the chain and bump the epoch again before
  // the check below.
  util::ThreadPool pool(2);
  store::IngestorConfig config;
  config.auto_compact = false;
  Ingestor ingestor(loaded->store.get(), &pool, config);
  auto r = ingestor.IngestText(Line(7, 7, 7), IngestOp::kInsert, nullptr);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(loaded->store->freeze_epoch(), epoch + 1);
  rdf::TermId p7 = loaded->store->Lookup(rdf::Term::Iri("http://t/p7"));
  EXPECT_EQ(loaded->store->CountMatches({0, p7, 0}), 1u);

  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(LiveSnapshotTest, CompactedLiveStoreReloadsLive) {
  const std::string path = TempPath("compacted.snap");
  store::IngestorConfig config;
  config.auto_compact = false;
  LiveFixture fx(config);
  fx.MustIngest(Line(1, 1, 1));
  ASSERT_TRUE(fx.ingestor->Compact().ok());
  ASSERT_EQ(fx.store->chain_depth(), 0u);
  const auto visible = VisibleTriples(*fx.store);
  const uint64_t epoch = fx.store->freeze_epoch();

  // A live store always writes a delta_chain section, here with no
  // layers: the folded base is the index pair, and the image stays live.
  ASSERT_TRUE(storage::SaveSnapshot(path, *fx.store, nullptr, nullptr).ok());
  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, storage::kSnapshotVersion);
  bool delta_chain = false;
  for (const storage::SectionInfo& s : info->sections) {
    delta_chain |= s.id == storage::SectionId::kDeltaChain;
  }
  EXPECT_TRUE(delta_chain);

  auto loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->store->live());
  EXPECT_EQ(loaded->store->freeze_epoch(), epoch);
  EXPECT_EQ(loaded->store->chain_depth(), 0u);
  EXPECT_EQ(VisibleTriples(*loaded->store), visible);

  // The reloaded store keeps ingesting on top of the loaded base.
  util::ThreadPool pool(1);
  Ingestor ingestor(loaded->store.get(), &pool, config);
  auto r = ingestor.IngestText(Line(7, 7, 7), IngestOp::kInsert, nullptr);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->epoch, epoch + 1);
  EXPECT_EQ(loaded->store->chain_depth(), 1u);
  EXPECT_EQ(loaded->store->size(), fx.store->size() + 1);
  std::remove(path.c_str());
}

TEST(LiveSnapshotTest, MmapLoadServesLiveChain) {
  const std::string path = TempPath("live_mmap.snap");
  LiveFixture fx;
  fx.MustIngest(Line(1, 1, 1) + Line(2, 2, 2));
  storage::SnapshotLoadOptions options;
  options.use_mmap = true;
  ASSERT_TRUE(storage::SaveSnapshot(path, *fx.store, nullptr, nullptr).ok());
  auto loaded = storage::LoadSnapshot(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->store->live());
  EXPECT_TRUE(loaded->store->borrows_snapshot());
  EXPECT_EQ(VisibleTriples(*loaded->store), VisibleTriples(*fx.store));
  loaded->store.reset();
  std::remove(path.c_str());
}

TEST(LiveSnapshotTest, EmptyChainBaseIsRefused) {
  util::FailpointRegistry::Global().DisarmAll();  // chaos CI env baseline
  const std::string path = TempPath("emptybase.snap");
  auto store = std::make_unique<rdf::TripleStore>();
  store->Freeze();
  store->EnterLive();
  util::ThreadPool pool(2);
  Ingestor ingestor(store.get(), &pool);
  ASSERT_TRUE(
      ingestor.IngestText(Line(1, 1, 1), IngestOp::kInsert, nullptr).ok());
  util::Status st = storage::SaveSnapshot(path, *store, nullptr, nullptr);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  // Compacting folds the layer into a real base; saving then works.
  ASSERT_TRUE(ingestor.Compact().ok());
  ASSERT_TRUE(storage::SaveSnapshot(path, *store, nullptr, nullptr).ok());
  auto loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->store->size(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// HTTP front door: POST /ingest + per-client fair shedding
// ---------------------------------------------------------------------------

class IngestServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FailpointRegistry::Global().DisarmAll();
    fx_ = std::make_unique<LiveFixture>();
    engine_ = std::make_unique<engine::QueryEngine>(*fx_->store);
  }
  void TearDown() override {
    util::FailpointRegistry::Global().DisarmAll();
    if (server_) server_->Stop();
  }

  server::HttpClient StartServer(server::ServerConfig config = {},
                                 bool with_ingestor = true) {
    server::Dataset dataset;
    dataset.store = fx_->store.get();
    dataset.engine = engine_.get();
    if (with_ingestor) dataset.ingestor = fx_->ingestor.get();
    server_ = std::make_unique<server::Server>(dataset, config);
    util::Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st;
    return server::HttpClient("127.0.0.1", server_->port());
  }

  std::unique_ptr<LiveFixture> fx_;
  std::unique_ptr<engine::QueryEngine> engine_;
  std::unique_ptr<server::Server> server_;
};

TEST_F(IngestServerTest, IngestRouteAppliesBatchVisibleToQueries) {
  server::HttpClient client = StartServer();
  auto before = client.Post(
      "/query", "SELECT ?s ?o WHERE { ?s <http://t/p1> ?o }");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NE(before->body.find("\"row_count\": 0"), std::string::npos);

  auto ingest = client.Post("/ingest", Line(1, 1, 1) + Line(2, 1, 2));
  ASSERT_TRUE(ingest.ok()) << ingest.status();
  ASSERT_EQ(ingest->status, 200) << ingest->body;
  EXPECT_NE(ingest->body.find("\"added\": 2"), std::string::npos)
      << ingest->body;
  EXPECT_NE(ingest->body.find("\"epoch\": "), std::string::npos);

  // The very next query sees the batch — no restart, no re-freeze.
  auto after = client.Post(
      "/query", "SELECT ?s ?o WHERE { ?s <http://t/p1> ?o }");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->body.find("\"row_count\": 2"), std::string::npos)
      << after->body;

  // op=delete takes one back out.
  auto del = client.Post("/ingest?op=delete", Line(1, 1, 1));
  ASSERT_TRUE(del.ok());
  ASSERT_EQ(del->status, 200) << del->body;
  EXPECT_NE(del->body.find("\"deleted\": 1"), std::string::npos);
  auto final = client.Post(
      "/query", "SELECT ?s ?o WHERE { ?s <http://t/p1> ?o }");
  ASSERT_TRUE(final.ok());
  EXPECT_NE(final->body.find("\"row_count\": 1"), std::string::npos);

  // /healthz reports the chain.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"ingest_route\": true"), std::string::npos);
  EXPECT_NE(health->body.find("\"live\": true"), std::string::npos);
  EXPECT_NE(health->body.find("\"chain_depth\": "), std::string::npos);
}

TEST_F(IngestServerTest, IngestRouteErrorTaxonomy) {
  server::HttpClient client = StartServer();
  // Bad op parameter.
  auto bad_op = client.Post("/ingest?op=upsert", Line(1, 1, 1));
  ASSERT_TRUE(bad_op.ok());
  EXPECT_EQ(bad_op->status, 400);
  // Empty body.
  auto empty = client.Post("/ingest", "");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->status, 400);
  // Malformed N-Triples: rejected, nothing applied.
  auto garbage = client.Post("/ingest", "this is not a triple\n");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400) << garbage->body;
  EXPECT_EQ(fx_->store->chain_depth(), 0u);
  // Wrong method.
  auto get = client.Get("/ingest");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->status, 405);
  EXPECT_EQ(get->Header("allow"), "POST");
}

TEST_F(IngestServerTest, IngestRouteWithoutIngestorIsTypedError) {
  server::HttpClient client = StartServer({}, /*with_ingestor=*/false);
  auto resp = client.Post("/ingest", Line(1, 1, 1));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 400);
  EXPECT_NE(resp->body.find("without live ingestion"), std::string::npos)
      << resp->body;
}

TEST_F(IngestServerTest, PerClientQueueCapShedsBeyondFairShare) {
  // One worker pinned in a long parse delay, a per-client cap of 1: the
  // first request executes, the second queues, everything further from
  // the same client (all test clients share 127.0.0.1) is shed with the
  // per-client reason even though the global queue has room.
  server::ServerConfig config;
  config.worker_threads = 1;
  config.queue_capacity = 16;
  config.per_client_queue_cap = 1;
  server::HttpClient client = StartServer(config);
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("server.parse=delay:300")
                  .ok());
  std::thread inflight([&] {
    server::HttpClient c("127.0.0.1", server_->port());
    (void)c.Post("/query", "SELECT ?s WHERE { ?s ?p ?o }");
  });
  std::thread queued([&] {
    server::HttpClient c("127.0.0.1", server_->port());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    (void)c.Post("/query", "SELECT ?s WHERE { ?s ?p ?o }");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(160));
  auto resp = client.Post("/query", "SELECT ?s WHERE { ?s ?p ?o }");
  inflight.join();
  queued.join();
  util::FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 503) << resp->body;
  EXPECT_EQ(resp->Header("retry-after"), "1");
  EXPECT_NE(resp->body.find("per-client"), std::string::npos) << resp->body;
  const server::ServerStats stats = server_->stats();
  EXPECT_GE(stats.shed_per_client, 1u);
  // Per-client sheds are a subset of total sheds.
  EXPECT_GE(stats.shed, stats.shed_per_client);
}

// ---------------------------------------------------------------------------
// Concurrency stress: readers vs ingest vs compaction (TSan-clean)
// ---------------------------------------------------------------------------

TEST(IngestStressTest, ConcurrentReadIngestCompact) {
  store::IngestorConfig config;
  config.compact_threshold_layers = 3;
  LiveFixture fx(config);
  constexpr int kBatches = 40;
  constexpr int kPerBatch = 8;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};

  // Writer: kBatches batches of kPerBatch fresh triples, all on the same
  // predicate — batch atomicity means any reader's count is a multiple
  // of kPerBatch at every instant.
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::string text;
      for (int i = 0; i < kPerBatch; ++i) {
        text += Line(b * kPerBatch + i, 99, b);
      }
      auto r = fx.ingestor->IngestText(text, IngestOp::kInsert, nullptr);
      if (!r.ok() || r->added != kPerBatch) ++violations;
      // Pace the batches so readers and the compactor genuinely overlap
      // live publications instead of racing a finished writer.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    done.store(true, std::memory_order_release);
  });

  // Compactor: folds whatever chain exists, repeatedly, while batches
  // keep publishing underneath.
  std::thread compactor([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (!fx.ingestor->Compact().ok()) ++violations;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Readers: counts are epoch-consistent (multiples of the batch size)
  // and monotone — a published batch never un-publishes, and compaction
  // never changes the visible set.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        rdf::TripleStore::ReadPin pin(*fx.store);
        rdf::TermId p99 =
            fx.store->Lookup(rdf::Term::Iri("http://t/p99"));
        uint64_t count =
            p99 == rdf::kInvalidTermId
                ? 0
                : fx.store->CountMatches({0, p99, 0});
        if (count % kPerBatch != 0 || count < last) ++violations;
        last = count;
        // Exercise the full executor path under the same pin.
        auto r = RunUncachedText(
            *fx.store, "SELECT ?s WHERE { ?s <http://t/p99> ?o }");
        if (!r.ok() || (*r).row_count() % kPerBatch != 0) ++violations;
      }
    });
  }

  writer.join();
  compactor.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
  rdf::TermId p99 = fx.store->Lookup(rdf::Term::Iri("http://t/p99"));
  EXPECT_EQ(fx.store->CountMatches({0, p99, 0}),
            static_cast<uint64_t>(kBatches * kPerBatch));
}

}  // namespace
}  // namespace re2xolap
