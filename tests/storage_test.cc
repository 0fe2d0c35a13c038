// Snapshot subsystem tests: save/load round-trips (copy and mmap modes),
// engine/session integration, and the corruption suite — truncation, bad
// magic, version skew, single-bit flips — all of which must surface as
// typed Status errors, never UB (the suite runs under ASan/TSan in CI).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "storage/snapshot.h"
#include "storage/snapshot_io.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace re2xolap {
namespace {

using storage::LoadedSnapshot;
using storage::SnapshotInfo;
using storage::SnapshotLoadOptions;
using storage::SnapshotWriteOptions;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "re2x_storage_test_" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Builds the Figure-1 store with text index + schema graph and saves a
/// full image to `path`.
struct Fixture {
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<core::VirtualSchemaGraph> vsg;

  explicit Fixture(const std::string& path = "") {
    store = testing::BuildFigure1Store();
    text = std::make_unique<rdf::TextIndex>(*store);
    auto graph =
        core::VirtualSchemaGraph::Build(*store, testing::kObsClass);
    EXPECT_TRUE(graph.ok()) << graph.status();
    vsg = std::make_unique<core::VirtualSchemaGraph>(std::move(graph).value());
    if (!path.empty()) {
      storage::VsgImage image = storage::MakeVsgImage(*vsg);
      util::Status st =
          storage::SaveSnapshot(path, *store, text.get(), &image);
      EXPECT_TRUE(st.ok()) << st;
    }
  }
};

void ExpectStoresMatch(const rdf::TripleStore& a, const rdf::TripleStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dictionary().size(), b.dictionary().size());
  EXPECT_EQ(a.freeze_epoch(), b.freeze_epoch());
  // Term-by-term: ids were assigned in the same order.
  a.dictionary().ForEach([&](rdf::TermId id, const rdf::Term& t) {
    EXPECT_EQ(b.term(id), t);
  });
  // Pattern results agree for a spread of shapes.
  auto spo = a.spo_span();
  for (size_t i = 0; i < spo.size(); i += 3) {
    const rdf::EncodedTriple& t = spo[i];
    EXPECT_EQ(a.Match({t.s, 0, 0}).size(), b.Match({t.s, 0, 0}).size());
    EXPECT_EQ(a.Match({0, t.p, 0}).size(), b.Match({0, t.p, 0}).size());
    EXPECT_EQ(a.Match({0, 0, t.o}).size(), b.Match({0, 0, t.o}).size());
    EXPECT_TRUE(b.Exists({t.s, t.p, t.o}));
  }
  // Planner statistics restored exactly.
  for (rdf::TermId p : a.AllPredicates()) {
    EXPECT_EQ(a.predicate_stats(p).triple_count,
              b.predicate_stats(p).triple_count);
    EXPECT_EQ(a.predicate_stats(p).distinct_subjects,
              b.predicate_stats(p).distinct_subjects);
    EXPECT_EQ(a.predicate_stats(p).distinct_objects,
              b.predicate_stats(p).distinct_objects);
  }
}

// --- round trips -------------------------------------------------------------

TEST(SnapshotTest, RoundTripCopyMode) {
  const std::string path = TempPath("roundtrip.snap");
  Fixture fx(path);

  auto loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->store->frozen());
  // Heap mode: the indexes are views into the owned buffer, so the file
  // is not needed after the load returns.
  EXPECT_TRUE(loaded->store->borrows_snapshot());
  std::remove(path.c_str());
  ExpectStoresMatch(*fx.store, *loaded->store);

  // Text index round-trips.
  ASSERT_NE(loaded->text, nullptr);
  EXPECT_EQ(loaded->text->indexed_literal_count(),
            fx.text->indexed_literal_count());
  EXPECT_EQ(loaded->text->ExactMatch("Germany"), fx.text->ExactMatch("Germany"));
  EXPECT_EQ(loaded->text->Match("October 2014"), fx.text->Match("October 2014"));

  // Schema graph parts round-trip and reconstruct.
  ASSERT_TRUE(loaded->vsg.has_value());
  auto graph = core::VirtualSchemaGraph::FromParts(
      loaded->vsg->nodes, loaded->vsg->edges, loaded->vsg->measures,
      loaded->vsg->observation_attrs);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->dimension_count(), fx.vsg->dimension_count());
  EXPECT_EQ(graph->level_count(), fx.vsg->level_count());
  EXPECT_EQ(graph->total_members(), fx.vsg->total_members());
  EXPECT_EQ(graph->measure_predicates(), fx.vsg->measure_predicates());
}

TEST(SnapshotTest, RoundTripMmapModeIsZeroCopyUntilMutation) {
  const std::string path = TempPath("mmap.snap");
  Fixture fx(path);

  SnapshotLoadOptions options;
  options.use_mmap = true;
  auto loaded = storage::LoadSnapshot(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->store->borrows_snapshot());
  ExpectStoresMatch(*fx.store, *loaded->store);

  // Mutating a borrowed store materializes owned copies; the store keeps
  // working after the mapping is released.
  loaded->store->Add(rdf::Term::Iri("http://test/extra"),
                     rdf::Term::Iri("http://test/p"),
                     rdf::Term::StringLiteral("extra"));
  loaded->store->Freeze();
  EXPECT_FALSE(loaded->store->borrows_snapshot());
  EXPECT_EQ(loaded->store->size(), fx.store->size() + 1);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ParallelSaveLoadMatchesSerial) {
  const std::string serial_path = TempPath("serial.snap");
  const std::string parallel_path = TempPath("parallel.snap");
  Fixture fx(serial_path);

  util::ThreadPool pool(4);
  SnapshotWriteOptions write_options;
  write_options.pool = &pool;
  storage::VsgImage image = storage::MakeVsgImage(*fx.vsg);
  ASSERT_TRUE(storage::SaveSnapshot(parallel_path, *fx.store, fx.text.get(),
                                    &image, write_options)
                  .ok());
  // Deterministic format: parallel and serial encodes produce identical
  // bytes.
  EXPECT_EQ(ReadAll(serial_path), ReadAll(parallel_path));

  SnapshotLoadOptions load_options;
  load_options.pool = &pool;
  auto loaded = storage::LoadSnapshot(parallel_path, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStoresMatch(*fx.store, *loaded->store);
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(SnapshotTest, FreezeEpochSurvivesSoEngineCachesBehaveIdentically) {
  const std::string path = TempPath("epoch.snap");
  Fixture fx;
  // Re-freeze to move the epoch past 1; the image must carry the exact
  // value.
  fx.store->Add(rdf::Term::Iri("http://test/x"),
                rdf::Term::Iri("http://test/p"),
                rdf::Term::StringLiteral("x"));
  fx.store->Freeze();
  ASSERT_EQ(fx.store->freeze_epoch(), 2u);
  ASSERT_TRUE(
      storage::SaveSnapshot(path, *fx.store, nullptr, nullptr).ok());

  auto loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->store->freeze_epoch(), 2u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, InspectReportsHeaderWithoutLoading) {
  const std::string path = TempPath("inspect.snap");
  Fixture fx(path);
  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status();
  // Raw stores write version-1 images; compressed stores version 2. Either
  // way the section count is 7 (one index trio + dict/stats/text/vsg).
  EXPECT_EQ(info->version, fx.store->compressed_index()
                               ? storage::kSnapshotVersionCompressed
                               : storage::kSnapshotVersion);
  EXPECT_EQ(info->triple_count, fx.store->size());
  EXPECT_EQ(info->term_count, fx.store->dictionary().size());
  EXPECT_TRUE(info->has_text_index);
  EXPECT_TRUE(info->has_vsg);
  EXPECT_EQ(info->sections.size(), 7u);  // dict + 3 indexes + stats + text + vsg
  std::remove(path.c_str());
}

// --- save preconditions ------------------------------------------------------

TEST(SnapshotTest, SaveRejectsUnfrozenAndEmptyStores) {
  rdf::TripleStore unfrozen;
  unfrozen.Add(rdf::Term::Iri("a"), rdf::Term::Iri("p"), rdf::Term::Iri("b"));
  EXPECT_TRUE(storage::SaveSnapshot(TempPath("never.snap"), unfrozen, nullptr,
                                    nullptr)
                  .IsInvalidArgument());

  rdf::TripleStore empty;
  empty.Freeze();
  EXPECT_TRUE(storage::SaveSnapshot(TempPath("never.snap"), empty, nullptr,
                                    nullptr)
                  .IsInvalidArgument());
}

// --- corruption suite --------------------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs discovered tests as separate concurrent
    // processes, and a shared path would race.
    path_ = TempPath(
        std::string(::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()) +
        "_corrupt.snap");
    fx_ = std::make_unique<Fixture>(path_);
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 128u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Every load mode must report the same typed failure.
  void ExpectLoadFails(util::StatusCode code, const std::string& hint) {
    for (bool mmap : {false, true}) {
      SnapshotLoadOptions options;
      options.use_mmap = mmap;
      auto loaded = storage::LoadSnapshot(path_, options);
      ASSERT_FALSE(loaded.ok()) << "mmap=" << mmap;
      EXPECT_EQ(loaded.status().code(), code)
          << "mmap=" << mmap << ": " << loaded.status();
      EXPECT_NE(loaded.status().message().find(hint), std::string::npos)
          << loaded.status();
    }
  }

  std::string path_;
  std::unique_ptr<Fixture> fx_;
  std::vector<char> bytes_;
};

TEST_F(SnapshotCorruptionTest, MissingFileIsNotFound) {
  auto loaded = storage::LoadSnapshot(TempPath("does_not_exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
}

TEST_F(SnapshotCorruptionTest, BadMagic) {
  bytes_[0] = 'X';
  WriteAll(path_, bytes_);
  ExpectLoadFails(util::StatusCode::kParseError, "bad magic");
  EXPECT_TRUE(storage::InspectSnapshot(path_).status().IsParseError());
  EXPECT_TRUE(storage::VerifySnapshot(path_).status().IsParseError());
}

TEST_F(SnapshotCorruptionTest, VersionSkewIsInvalidArgument) {
  // Version field sits right after the 8-byte magic.
  bytes_[8] = 99;
  WriteAll(path_, bytes_);
  ExpectLoadFails(util::StatusCode::kInvalidArgument, "version");
}

TEST_F(SnapshotCorruptionTest, TruncatedFile) {
  bytes_.resize(bytes_.size() / 2);
  WriteAll(path_, bytes_);
  ExpectLoadFails(util::StatusCode::kParseError, "truncated");
  EXPECT_TRUE(storage::VerifySnapshot(path_).status().IsParseError());
}

TEST_F(SnapshotCorruptionTest, TruncatedBelowFixedHeader) {
  bytes_.resize(17);
  WriteAll(path_, bytes_);
  ExpectLoadFails(util::StatusCode::kParseError, "truncated");
  EXPECT_TRUE(storage::InspectSnapshot(path_).status().IsParseError());
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlipFailsChecksum) {
  bytes_[bytes_.size() - 7] ^= 0x40;  // inside the last section's payload
  WriteAll(path_, bytes_);
  ExpectLoadFails(util::StatusCode::kParseError, "checksum");
  EXPECT_TRUE(storage::VerifySnapshot(path_).status().IsParseError());
  // Inspect only reads the header, so it still succeeds — by design.
  EXPECT_TRUE(storage::InspectSnapshot(path_).ok());
}

TEST_F(SnapshotCorruptionTest, HeaderBitFlipFailsHeaderChecksum) {
  bytes_[70] ^= 0x01;  // inside the section table
  WriteAll(path_, bytes_);
  ExpectLoadFails(util::StatusCode::kParseError, "checksum");
}

TEST_F(SnapshotCorruptionTest, ChecksumVerificationCanBeDisabledButBoundsStillHold) {
  bytes_[bytes_.size() - 7] ^= 0x40;
  WriteAll(path_, bytes_);
  SnapshotLoadOptions options;
  options.verify_checksums = false;
  // The flipped byte lands in the vsg section's id lists; either the load
  // succeeds with slightly different graph parts or fails a structural
  // check — both acceptable, crashing is not.
  auto loaded = storage::LoadSnapshot(path_, options);
  if (!loaded.ok()) {
    EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
  }
}

// --- guardrails & failpoints -------------------------------------------------

TEST(SnapshotTest, CancelledGuardAbortsSaveAndLoad) {
  const std::string path = TempPath("guard.snap");
  Fixture fx(path);
  util::CancellationToken token;
  token.Cancel();
  util::ExecGuard guard(util::ExecGuard::Limits{}, &token);

  SnapshotWriteOptions write_options;
  write_options.guard = &guard;
  EXPECT_TRUE(storage::SaveSnapshot(TempPath("never2.snap"), *fx.store,
                                    nullptr, nullptr, write_options)
                  .IsCancelled());

  SnapshotLoadOptions load_options;
  load_options.guard = &guard;
  EXPECT_TRUE(storage::LoadSnapshot(path, load_options)
                  .status()
                  .IsCancelled());
  std::remove(path.c_str());
}

TEST(SnapshotTest, FailpointsInjectTransientErrors) {
  const std::string path = TempPath("failpoint.snap");
  Fixture fx(path);
  auto& registry = util::FailpointRegistry::Global();

  registry.Arm("snapshot.save",
               {util::FailpointKind::kError, 0, /*remaining=*/1});
  EXPECT_TRUE(storage::SaveSnapshot(TempPath("never3.snap"), *fx.store,
                                    nullptr, nullptr)
                  .IsUnavailable());

  registry.Arm("snapshot.load",
               {util::FailpointKind::kError, 0, /*remaining=*/1});
  EXPECT_TRUE(storage::LoadSnapshot(path).status().IsUnavailable());
  registry.DisarmAll();

  // After the budgeted fire, both work again.
  EXPECT_TRUE(storage::LoadSnapshot(path).ok());
  std::remove(path.c_str());
}

// --- engine & session integration --------------------------------------------

TEST(SnapshotTest, EngineOpenSnapshotServesIdenticalQueries) {
  const std::string path = TempPath("engine.snap");
  Fixture fx;
  engine::QueryEngine cold(*fx.store);
  ASSERT_TRUE(cold.SaveSnapshot(path).ok());

  auto opened = engine::QueryEngine::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_NE(opened->engine, nullptr);

  const std::string query =
      "SELECT ?o ?v WHERE { ?o <http://test/numApplicants> ?v . }";
  auto a = cold.ExecuteText(query);
  auto b = opened->engine->ExecuteText(query);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ((*a)->rows().size(), (*b)->rows().size());

  // Identical epoch -> a second execution is a cache hit on both sides.
  ASSERT_TRUE(opened->engine->ExecuteText(query).ok());
  EXPECT_EQ(opened->engine->cache_stats().result_hits, 1u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SessionRoundTripExploresIdentically) {
  const std::string path = TempPath("session.snap");
  Fixture fx;
  core::Session cold(fx.store.get(), fx.vsg.get(), fx.text.get());
  ASSERT_TRUE(cold.SaveSnapshot(path).ok());

  auto warm = core::Session::OpenSnapshot(path);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_NE(warm->session, nullptr);

  auto cold_candidates = cold.Start({"Germany", "2014"});
  auto warm_candidates = warm->session->Start({"Germany", "2014"});
  ASSERT_TRUE(cold_candidates.ok()) << cold_candidates.status();
  ASSERT_TRUE(warm_candidates.ok()) << warm_candidates.status();
  ASSERT_EQ(cold_candidates->size(), warm_candidates->size());
  ASSERT_FALSE(warm_candidates->empty());

  ASSERT_TRUE(cold.PickCandidate(0).ok());
  ASSERT_TRUE(warm->session->PickCandidate(0).ok());
  auto cold_table = cold.Execute();
  auto warm_table = warm->session->Execute();
  ASSERT_TRUE(cold_table.ok()) << cold_table.status();
  ASSERT_TRUE(warm_table.ok()) << warm_table.status();
  ASSERT_EQ((*cold_table)->rows().size(), (*warm_table)->rows().size());
  // Bit-identical result tables.
  for (size_t r = 0; r < (*cold_table)->rows().size(); ++r) {
    EXPECT_EQ((*cold_table)->rows()[r], (*warm_table)->rows()[r]);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SessionOpenRejectsStoreOnlyImages) {
  const std::string path = TempPath("storeonly.snap");
  Fixture fx;
  ASSERT_TRUE(
      storage::SaveSnapshot(path, *fx.store, nullptr, nullptr).ok());
  auto opened = core::Session::OpenSnapshot(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument()) << opened.status();
  // But the engine-level and storage-level entry points accept it.
  EXPECT_TRUE(engine::QueryEngine::OpenSnapshot(path).ok());
  std::remove(path.c_str());
}

// --- text index section ------------------------------------------------------

/// A DBpedia(1000) image carrying the text index and the schema graph,
/// with its sections located in the header's section table.
class TextSectionTest : public ::testing::Test {
 protected:
  // Header layout: a 56-byte fixed prefix, then 32-byte section entries
  // (id u32, pad u32, offset u64, bytes u64, checksum u64), then the u64
  // header checksum over everything before it.
  static constexpr size_t kFixedHeaderBytes = 56;
  static constexpr size_t kEntryBytes = 32;

  void SetUp() override {
    path_ = TempPath(std::string(::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name()) +
                     "_text.snap");
    auto ds = qb::Generate(qb::DbpediaSpec(1000));
    ASSERT_TRUE(ds.ok()) << ds.status();
    store_ = std::move(ds->store);
    text_ = std::make_unique<rdf::TextIndex>(*store_);
    auto graph = core::VirtualSchemaGraph::Build(*store_,
                                                 ds->spec.observation_class);
    ASSERT_TRUE(graph.ok()) << graph.status();
    const storage::VsgImage vsg = storage::MakeVsgImage(*graph);
    util::Status st = storage::SaveSnapshot(path_, *store_, text_.get(), &vsg);
    ASSERT_TRUE(st.ok()) << st;
    image_ = ReadAll(path_);
    auto info = storage::InspectSnapshot(path_);
    ASSERT_TRUE(info.ok()) << info.status();
    sections_ = info->sections;
    const size_t text = Entry(storage::SectionId::kTextIndex);
    ASSERT_LT(text, sections_.size());
    section_ = sections_[text];
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Position of section `id` in the section table (SIZE_MAX if absent).
  size_t Entry(storage::SectionId id) const {
    for (size_t i = 0; i < sections_.size(); ++i) {
      if (sections_[i].id == id) return i;
    }
    return SIZE_MAX;
  }

  std::string Payload() const {
    return std::string(image_.data() + section_.offset, section_.bytes);
  }

  /// Writes the image with section `id`'s payload replaced by `payload`
  /// (no longer than the original) and both its checksum and the header
  /// checksum recomputed, so the section decoder — not a checksum — has
  /// to judge the bytes.
  void WriteWithSection(storage::SectionId id, const std::string& payload) {
    const size_t at = Entry(id);
    ASSERT_LT(at, sections_.size());
    ASSERT_LE(payload.size(), sections_[at].bytes);
    std::vector<char> image = image_;
    std::memcpy(image.data() + sections_[at].offset, payload.data(),
                payload.size());
    auto put = [&image](size_t offset, uint64_t v) {
      std::memcpy(image.data() + offset, &v, sizeof(v));
    };
    const size_t entry = kFixedHeaderBytes + at * kEntryBytes;
    put(entry + 16, payload.size());
    put(entry + 24, util::Xxh64(payload.data(), payload.size()));
    const size_t header = kFixedHeaderBytes + sections_.size() * kEntryBytes;
    put(header, util::Xxh64(image.data(), header));
    WriteAll(path_, image);
  }
  void WriteWithTextSection(const std::string& payload) {
    WriteWithSection(storage::SectionId::kTextIndex, payload);
  }

  /// Loads the rewritten image in both modes and requires the same typed
  /// ParseError naming `hint`.
  void ExpectSectionRejected(storage::SectionId id, const std::string& payload,
                             const std::string& hint) {
    WriteWithSection(id, payload);
    for (bool mmap : {false, true}) {
      SnapshotLoadOptions options;
      options.use_mmap = mmap;
      auto loaded = storage::LoadSnapshot(path_, options);
      ASSERT_FALSE(loaded.ok()) << "mmap=" << mmap << " hint=" << hint;
      EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
      EXPECT_NE(loaded.status().message().find(hint), std::string::npos)
          << loaded.status();
    }
  }
  void ExpectTextSectionRejected(const std::string& payload,
                                 const std::string& hint) {
    ExpectSectionRejected(storage::SectionId::kTextIndex, payload, hint);
  }

  std::string path_;
  std::unique_ptr<rdf::TripleStore> store_;
  std::unique_ptr<rdf::TextIndex> text_;
  std::vector<char> image_;
  std::vector<storage::SectionInfo> sections_;
  storage::SectionInfo section_;  // the text section
};

/// The same image, for tests of its schema-graph section.
class GraphSectionTest : public TextSectionTest {};

// The text section of a generated DBpedia store is pinned to the XXH64 the
// map-based index wrote, and a loaded index re-encodes to the same bytes.
TEST_F(TextSectionTest, SectionBytesMatchRecordedDigest) {
  EXPECT_EQ(section_.checksum, 12582234043719399162ull);
  const std::string payload = Payload();
  EXPECT_EQ(util::Xxh64(payload.data(), payload.size()), section_.checksum);

  auto loaded = storage::LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->text, nullptr);
  const std::string again = path_ + ".again";
  util::Status st = storage::SaveSnapshot(again, *loaded->store,
                                          loaded->text.get(), nullptr);
  ASSERT_TRUE(st.ok()) << st;
  auto info = storage::InspectSnapshot(again);
  std::remove(again.c_str());
  ASSERT_TRUE(info.ok()) << info.status();
  bool found = false;
  for (const storage::SectionInfo& s : info->sections) {
    if (s.id != storage::SectionId::kTextIndex) continue;
    found = true;
    EXPECT_EQ(s.bytes, section_.bytes);
    EXPECT_EQ(s.checksum, section_.checksum);
  }
  EXPECT_TRUE(found);
}

// Crafted sections: every structural defect is a typed ParseError.
TEST_F(TextSectionTest, MalformedSectionsYieldTypedStatus) {
  using Entries = std::vector<std::pair<std::string, std::vector<rdf::TermId>>>;
  auto table = [](storage::ByteWriter* w, const Entries& entries) {
    w->U64(entries.size());
    for (const auto& [key, ids] : entries) {
      w->Str(key);
      w->U64(ids.size());
      for (rdf::TermId id : ids) w->U32(id);
    }
  };
  auto section = [&](const Entries& exact, const Entries& postings) {
    storage::ByteWriter w;
    w.U64(2);
    table(&w, exact);
    table(&w, postings);
    return w.Take();
  };
  const Entries good = {{"east germany", {1, 2}}, {"germany", {3}}};
  const auto past_end =
      static_cast<rdf::TermId>(store_->dictionary().size() + 1);

  // The well-formed baseline loads and answers from its own tables.
  WriteWithTextSection(section(good, {{"germany", {1, 3}}}));
  {
    auto loaded = storage::LoadSnapshot(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->text->ExactMatch("Germany"),
              std::vector<rdf::TermId>{3});
    EXPECT_EQ(loaded->text->KeywordMatch("GERMANY"),
              (std::vector<rdf::TermId>{1, 3}));
    EXPECT_TRUE(loaded->text->KeywordMatch("east").empty());
  }

  ExpectTextSectionRejected(section({{"a", {1}}, {"a", {2}}}, good),
                            "not sorted/unique");
  ExpectTextSectionRejected(section(good, {{"b", {1}}, {"a", {2}}}),
                            "not sorted/unique");
  ExpectTextSectionRejected(section(good, {{"a", {3, 2}}}),
                            "posting list for \"a\"");
  ExpectTextSectionRejected(section({{"a", {2, 2}}}, good),
                            "posting list for \"a\"");
  ExpectTextSectionRejected(section({{"a", {past_end}}}, good),
                            "outside the dictionary");
  ExpectTextSectionRejected(section(good, {{"a", {0}}}),
                            "outside the dictionary");
  ExpectTextSectionRejected(section(good, good) + "x", "trailing garbage");

  storage::ByteWriter key_overrun;
  key_overrun.U64(2);
  key_overrun.U64(1);
  key_overrun.U32(1000);
  key_overrun.Bytes("ab", 2);
  ExpectTextSectionRejected(key_overrun.Take(), "overruns payload");

  // List and entry counts that would wrap a byte-size multiplication.
  for (uint64_t n : {uint64_t{1000}, uint64_t{1} << 62, ~uint64_t{0}}) {
    SCOPED_TRACE(n);
    storage::ByteWriter list_overrun;
    list_overrun.U64(2);
    list_overrun.U64(1);
    list_overrun.Str("a");
    list_overrun.U64(n);
    list_overrun.U32(1);
    ExpectTextSectionRejected(list_overrun.Take(), "overruns payload");
    storage::ByteWriter entries_overrun;
    entries_overrun.U64(2);
    entries_overrun.U64(n / 4 + 1);
    entries_overrun.U64(0);
    ExpectTextSectionRejected(entries_overrun.Take(), "overruns payload");
  }

  // Cut short inside the exact table, and with no postings table at all.
  const std::string full = section(good, good);
  ExpectTextSectionRejected(full.substr(0, 20), "");
  storage::ByteWriter no_postings;
  no_postings.U64(2);
  table(&no_postings, good);
  ExpectTextSectionRejected(no_postings.Take(), "");
}

// Crafted node and edge counts in the graph section are a typed
// ParseError, also where the count times the bytes of one entry wraps 64
// bits (2^63 nodes of 22 bytes, 2^62 edges of 12).
TEST_F(GraphSectionTest, CraftedCountsYieldTypedStatus) {
  auto words = [](std::initializer_list<uint64_t> values) {
    storage::ByteWriter w;
    for (uint64_t v : values) w.U64(v);
    return w.Take();
  };
  // Node, edge, measure and attribute counts all 0: an empty graph loads.
  WriteWithSection(storage::SectionId::kVsg, words({0, 0, 0, 0}));
  {
    auto loaded = storage::LoadSnapshot(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_TRUE(loaded->vsg.has_value());
    EXPECT_TRUE(loaded->vsg->nodes.empty());
    EXPECT_TRUE(loaded->vsg->edges.empty());
  }
  for (uint64_t n : {uint64_t{1000}, uint64_t{1} << 62, uint64_t{1} << 63,
                     ~uint64_t{0}}) {
    SCOPED_TRACE(n);
    ExpectSectionRejected(storage::SectionId::kVsg, words({n, 0, 0, 0}),
                          "graph nodes overrun payload");
    ExpectSectionRejected(storage::SectionId::kVsg, words({0, n, 0, 0}),
                          "graph edges overrun payload");
  }
}

// Seeded bit flips and truncations of the real section: each load either
// succeeds with a usable index or fails with a typed ParseError.
TEST_F(TextSectionTest, SeededMutationsYieldTypedStatus) {
  const std::string original = Payload();
  util::Rng rng(18);
  size_t rejected = 0;
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    std::string payload = original;
    const uint64_t kind = rng.Uniform(3);
    if (kind != 1) {
      for (uint64_t flips = 1 + rng.Uniform(4); flips > 0; --flips) {
        payload[rng.Uniform(payload.size())] ^=
            static_cast<char>(1u << rng.Uniform(8));
      }
    }
    if (kind != 0) payload.resize(rng.Uniform(payload.size()));
    WriteWithTextSection(payload);
    SnapshotLoadOptions options;
    options.use_mmap = round % 2 == 1;
    auto loaded = storage::LoadSnapshot(path_, options);
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
      ++rejected;
      continue;
    }
    // A surviving mutation still yields a well-formed index to query
    // (sampled: every 16th key of each table).
    ASSERT_NE(loaded->text, nullptr);
    const rdf::TextIndex& text = *loaded->text;
    size_t visited = 0;
    text.ForEachExact([&](std::string_view key, auto ids) {
      if (visited++ % 16 == 0 && util::ToLower(key) == key) {
        EXPECT_EQ(text.ExactMatch(key).size(), ids.size()) << key;
      }
    });
    text.ForEachPosting([&](std::string_view key, auto) {
      if (visited++ % 16 != 0) return;
      const std::vector<rdf::TermId> got = text.Match(key);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << key;
    });
  }
  // Truncations alone guarantee a good share of rejections.
  EXPECT_GT(rejected, static_cast<size_t>(kRounds / 3));
}

}  // namespace
}  // namespace re2xolap
