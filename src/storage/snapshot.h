#ifndef RE2XOLAP_STORAGE_SNAPSHOT_H_
#define RE2XOLAP_STORAGE_SNAPSHOT_H_

// Persistent snapshot subsystem: versioned binary store images with mmap
// fast-boot. A snapshot serializes a complete frozen dataset — Dictionary
// terms, the two stored TripleStore index permutations with their
// freeze_epoch, per-predicate statistics, the TextIndex postings, and the
// VirtualSchemaGraph — into one file, so subsequent processes boot by
// loading (or zero-copy mmap-ing) the image instead of re-parsing
// N-Triples and re-crawling the graph (the paper's Fig-6 bootstrap cost,
// paid once instead of per process).
//
// File layout (all integers little-endian):
//
//   +--------------------------------------------------------------+
//   | magic "R2XSNAP\n" | version u32 | section_count u32          |
//   | file_bytes u64 | freeze_epoch u64                            |
//   | triple_count u64 | term_count u64 | flags u64                |
//   +--------------------------------------------------------------+
//   | section table: section_count x                               |
//   |   { id u32 | pad u32 | offset u64 | bytes u64 | xxh64 u64 }  |
//   +--------------------------------------------------------------+
//   | header_checksum u64  (XXH64 of every preceding byte)         |
//   +--- 64-byte aligned ------------------------------------------+
//   | section payloads, each 64-byte aligned, checksummed above    |
//   +--------------------------------------------------------------+
//
// The triple-index sections (SPO/POS) are raw arrays of 12-byte (s,p,o)
// id triples at 64-byte-aligned offsets, so a loader points the store's
// IndexBase directly into the loaded image (zero copy) instead of copying.
// The OSP order is a view over POS (rdf/triple_store.h) and is not
// written.
//
// There is one version, kSnapshotVersion. The index pair and the stats
// section always describe one rdf::IndexBase: a frozen store's, or a live
// store's chain base, in which case header triple_count counts that base
// and freeze_epoch is the chain's epoch. A live store (rdf/delta_layer.h)
// always writes a kDeltaChain section, with zero layers when the chain is
// fully compacted; that section's presence is what marks an image live.
// The loader adopts the base and, for a live image, re-enters live mode
// with the saved layers at the saved epoch (TripleStore::EnterLive), so
// queries, cache keys and the visible triple set resume exactly where the
// saved process stopped. Every other version — the frozen 1, the block-
// compressed 2 and the live 3 of older builds — fails the version check
// with kInvalidArgument. Saving a live store requires ingestion to be
// quiesced — no concurrent IngestText/Compact publication during the
// save.
//
// Corruption is a first-class path: every failure mode surfaces as a typed
// util::Status, never UB —
//   bad magic / truncation / checksum mismatch / malformed payload
//     / out-of-range term ids / unsorted index        -> kParseError
//   unsupported version / snapshot of an empty store  -> kInvalidArgument
//   missing file                                      -> kNotFound
//   I/O errors                                        -> kExecutionError
//   tripped ExecGuard                                 -> kTimeout / ...

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/virtual_schema_graph.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "util/exec_guard.h"
#include "util/result.h"
#include "util/status.h"

namespace re2xolap::util {
class ThreadPool;
}

namespace re2xolap::storage {

inline constexpr char kSnapshotMagic[8] = {'R', '2', 'X', 'S',
                                           'N', 'A', 'P', '\n'};
/// The one version this build reads and writes. Versions 1-3 belong to
/// older builds and are refused.
inline constexpr uint32_t kSnapshotVersion = 4;
/// Section payloads (and the first payload after the header) start at
/// multiples of this, so raw triple arrays are safely mmap-addressable.
inline constexpr uint64_t kSectionAlignment = 64;

/// Section identifiers in the section table. Values are part of the file
/// format; never renumber.
enum class SectionId : uint32_t {
  kDictionary = 1,      // interned terms, id order
  kSpo = 2,             // raw EncodedTriple array sorted by (s,p,o)
  kPos = 3,             // raw EncodedTriple array sorted by (p,o,s)
  // Id 4 held older builds' (o,s,p) array. Reserved, never reused.
  kPredicateStats = 5,  // planner cardinality statistics
  kTextIndex = 6,       // keyword + exact postings (optional)
  kVsg = 7,             // virtual schema graph parts (optional)
  // Ids 8-10 (block-compressed permutations) and 11 (a six-array delta
  // chain) held sections of older builds. Reserved, never reused.
  // Live images only: the store's sealed delta layers (inserts and
  // tombstones above the base index pair). Layout: layer_count u64 (0 for
  // a fully compacted chain), then per layer { batch_id u64 | add_count
  // u64 | del_count u64 } followed by four raw EncodedTriple arrays (add
  // spo/pos, then del spo/pos).
  kDeltaChain = 12,
};

/// Stable display name ("dictionary", "spo", ...) for diagnostics.
const char* SectionName(SectionId id);

/// Flag bits in the header's `flags` word.
inline constexpr uint64_t kFlagHasTextIndex = 1u << 0;
inline constexpr uint64_t kFlagHasVsg = 1u << 1;

/// One section-table entry as parsed from (or written to) an image.
struct SectionInfo {
  SectionId id = SectionId::kDictionary;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

/// Parsed header + section table of a snapshot image.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t file_bytes = 0;
  uint64_t freeze_epoch = 0;
  uint64_t triple_count = 0;
  uint64_t term_count = 0;
  bool has_text_index = false;
  bool has_vsg = false;
  std::vector<SectionInfo> sections;
};

/// The VirtualSchemaGraph's constituent parts as stored in a snapshot.
/// Reconstruct with core::VirtualSchemaGraph::FromParts (which re-derives
/// the member index and level paths and validates edge endpoints); capture
/// from a live graph with MakeVsgImage below.
struct VsgImage {
  std::vector<core::VsgNode> nodes;
  std::vector<core::VsgEdge> edges;
  std::vector<rdf::TermId> measures;
  std::vector<rdf::TermId> observation_attrs;
};

/// Copies the serializable parts out of a built graph.
inline VsgImage MakeVsgImage(const core::VirtualSchemaGraph& g) {
  return VsgImage{g.nodes(), g.edges(), g.measure_predicates(),
                  g.observation_attributes()};
}

/// Options for SaveSnapshot. When `pool` is non-null, section encoding and
/// checksumming fan out across it; `guard` is polled between sections and
/// inside the long per-term/posting loops, so an expired deadline aborts
/// the save with its typed status (and no file is left behind — writes are
/// atomic via rename).
struct SnapshotWriteOptions {
  util::ThreadPool* pool = nullptr;
  const util::ExecGuard* guard = nullptr;
};

/// Options for LoadSnapshot. The two triple-index arrays are always
/// zero-copy views into the loaded image (the store's IndexBase keeps the
/// image alive; see TripleStore::AdoptFrozenView); `use_mmap` selects what backs
/// the image: the mapped file (lazy page-in, cheapest start) or a heap
/// buffer read in one pass (independent of the file once loaded).
/// Dictionary, text and graph sections are always materialized on the
/// heap since they build hash indexes anyway. `verify_checksums` can be
/// disabled for trusted images to skip the checksum pass (structural
/// bounds checks still run).
struct SnapshotLoadOptions {
  bool use_mmap = false;
  bool verify_checksums = true;
  util::ThreadPool* pool = nullptr;
  const util::ExecGuard* guard = nullptr;
};

/// A reconstructed dataset image. `store` is always present and frozen at
/// the image's epoch; `text` and `vsg` are present when the image carried
/// those sections. The zero-copy mapping (if any) is owned by the store.
/// Live images hand back a store already in live mode with the saved
/// delta layers above the base at the saved epoch.
struct LoadedSnapshot {
  SnapshotInfo info;
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<rdf::TextIndex> text;
  std::optional<VsgImage> vsg;
};

/// Serializes `store` (which must be frozen and non-empty) plus the
/// optional text index and graph image into a snapshot file at `path`.
/// Live stores write their chain base plus a delta_chain section (see the
/// format notes above); the caller must quiesce ingestion first.
/// Registered failpoint: `snapshot.save`.
util::Status SaveSnapshot(const std::string& path,
                          const rdf::TripleStore& store,
                          const rdf::TextIndex* text, const VsgImage* vsg,
                          const SnapshotWriteOptions& options = {});

/// Validates and reconstructs a snapshot image saved by SaveSnapshot. The
/// loaded store observes the exact freeze_epoch the image was saved at, so
/// engine cache keys behave identically across the save/load cycle.
/// Registered failpoint: `snapshot.load`.
util::Result<LoadedSnapshot> LoadSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

/// Reads and validates only the header + section table (magic, version,
/// declared vs actual file size, header checksum) — no payload pages are
/// touched, so this is O(header) regardless of image size.
util::Result<SnapshotInfo> InspectSnapshot(const std::string& path);

/// Full integrity pass: header validation plus every section checksum
/// (parallelized over `pool` when given). Does not reconstruct anything.
util::Result<SnapshotInfo> VerifySnapshot(const std::string& path,
                                          util::ThreadPool* pool = nullptr);

}  // namespace re2xolap::storage

#endif  // RE2XOLAP_STORAGE_SNAPSHOT_H_
