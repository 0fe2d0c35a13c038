#include "storage/snapshot.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "rdf/delta_layer.h"
#include "storage/snapshot_io.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace re2xolap::storage {

// The triple-index sections are raw memory images of EncodedTriple arrays;
// the format is only valid if the in-memory layout is the expected packed
// little-endian (u32 s, u32 p, u32 o).
static_assert(sizeof(rdf::EncodedTriple) == 12,
              "EncodedTriple layout is part of the snapshot format");
static_assert(std::is_trivially_copyable_v<rdf::EncodedTriple>);
static_assert(std::endian::native == std::endian::little,
              "snapshot images are little-endian");

namespace {

using rdf::EncodedTriple;
using rdf::TermId;

// Fixed header prefix: magic(8) version(4) section_count(4) file_bytes(8)
// freeze_epoch(8) triple_count(8) term_count(8) flags(8).
constexpr uint64_t kFixedHeaderBytes = 56;
constexpr uint64_t kSectionEntryBytes = 32;
constexpr uint32_t kMaxSections = 64;
// Poll the ExecGuard every this many loop iterations in term/posting loops.
constexpr size_t kGuardStride = 1 << 16;

uint64_t AlignUp(uint64_t v) {
  return (v + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

uint64_t HeaderBytes(size_t section_count) {
  return kFixedHeaderBytes + section_count * kSectionEntryBytes + 8;
}

// Permutation orders, mirroring the (internal) comparators the TripleStore
// sorts with; load-time validation re-checks sortedness so binary searches
// on an adopted image behave exactly like on a freshly frozen store.
// Functors (not functions) so the validation loop instantiates per order
// and the comparison inlines instead of going through a function pointer.
struct SpoLessCmp {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct PosLessCmp {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};
inline constexpr SpoLessCmp SpoLess{};
inline constexpr PosLessCmp PosLess{};

util::Status GuardCheck(const util::ExecGuard* guard) {
  return guard == nullptr ? util::Status::OK() : guard->Check();
}

/// Runs fn(i) for i in [0, n), across `pool` when available. `fn` must be
/// exception-free (it reports problems through per-index slots).
void RunParallel(util::ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->size() > 0) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

// --- section payload encoders ------------------------------------------------

util::Status EncodeDictionary(const rdf::Dictionary& dict,
                              const util::ExecGuard* guard,
                              std::string* out) {
  ByteWriter w;
  w.Reserve(dict.size() * 24);
  w.U64(dict.size());
  util::Status st;
  size_t i = 0;
  dict.ForEach([&](TermId, rdf::TermView t) {
    if (!st.ok()) return;
    if (++i % kGuardStride == 0) st = GuardCheck(guard);
    w.U8(static_cast<uint8_t>(t.kind));
    w.U8(static_cast<uint8_t>(t.literal_type));
    w.Str(t.value);
  });
  RE2X_RETURN_IF_ERROR(st);
  *out = w.Take();
  return util::Status::OK();
}

util::Status EncodeStats(
    const std::unordered_map<TermId, rdf::PredicateStats>& stats,
    std::string* out) {
  // Deterministic images: emit in predicate-id order.
  std::vector<TermId> keys;
  keys.reserve(stats.size());
  for (const auto& [p, st] : stats) keys.push_back(p);
  std::sort(keys.begin(), keys.end());
  ByteWriter w;
  w.Reserve(8 + keys.size() * 28);
  w.U64(keys.size());
  for (TermId p : keys) {
    const rdf::PredicateStats& st = stats.at(p);
    w.U32(p);
    w.U64(st.triple_count);
    w.U64(st.distinct_subjects);
    w.U64(st.distinct_objects);
  }
  *out = w.Take();
  return util::Status::OK();
}

util::Status EncodeTextIndex(const rdf::TextIndex& text,
                             const util::ExecGuard* guard, std::string* out) {
  RE2X_RETURN_IF_ERROR(GuardCheck(guard));
  ByteWriter w;
  // Each table: u64 key count, then per key in ascending key order the
  // u32-length-prefixed key, the u64 list length and the u32 ids.
  auto put = [&w](std::string_view key, std::span<const TermId> ids) {
    w.Str(key);
    w.U64(ids.size());
    w.Bytes(ids.data(), ids.size_bytes());
  };
  w.U64(text.indexed_literal_count());
  w.U64(text.exact_key_count());
  text.ForEachExact(put);
  RE2X_RETURN_IF_ERROR(GuardCheck(guard));
  w.U64(text.distinct_token_count());
  text.ForEachPosting(put);
  *out = w.Take();
  return util::Status::OK();
}

util::Status EncodeVsg(const VsgImage& vsg, std::string* out) {
  ByteWriter w;
  w.U64(vsg.nodes.size());
  for (const core::VsgNode& n : vsg.nodes) {
    w.I32(n.id);
    w.U8(n.is_root ? 1 : 0);
    w.Str(n.name);
    w.U64(n.members.size());
    for (TermId m : n.members) w.U32(m);
    w.U64(n.attribute_predicates.size());
    for (TermId a : n.attribute_predicates) w.U32(a);
  }
  w.U64(vsg.edges.size());
  for (const core::VsgEdge& e : vsg.edges) {
    w.I32(e.from);
    w.I32(e.to);
    w.U32(e.predicate);
  }
  w.U64(vsg.measures.size());
  for (TermId m : vsg.measures) w.U32(m);
  w.U64(vsg.observation_attrs.size());
  for (TermId a : vsg.observation_attrs) w.U32(a);
  *out = w.Take();
  return util::Status::OK();
}

util::Status EncodeDeltaChain(const rdf::EpochChain& chain, std::string* out) {
  ByteWriter w;
  w.Reserve(8 + (chain.delta_adds + chain.delta_dels) * 2 *
                    sizeof(EncodedTriple));
  w.U64(chain.layers.size());
  for (const std::shared_ptr<const rdf::DeltaLayer>& layer : chain.layers) {
    w.U64(layer->batch_id);
    w.U64(layer->add_count());
    w.U64(layer->del_count());
    const std::vector<EncodedTriple>* arrays[4] = {
        &layer->add_spo, &layer->add_pos, &layer->del_spo, &layer->del_pos};
    for (const std::vector<EncodedTriple>* a : arrays) {
      w.Bytes(a->data(), a->size() * sizeof(EncodedTriple));
    }
  }
  *out = w.Take();
  return util::Status::OK();
}

// --- section payload decoders ------------------------------------------------

util::Status CheckTermId(uint32_t id, uint64_t term_count, const char* what) {
  if (id == rdf::kInvalidTermId || id > term_count) {
    return util::Status::ParseError(
        std::string("snapshot ") + what + " references term id " +
        std::to_string(id) + " outside the dictionary (" +
        std::to_string(term_count) + " terms)");
  }
  return util::Status::OK();
}

/// Appends a u64-counted list of term ids to `out`, bounds-checking the
/// count against the remaining payload before growing and every id
/// against the dictionary size.
util::Status AppendIdList(ByteReader* r, uint64_t term_count, const char* what,
                          std::vector<TermId>* out) {
  uint64_t n = 0;
  RE2X_RETURN_IF_ERROR(r->U64(&n));
  // Divide rather than multiply: a crafted count must not wrap.
  if (n > r->remaining() / sizeof(TermId)) {
    return util::Status::ParseError(
        std::string("snapshot ") + what + " id list overruns payload");
  }
  // Bulk-copy the array (bounds were checked above), then range-check with
  // plain compares; a Status is only built on the failure path. Id lists
  // appear once per posting / member list, so this loop is hot.
  const size_t base = out->size();
  out->resize(base + n);
  if (n > 0) {
    std::memcpy(out->data() + base, r->cursor(), n * sizeof(TermId));
    RE2X_RETURN_IF_ERROR(r->Skip(n * sizeof(TermId)));
  }
  const uint32_t max_id =
      static_cast<uint32_t>(std::min<uint64_t>(term_count, UINT32_MAX));
  for (size_t i = base; i < out->size(); ++i) {
    const uint32_t id = (*out)[i];
    if (id - 1 >= max_id) [[unlikely]] {
      return CheckTermId(id, term_count, what);
    }
  }
  return util::Status::OK();
}

/// Reads a u64-counted list of term ids into `out` (replacing it).
util::Status ReadIdList(ByteReader* r, uint64_t term_count, const char* what,
                        std::vector<TermId>* out) {
  out->clear();
  return AppendIdList(r, term_count, what, out);
}

util::Status DecodeDictionary(const std::byte* data, size_t bytes,
                              uint64_t term_count,
                              const util::ExecGuard* guard,
                              rdf::Dictionary* dict) {
  ByteReader r(data, bytes);
  uint64_t count = 0;
  RE2X_RETURN_IF_ERROR(r.U64(&count));
  if (count != term_count) {
    return util::Status::ParseError(
        "snapshot dictionary declares " + std::to_string(count) +
        " terms but the header says " + std::to_string(term_count));
  }
  // Each term occupies at least 6 bytes (kind + type + length), so a
  // crafted count cannot force an oversized reservation. (Dividing, not
  // multiplying, keeps a huge count from wrapping past the check.) The
  // lexical forms total what the entries leave after their 6-byte heads,
  // which sizes the dictionary's text buffer exactly.
  if (count > r.remaining() / 6) {
    return util::Status::ParseError("snapshot dictionary overruns payload");
  }
  dict->Reserve(count, r.remaining() - count * 6, count);
  for (uint64_t i = 0; i < count; ++i) {
    if ((i + 1) % kGuardStride == 0) RE2X_RETURN_IF_ERROR(GuardCheck(guard));
    uint8_t kind = 0, lt = 0;
    std::string_view value;
    RE2X_RETURN_IF_ERROR(r.U8(&kind));
    RE2X_RETURN_IF_ERROR(r.U8(&lt));
    RE2X_RETURN_IF_ERROR(r.StrView(&value));
    if (kind > static_cast<uint8_t>(rdf::TermKind::kBlankNode) ||
        lt > static_cast<uint8_t>(rdf::LiteralType::kOther)) {
      return util::Status::ParseError(
          "snapshot dictionary term " + std::to_string(i + 1) +
          " has invalid kind/type tags");
    }
    // The entry's bytes go straight into the dictionary's text buffer,
    // under id i + 1 (the dictionary is empty), unprobed.
    dict->Append(rdf::TermView(static_cast<rdf::TermKind>(kind), value,
                               static_cast<rdf::LiteralType>(lt)));
  }
  if (r.remaining() != 0) {
    return util::Status::ParseError(
        "snapshot dictionary has trailing garbage");
  }
  // One index pass over every entry, on this thread: this decode is itself
  // a task on the loader's pool, which must not nest a ParallelFor.
  if (util::Status st = dict->IndexAppended(nullptr); !st.ok()) {
    return util::Status::ParseError(
        "snapshot dictionary contains a duplicate term: " + st.message());
  }
  return util::Status::OK();
}

util::Status DecodeStats(const std::byte* data, size_t bytes,
                         uint64_t term_count,
                         std::unordered_map<TermId, rdf::PredicateStats>* out) {
  ByteReader r(data, bytes);
  uint64_t count = 0;
  RE2X_RETURN_IF_ERROR(r.U64(&count));
  if (count > r.remaining() / 28) {
    return util::Status::ParseError(
        "snapshot predicate stats overrun payload");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t p = 0;
    rdf::PredicateStats st;
    RE2X_RETURN_IF_ERROR(r.U32(&p));
    RE2X_RETURN_IF_ERROR(r.U64(&st.triple_count));
    RE2X_RETURN_IF_ERROR(r.U64(&st.distinct_subjects));
    RE2X_RETURN_IF_ERROR(r.U64(&st.distinct_objects));
    RE2X_RETURN_IF_ERROR(CheckTermId(p, term_count, "predicate stats"));
    if (!out->emplace(p, st).second) {
      return util::Status::ParseError(
          "snapshot predicate stats repeat predicate " + std::to_string(p));
    }
  }
  if (r.remaining() != 0) {
    return util::Status::ParseError(
        "snapshot predicate stats have trailing garbage");
  }
  return util::Status::OK();
}

/// Decodes one key table straight into its flat form. Keys must be
/// strictly ascending (which also rules out repeats) and each id list
/// strictly ascending, so the decoded table is exactly what the encoder
/// visited.
util::Status DecodeKeyTable(ByteReader* r, uint64_t term_count,
                            const char* what, const util::ExecGuard* guard,
                            rdf::TextIndex::KeyTable* out) {
  uint64_t entries = 0;
  RE2X_RETURN_IF_ERROR(r->U64(&entries));
  // Each entry needs at least 12 bytes (key length + list length).
  if (entries > r->remaining() / 12) {
    return util::Status::ParseError(std::string("snapshot ") + what +
                                    " overruns payload");
  }
  out->key_offsets.reserve(entries + 1);
  out->list_offsets.reserve(entries + 1);
  // The previous key, as a view into the payload.
  std::string_view prev;
  for (uint64_t i = 0; i < entries; ++i) {
    if ((i + 1) % kGuardStride == 0) RE2X_RETURN_IF_ERROR(GuardCheck(guard));
    uint32_t len = 0;
    RE2X_RETURN_IF_ERROR(r->U32(&len));
    if (len > r->remaining()) {
      return util::Status::ParseError(std::string("snapshot ") + what +
                                      " key overruns payload");
    }
    const std::string_view key(reinterpret_cast<const char*>(r->cursor()),
                               len);
    RE2X_RETURN_IF_ERROR(r->Skip(len));
    if (i > 0 && key <= prev) {
      return util::Status::ParseError(std::string("snapshot ") + what +
                                      " keys are not sorted/unique at \"" +
                                      std::string(key) + "\"");
    }
    prev = key;
    const size_t base = out->ids.size();
    RE2X_RETURN_IF_ERROR(AppendIdList(r, term_count, what, &out->ids));
    // Posting lists must be strictly increasing: KeywordMatch intersects
    // them with std::set_intersection, which requires sorted input.
    for (size_t j = base + 1; j < out->ids.size(); ++j) {
      if (out->ids[j] <= out->ids[j - 1]) [[unlikely]] {
        return util::Status::ParseError(std::string("snapshot ") + what +
                                        " posting list for \"" +
                                        std::string(key) +
                                        "\" is not sorted/unique");
      }
    }
    // The payload is bounded by the file, which may exceed what 32-bit
    // offsets address.
    if (out->keys.size() + len > UINT32_MAX || out->ids.size() > UINT32_MAX) {
      return util::Status::ParseError(std::string("snapshot ") + what +
                                      " exceeds 32-bit offsets");
    }
    out->keys.append(key);
    out->key_offsets.push_back(static_cast<uint32_t>(out->keys.size()));
    out->list_offsets.push_back(static_cast<uint32_t>(out->ids.size()));
  }
  return util::Status::OK();
}

util::Status DecodeTextIndex(const std::byte* data, size_t bytes,
                             uint64_t term_count,
                             const util::ExecGuard* guard,
                             std::unique_ptr<rdf::TextIndex>* out) {
  ByteReader r(data, bytes);
  uint64_t indexed = 0;
  RE2X_RETURN_IF_ERROR(r.U64(&indexed));
  rdf::TextIndex::KeyTable exact, postings;
  RE2X_RETURN_IF_ERROR(
      DecodeKeyTable(&r, term_count, "text exact index", guard, &exact));
  RE2X_RETURN_IF_ERROR(
      DecodeKeyTable(&r, term_count, "text postings", guard, &postings));
  if (r.remaining() != 0) {
    return util::Status::ParseError("snapshot text index has trailing garbage");
  }
  *out = rdf::TextIndex::FromParts(std::move(exact), std::move(postings),
                                   static_cast<size_t>(indexed));
  return util::Status::OK();
}

util::Status DecodeVsg(const std::byte* data, size_t bytes,
                       uint64_t term_count, VsgImage* out) {
  ByteReader r(data, bytes);
  uint64_t node_count = 0;
  RE2X_RETURN_IF_ERROR(r.U64(&node_count));
  // A node takes at least 22 bytes and an edge 12; dividing keeps a
  // crafted count from wrapping the bound.
  if (node_count > r.remaining() / 22) {
    return util::Status::ParseError("snapshot graph nodes overrun payload");
  }
  out->nodes.clear();
  out->nodes.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    core::VsgNode n;
    uint8_t is_root = 0;
    RE2X_RETURN_IF_ERROR(r.I32(&n.id));
    RE2X_RETURN_IF_ERROR(r.U8(&is_root));
    n.is_root = is_root != 0;
    RE2X_RETURN_IF_ERROR(r.Str(&n.name));
    RE2X_RETURN_IF_ERROR(
        ReadIdList(&r, term_count, "graph node members", &n.members));
    RE2X_RETURN_IF_ERROR(ReadIdList(&r, term_count, "graph node attributes",
                                    &n.attribute_predicates));
    out->nodes.push_back(std::move(n));
  }
  uint64_t edge_count = 0;
  RE2X_RETURN_IF_ERROR(r.U64(&edge_count));
  if (edge_count > r.remaining() / 12) {
    return util::Status::ParseError("snapshot graph edges overrun payload");
  }
  out->edges.clear();
  out->edges.reserve(edge_count);
  for (uint64_t i = 0; i < edge_count; ++i) {
    core::VsgEdge e;
    uint32_t pred = 0;
    RE2X_RETURN_IF_ERROR(r.I32(&e.from));
    RE2X_RETURN_IF_ERROR(r.I32(&e.to));
    RE2X_RETURN_IF_ERROR(r.U32(&pred));
    RE2X_RETURN_IF_ERROR(CheckTermId(pred, term_count, "graph edge"));
    e.predicate = pred;
    out->edges.push_back(e);
  }
  RE2X_RETURN_IF_ERROR(
      ReadIdList(&r, term_count, "graph measures", &out->measures));
  RE2X_RETURN_IF_ERROR(ReadIdList(&r, term_count, "graph observation attrs",
                                  &out->observation_attrs));
  if (r.remaining() != 0) {
    return util::Status::ParseError("snapshot graph has trailing garbage");
  }
  return util::Status::OK();
}

// --- triple-index validation -------------------------------------------------

/// Validates one permutation array: every id within the dictionary and the
/// array sorted by `less` (binary search on an adopted image must behave
/// exactly like on a freshly frozen store). Chunked so a pool can fan the
/// scan across cores; the per-chunk boundary element overlaps its
/// predecessor so sortedness across chunk seams is covered.
template <typename Less>
util::Status ValidateTriples(std::span<const EncodedTriple> triples,
                             uint64_t term_count, Less less,
                             const char* what, util::ThreadPool* pool,
                             const util::ExecGuard* guard) {
  RE2X_RETURN_IF_ERROR(GuardCheck(guard));
  obs::Span span("snapshot.load.validate");
  span.SetAttr("index", what);
  constexpr size_t kChunk = 1 << 20;
  const size_t n = triples.size();
  const size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<util::Status> statuses(chunks);
  // The id bound fits u32 (term ids are u32), so the hot loop compares
  // 32-bit values and only the failure path builds a Status.
  const uint32_t max_id =
      static_cast<uint32_t>(std::min<uint64_t>(term_count, UINT32_MAX));
  RunParallel(pool, chunks, [&](size_t c) {
    const size_t begin = c * kChunk;
    const size_t end = std::min(n, begin + kChunk);
    for (size_t i = begin; i < end; ++i) {
      const EncodedTriple& t = triples[i];
      if (t.s - 1 >= max_id || t.p - 1 >= max_id || t.o - 1 >= max_id)
          [[unlikely]] {
        uint32_t bad = t.s - 1 >= max_id ? t.s : (t.p - 1 >= max_id ? t.p : t.o);
        statuses[c] = CheckTermId(bad, term_count, what);
        return;
      }
      if (i > 0 && !less(triples[i - 1], t)) [[unlikely]] {
        statuses[c] = util::Status::ParseError(
            std::string("snapshot ") + what +
            " index is not strictly sorted at position " + std::to_string(i));
        return;
      }
    }
  });
  for (const util::Status& st : statuses) RE2X_RETURN_IF_ERROR(st);
  return util::Status::OK();
}

// --- delta chain section (live images) ----------------------------------------

/// Decodes and validates the sealed delta layers of a live image.
/// Structural validation matches the base pair's: every array strictly
/// sorted in its permutation order with every id inside the dictionary.
/// (The set-semantics invariants — adds not yet visible, deletes visible —
/// relate layers to the base and to each other; they are the writer's
/// responsibility and are covered by the section checksums, exactly like
/// the base pair's agreement with the stats section.)
util::Result<std::vector<std::shared_ptr<const rdf::DeltaLayer>>>
DecodeDeltaChain(const std::byte* data, size_t bytes, uint64_t term_count,
                 util::ThreadPool* pool, const util::ExecGuard* guard) {
  ByteReader r(data, bytes);
  uint64_t layer_count = 0;
  RE2X_RETURN_IF_ERROR(r.U64(&layer_count));
  // Each layer occupies at least its 24-byte fixed part.
  if (layer_count > r.remaining() / 24) {
    return util::Status::ParseError("snapshot delta_chain overruns payload");
  }
  std::vector<std::shared_ptr<const rdf::DeltaLayer>> layers;
  layers.reserve(layer_count);
  for (uint64_t i = 0; i < layer_count; ++i) {
    auto layer = std::make_shared<rdf::DeltaLayer>();
    uint64_t add_count = 0, del_count = 0;
    RE2X_RETURN_IF_ERROR(r.U64(&layer->batch_id));
    RE2X_RETURN_IF_ERROR(r.U64(&add_count));
    RE2X_RETURN_IF_ERROR(r.U64(&del_count));
    if (add_count == 0 && del_count == 0) {
      return util::Status::ParseError(
          "snapshot delta_chain layer " + std::to_string(i) +
          " is empty; empty batches are never published");
    }
    // Each triple is stored twice (one array per stored index order).
    const uint64_t room = r.remaining() / (2 * sizeof(EncodedTriple));
    if (add_count > room || del_count > room - add_count) {
      return util::Status::ParseError("snapshot delta_chain layer " +
                                      std::to_string(i) +
                                      " overruns payload");
    }
    struct Part {
      std::vector<EncodedTriple>* arr;
      uint64_t count;
      const char* what;
    };
    const Part parts[4] = {
        {&layer->add_spo, add_count, "delta add_spo"},
        {&layer->add_pos, add_count, "delta add_pos"},
        {&layer->del_spo, del_count, "delta del_spo"},
        {&layer->del_pos, del_count, "delta del_pos"},
    };
    for (const Part& p : parts) {
      p.arr->resize(p.count);
      if (p.count > 0) {
        std::memcpy(p.arr->data(), r.cursor(),
                    p.count * sizeof(EncodedTriple));
        RE2X_RETURN_IF_ERROR(r.Skip(p.count * sizeof(EncodedTriple)));
      }
    }
    RE2X_RETURN_IF_ERROR(ValidateTriples(std::span<const EncodedTriple>(
                                             layer->add_spo),
                                         term_count, SpoLess, "delta add_spo",
                                         pool, guard));
    RE2X_RETURN_IF_ERROR(ValidateTriples(std::span<const EncodedTriple>(
                                             layer->add_pos),
                                         term_count, PosLess, "delta add_pos",
                                         pool, guard));
    RE2X_RETURN_IF_ERROR(ValidateTriples(std::span<const EncodedTriple>(
                                             layer->del_spo),
                                         term_count, SpoLess, "delta del_spo",
                                         pool, guard));
    RE2X_RETURN_IF_ERROR(ValidateTriples(std::span<const EncodedTriple>(
                                             layer->del_pos),
                                         term_count, PosLess, "delta del_pos",
                                         pool, guard));
    layer->RebuildPredicateDelta();
    layers.push_back(std::move(layer));
  }
  if (r.remaining() != 0) {
    return util::Status::ParseError("snapshot delta_chain has trailing garbage");
  }
  return layers;
}

// --- header ------------------------------------------------------------------

std::string EncodeHeader(const SnapshotInfo& info) {
  ByteWriter w;
  w.Bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.U32(info.version);
  w.U32(static_cast<uint32_t>(info.sections.size()));
  w.U64(info.file_bytes);
  w.U64(info.freeze_epoch);
  w.U64(info.triple_count);
  w.U64(info.term_count);
  uint64_t flags = (info.has_text_index ? kFlagHasTextIndex : 0) |
                   (info.has_vsg ? kFlagHasVsg : 0);
  w.U64(flags);
  for (const SectionInfo& s : info.sections) {
    w.U32(static_cast<uint32_t>(s.id));
    w.U32(0);  // padding / reserved
    w.U64(s.offset);
    w.U64(s.bytes);
    w.U64(s.checksum);
  }
  w.U64(Xxh64(w.data().data(), w.size()));
  return w.Take();
}

/// Parses + validates the header and section table. `header_region` must
/// hold at least the full header (callers over-read); `file_bytes` is the
/// actual on-disk size, compared against the declared size to detect
/// truncation.
util::Result<SnapshotInfo> ParseHeader(const std::byte* data,
                                       size_t header_region,
                                       uint64_t file_bytes) {
  if (header_region < kFixedHeaderBytes) {
    return util::Status::ParseError(
        "truncated snapshot: " + std::to_string(header_region) +
        " bytes is smaller than the fixed header");
  }
  ByteReader r(data, header_region);
  if (std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return util::Status::ParseError(
        "bad magic: not a re2xolap snapshot image");
  }
  RE2X_RETURN_IF_ERROR(r.Skip(sizeof(kSnapshotMagic)));
  SnapshotInfo info;
  uint32_t section_count = 0;
  uint64_t flags = 0;
  RE2X_RETURN_IF_ERROR(r.U32(&info.version));
  RE2X_RETURN_IF_ERROR(r.U32(&section_count));
  RE2X_RETURN_IF_ERROR(r.U64(&info.file_bytes));
  RE2X_RETURN_IF_ERROR(r.U64(&info.freeze_epoch));
  RE2X_RETURN_IF_ERROR(r.U64(&info.triple_count));
  RE2X_RETURN_IF_ERROR(r.U64(&info.term_count));
  RE2X_RETURN_IF_ERROR(r.U64(&flags));
  if (info.version != kSnapshotVersion) {
    return util::Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(info.version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        " only)");
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return util::Status::ParseError("snapshot section count " +
                                    std::to_string(section_count) +
                                    " is implausible");
  }
  const uint64_t header_bytes = HeaderBytes(section_count);
  if (header_region < header_bytes) {
    return util::Status::ParseError(
        "truncated snapshot: header needs " + std::to_string(header_bytes) +
        " bytes, file provides " + std::to_string(header_region));
  }
  if (info.file_bytes != file_bytes) {
    return util::Status::ParseError(
        "truncated snapshot: header declares " +
        std::to_string(info.file_bytes) + " bytes, file has " +
        std::to_string(file_bytes));
  }
  // Header checksum covers everything before the trailing u64, so a bit
  // flip anywhere in the header or section table is caught here.
  uint64_t declared = 0;
  std::memcpy(&declared, data + header_bytes - 8, sizeof(declared));
  uint64_t actual = Xxh64(data, header_bytes - 8);
  if (declared != actual) {
    obs::MetricsRegistry::Global()
        .GetCounter("storage.checksum_failures")
        .Inc();
    return util::Status::ParseError("snapshot header checksum mismatch");
  }
  info.has_text_index = (flags & kFlagHasTextIndex) != 0;
  info.has_vsg = (flags & kFlagHasVsg) != 0;
  info.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0, pad = 0;
    SectionInfo s;
    RE2X_RETURN_IF_ERROR(r.U32(&id));
    RE2X_RETURN_IF_ERROR(r.U32(&pad));
    RE2X_RETURN_IF_ERROR(r.U64(&s.offset));
    RE2X_RETURN_IF_ERROR(r.U64(&s.bytes));
    RE2X_RETURN_IF_ERROR(r.U64(&s.checksum));
    // Any id outside the current set — the reserved 4 and 8-11 included —
    // means corruption, not a feature gap: only older versions wrote them.
    const bool known =
        id == static_cast<uint32_t>(SectionId::kDictionary) ||
        id == static_cast<uint32_t>(SectionId::kSpo) ||
        id == static_cast<uint32_t>(SectionId::kPos) ||
        (id >= static_cast<uint32_t>(SectionId::kPredicateStats) &&
         id <= static_cast<uint32_t>(SectionId::kVsg)) ||
        id == static_cast<uint32_t>(SectionId::kDeltaChain);
    if (!known) {
      return util::Status::ParseError("snapshot contains unknown section id " +
                                      std::to_string(id));
    }
    s.id = static_cast<SectionId>(id);
    if (s.offset % kSectionAlignment != 0 || s.offset < header_bytes ||
        s.bytes > info.file_bytes || s.offset > info.file_bytes - s.bytes) {
      return util::Status::ParseError(
          std::string("snapshot section ") + SectionName(s.id) +
          " lies outside the file or is misaligned");
    }
    for (const SectionInfo& prev : info.sections) {
      if (prev.id == s.id) {
        return util::Status::ParseError(std::string("snapshot repeats section ") +
                                        SectionName(s.id));
      }
    }
    info.sections.push_back(s);
  }
  return info;
}

const SectionInfo* FindSection(const SnapshotInfo& info, SectionId id) {
  for (const SectionInfo& s : info.sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

util::Status VerifySectionChecksums(const std::byte* base,
                                    const SnapshotInfo& info,
                                    util::ThreadPool* pool,
                                    const util::ExecGuard* guard) {
  RE2X_RETURN_IF_ERROR(GuardCheck(guard));
  obs::Span span("snapshot.verify_checksums");
  std::vector<util::Status> statuses(info.sections.size());
  RunParallel(pool, info.sections.size(), [&](size_t i) {
    const SectionInfo& s = info.sections[i];
    if (Xxh64(base + s.offset, s.bytes) != s.checksum) {
      obs::MetricsRegistry::Global()
          .GetCounter("storage.checksum_failures")
          .Inc();
      statuses[i] = util::Status::ParseError(
          std::string("snapshot section ") + SectionName(s.id) +
          " checksum mismatch (corrupted image)");
    }
  });
  for (const util::Status& st : statuses) RE2X_RETURN_IF_ERROR(st);
  return util::Status::OK();
}

}  // namespace

const char* SectionName(SectionId id) {
  switch (id) {
    case SectionId::kDictionary: return "dictionary";
    case SectionId::kSpo: return "spo";
    case SectionId::kPos: return "pos";
    case SectionId::kPredicateStats: return "predicate_stats";
    case SectionId::kTextIndex: return "text_index";
    case SectionId::kVsg: return "vsg";
    case SectionId::kDeltaChain: return "delta_chain";
  }
  return "unknown";
}

// --- save --------------------------------------------------------------------

namespace {

util::Status SaveSnapshotImpl(const std::string& path,
                              const rdf::TripleStore& store,
                              const rdf::TextIndex* text, const VsgImage* vsg,
                              const SnapshotWriteOptions& options) {
  obs::Span span("snapshot.save");
  RE2X_FAILPOINT("snapshot.save");
  if (!store.frozen()) {
    return util::Status::InvalidArgument(
        "snapshot requires a frozen store (call Freeze() first)");
  }
  // Pin the epoch chain so every store accessor below answers from one
  // epoch (no-op on non-live stores). Live saves additionally require
  // quiesced ingestion — see the format notes in snapshot.h.
  rdf::TripleStore::ReadPin pin(store);
  std::shared_ptr<const rdf::EpochChain> chain = store.live_chain();
  if (store.size() == 0) {
    return util::Status::InvalidArgument(
        "refusing to snapshot an empty store: nothing to persist");
  }
  // The index pair and the stats always carry the base: the whole store
  // on non-live stores, the chain's base below its layers on live ones.
  const std::shared_ptr<const rdf::IndexBase> base = store.index_base();
  const uint64_t base_triples = base->spo.size();
  if (base_triples == 0) {
    return util::Status::InvalidArgument(
        "refusing to snapshot a live store whose chain base is empty; "
        "compact first so the image carries a non-empty index pair");
  }
  RE2X_RETURN_IF_ERROR(GuardCheck(options.guard));
  util::WallTimer timer;

  struct Pending {
    SectionId id;
    const void* data = nullptr;  // raw span (triple indexes) or buf below
    size_t bytes = 0;
    std::string buf;
    uint64_t checksum = 0;
    util::Status status;
  };
  std::vector<Pending> sections;
  sections.reserve(8);
  auto add = [&](SectionId id, const void* data = nullptr,
                 size_t bytes = 0) {
    Pending p;
    p.id = id;
    p.data = data;
    p.bytes = bytes;
    sections.push_back(std::move(p));
  };
  add(SectionId::kDictionary);
  add(SectionId::kSpo, base->spo.data(), base->spo.size_bytes());
  add(SectionId::kPos, base->pos.data(), base->pos.size_bytes());
  add(SectionId::kPredicateStats);
  if (text != nullptr) add(SectionId::kTextIndex);
  if (vsg != nullptr) add(SectionId::kVsg);
  if (chain != nullptr) add(SectionId::kDeltaChain);

  static obs::Histogram& encode_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "storage.section.encode.millis");
  RunParallel(options.pool, sections.size(), [&](size_t i) {
    Pending& s = sections[i];
    obs::Span sec_span("snapshot.save.section");
    sec_span.SetAttr("section", SectionName(s.id));
    util::WallTimer sec_timer;
    switch (s.id) {
      case SectionId::kDictionary:
        s.status =
            EncodeDictionary(store.dictionary(), options.guard, &s.buf);
        break;
      case SectionId::kPredicateStats:
        // The stats section matches the index pair, i.e. the base: the
        // loader's chain re-applies the delta layers' stat adjustments.
        s.status = EncodeStats(base->stats, &s.buf);
        break;
      case SectionId::kTextIndex:
        s.status = EncodeTextIndex(*text, options.guard, &s.buf);
        break;
      case SectionId::kVsg:
        s.status = EncodeVsg(*vsg, &s.buf);
        break;
      case SectionId::kDeltaChain:
        s.status = EncodeDeltaChain(*chain, &s.buf);
        break;
      default:
        break;  // raw triple sections: data/bytes already set
    }
    if (s.status.ok() && s.data == nullptr) {
      s.data = s.buf.data();
      s.bytes = s.buf.size();
    }
    if (s.status.ok()) s.checksum = Xxh64(s.data, s.bytes);
    encode_hist.Observe(sec_timer.ElapsedMillis());
    sec_span.SetAttr("bytes", static_cast<uint64_t>(s.bytes));
  });
  for (const Pending& s : sections) RE2X_RETURN_IF_ERROR(s.status);
  RE2X_RETURN_IF_ERROR(GuardCheck(options.guard));

  SnapshotInfo info;
  info.version = kSnapshotVersion;
  // Live stores answer freeze_epoch() with the pinned chain's epoch, so a
  // live image restores at exactly the epoch it was saved at.
  info.freeze_epoch = store.freeze_epoch();
  info.triple_count = base_triples;
  info.term_count = store.dictionary().size();
  info.has_text_index = text != nullptr;
  info.has_vsg = vsg != nullptr;
  uint64_t offset = AlignUp(HeaderBytes(sections.size()));
  for (const Pending& s : sections) {
    info.sections.push_back({s.id, offset, s.bytes, s.checksum});
    offset = AlignUp(offset + s.bytes);
  }
  // The file ends right after the last payload (no trailing pad).
  info.file_bytes = info.sections.back().offset + info.sections.back().bytes;

  std::string header = EncodeHeader(info);
  static const char kZeros[kSectionAlignment] = {};
  std::vector<std::pair<const void*, size_t>> blobs;
  blobs.reserve(2 * sections.size() + 1);
  blobs.emplace_back(header.data(), header.size());
  uint64_t written = header.size();
  for (size_t i = 0; i < sections.size(); ++i) {
    uint64_t pad = info.sections[i].offset - written;
    if (pad > 0) blobs.emplace_back(kZeros, pad);
    blobs.emplace_back(sections[i].data, sections[i].bytes);
    written = info.sections[i].offset + sections[i].bytes;
  }
  RE2X_RETURN_IF_ERROR(WriteFileAtomic(path, blobs));

  obs::MetricsRegistry::Global().GetCounter("storage.saves").Inc();
  obs::MetricsRegistry::Global()
      .GetCounter("storage.save.bytes")
      .Inc(info.file_bytes);
  obs::MetricsRegistry::Global()
      .GetHistogram("storage.save.millis")
      .Observe(timer.ElapsedMillis());
  span.SetAttr("bytes", info.file_bytes);
  span.SetAttr("sections", static_cast<uint64_t>(sections.size()));
  return util::Status::OK();
}

}  // namespace

util::Status SaveSnapshot(const std::string& path,
                          const rdf::TripleStore& store,
                          const rdf::TextIndex* text, const VsgImage* vsg,
                          const SnapshotWriteOptions& options) {
  util::WallTimer timer;
  util::Status status = SaveSnapshotImpl(path, store, text, vsg, options);
  obs::QueryRecord rec;
  rec.op = obs::QueryOp::kSnapshotSave;
  rec.freeze_epoch = store.freeze_epoch();
  rec.fingerprint = obs::FingerprintQuery(path);  // identity = target path
  rec.rows_out = store.size();
  rec.status = static_cast<uint8_t>(status.code());
  rec.total_millis = timer.ElapsedMillis();
  obs::QueryLog::Global().AppendCompleted(rec, path);
  return status;
}

// --- load --------------------------------------------------------------------

namespace {

util::Result<LoadedSnapshot> LoadSnapshotImpl(
    const std::string& path, const SnapshotLoadOptions& options) {
  obs::Span span("snapshot.load");
  span.SetAttr("mmap", options.use_mmap ? "true" : "false");
  RE2X_FAILPOINT("snapshot.load");
  RE2X_RETURN_IF_ERROR(GuardCheck(options.guard));
  util::WallTimer timer;

  // Source bytes: one mapping (zero-copy candidate) or one heap read.
  const std::byte* base = nullptr;
  size_t size = 0;
  std::shared_ptr<const void> keepalive;
  if (options.use_mmap) {
    RE2X_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> mapped,
                          MappedFile::Open(path));
    base = mapped->data();
    size = mapped->size();
    keepalive = std::move(mapped);
  } else {
    RE2X_ASSIGN_OR_RETURN(std::shared_ptr<std::vector<std::byte>> buf,
                          ReadFileBytes(path));
    base = buf->data();
    size = buf->size();
    keepalive = std::move(buf);
  }

  RE2X_ASSIGN_OR_RETURN(SnapshotInfo info, ParseHeader(base, size, size));
  if (options.verify_checksums) {
    RE2X_RETURN_IF_ERROR(
        VerifySectionChecksums(base, info, options.pool, options.guard));
  }

  // Required sections.
  const SectionInfo* dict_sec = FindSection(info, SectionId::kDictionary);
  const SectionInfo* spo_sec = FindSection(info, SectionId::kSpo);
  const SectionInfo* pos_sec = FindSection(info, SectionId::kPos);
  const SectionInfo* stats_sec = FindSection(info, SectionId::kPredicateStats);
  if (dict_sec == nullptr || stats_sec == nullptr || spo_sec == nullptr ||
      pos_sec == nullptr) {
    return util::Status::ParseError(
        "snapshot is missing a required section (dictionary/predicate_stats/"
        "spo/pos)");
  }
  const SectionInfo* delta_sec = FindSection(info, SectionId::kDeltaChain);
  if (info.triple_count == 0 || info.term_count == 0) {
    return util::Status::ParseError(
        "snapshot declares an empty store; images of empty stores are "
        "never written");
  }

  // Triple index sections: structural + content validation before any
  // adoption.
  auto triple_view = [&](const SectionInfo& s)
      -> util::Result<std::span<const EncodedTriple>> {
    if (s.bytes % sizeof(EncodedTriple) != 0) {
      return util::Status::ParseError(
          std::string("snapshot section ") + SectionName(s.id) +
          " is not a whole number of triples");
    }
    uint64_t count = s.bytes / sizeof(EncodedTriple);
    if (count != info.triple_count) {
      return util::Status::ParseError(
          std::string("snapshot section ") + SectionName(s.id) + " holds " +
          std::to_string(count) + " triples, header declares " +
          std::to_string(info.triple_count));
    }
    return std::span<const EncodedTriple>(
        reinterpret_cast<const EncodedTriple*>(base + s.offset), count);
  };
  std::span<const EncodedTriple> spo, pos;
  RE2X_ASSIGN_OR_RETURN(spo, triple_view(*spo_sec));
  RE2X_ASSIGN_OR_RETURN(pos, triple_view(*pos_sec));
  RE2X_RETURN_IF_ERROR(ValidateTriples(spo, info.term_count, SpoLess, "spo",
                                       options.pool, options.guard));
  RE2X_RETURN_IF_ERROR(ValidateTriples(pos, info.term_count, PosLess, "pos",
                                       options.pool, options.guard));

  LoadedSnapshot out;
  out.info = info;
  out.store = std::make_unique<rdf::TripleStore>();

  // Decode the heap-materialized sections; dictionary / text / graph are
  // independent targets, so they fan out across the pool.
  const SectionInfo* text_sec = FindSection(info, SectionId::kTextIndex);
  const SectionInfo* vsg_sec = FindSection(info, SectionId::kVsg);
  if (info.has_text_index != (text_sec != nullptr) ||
      info.has_vsg != (vsg_sec != nullptr)) {
    return util::Status::ParseError(
        "snapshot header flags disagree with the section table");
  }
  std::unordered_map<TermId, rdf::PredicateStats> stats;
  VsgImage vsg_image;
  static obs::Histogram& decode_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "storage.section.decode.millis");
  struct DecodeTask {
    const SectionInfo* sec;
    std::function<util::Status()> run;
    util::Status status;
  };
  std::vector<DecodeTask> tasks;
  auto add_task = [&](const SectionInfo* sec,
                      std::function<util::Status()> run) {
    tasks.push_back(DecodeTask{sec, std::move(run), util::Status::OK()});
  };
  add_task(dict_sec, [&] {
    return DecodeDictionary(base + dict_sec->offset, dict_sec->bytes,
                            info.term_count, options.guard,
                            &out.store->dictionary());
  });
  add_task(stats_sec, [&] {
    return DecodeStats(base + stats_sec->offset, stats_sec->bytes,
                       info.term_count, &stats);
  });
  if (text_sec != nullptr) {
    add_task(text_sec, [&] {
      return DecodeTextIndex(base + text_sec->offset, text_sec->bytes,
                             info.term_count, options.guard, &out.text);
    });
  }
  if (vsg_sec != nullptr) {
    add_task(vsg_sec, [&] {
      return DecodeVsg(base + vsg_sec->offset, vsg_sec->bytes,
                       info.term_count, &vsg_image);
    });
  }
  RunParallel(options.pool, tasks.size(), [&](size_t i) {
    obs::Span sec_span("snapshot.load.section");
    sec_span.SetAttr("section", SectionName(tasks[i].sec->id));
    util::WallTimer sec_timer;
    tasks[i].status = tasks[i].run();
    decode_hist.Observe(sec_timer.ElapsedMillis());
  });
  for (const DecodeTask& t : tasks) RE2X_RETURN_IF_ERROR(t.status);
  RE2X_RETURN_IF_ERROR(GuardCheck(options.guard));
  if (vsg_sec != nullptr) out.vsg = std::move(vsg_image);

  // Delta layers decode on the calling thread (their validation fans out
  // over the pool itself, which must not nest inside the task fan-out).
  std::vector<std::shared_ptr<const rdf::DeltaLayer>> delta_layers;
  if (delta_sec != nullptr) {
    RE2X_ASSIGN_OR_RETURN(
        delta_layers,
        DecodeDeltaChain(base + delta_sec->offset, delta_sec->bytes,
                         info.term_count, options.pool, options.guard));
  }

  // Both modes adopt the index sections as views into the loaded image —
  // a mapped file or an owned heap buffer — with the image as the base's
  // owner, so no index bytes are copied. Heap-mode loads are
  // file-independent the moment this returns (the buffer, not the file,
  // backs the views).
  out.store->AdoptFrozenView(spo, pos, std::move(stats),
                             info.freeze_epoch, keepalive);
  // A live image: the adopted pair is the chain base, and the saved layers
  // go back above it at the saved epoch.
  if (delta_sec != nullptr) out.store->EnterLive(std::move(delta_layers));

  obs::MetricsRegistry::Global().GetCounter("storage.loads").Inc();
  obs::MetricsRegistry::Global()
      .GetCounter("storage.load.bytes")
      .Inc(info.file_bytes);
  obs::MetricsRegistry::Global()
      .GetHistogram("storage.load.millis")
      .Observe(timer.ElapsedMillis());
  span.SetAttr("bytes", info.file_bytes);
  span.SetAttr("triples", info.triple_count);
  return out;
}

}  // namespace

util::Result<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                          const SnapshotLoadOptions& options) {
  util::WallTimer timer;
  util::Result<LoadedSnapshot> result = LoadSnapshotImpl(path, options);
  obs::QueryRecord rec;
  rec.op = obs::QueryOp::kSnapshotLoad;
  rec.fingerprint = obs::FingerprintQuery(path);  // identity = source path
  rec.status = static_cast<uint8_t>(
      result.ok() ? util::StatusCode::kOk : result.status().code());
  if (result.ok()) {
    rec.freeze_epoch = result.value().info.freeze_epoch;
    rec.rows_out = result.value().info.triple_count;
  }
  rec.total_millis = timer.ElapsedMillis();
  obs::QueryLog::Global().AppendCompleted(rec, path);
  return result;
}

// --- inspect / verify --------------------------------------------------------

util::Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  // Two bounded reads: the fixed prefix tells us the table size, then the
  // exact header region is re-read and validated. Payload stays untouched.
  uint64_t file_size = 0;
  RE2X_ASSIGN_OR_RETURN(
      std::vector<std::byte> prefix,
      ReadFilePrefix(path, kFixedHeaderBytes, &file_size));
  if (prefix.size() < kFixedHeaderBytes) {
    return util::Status::ParseError(
        "truncated snapshot: file is smaller than the fixed header");
  }
  uint32_t section_count = 0;
  std::memcpy(&section_count, prefix.data() + 12, sizeof(section_count));
  if (section_count == 0 || section_count > kMaxSections) {
    return util::Status::ParseError("snapshot section count " +
                                    std::to_string(section_count) +
                                    " is implausible");
  }
  RE2X_ASSIGN_OR_RETURN(
      std::vector<std::byte> header,
      ReadFilePrefix(path, HeaderBytes(section_count), &file_size));
  return ParseHeader(header.data(), header.size(), file_size);
}

util::Result<SnapshotInfo> VerifySnapshot(const std::string& path,
                                          util::ThreadPool* pool) {
  obs::Span span("snapshot.verify");
  RE2X_ASSIGN_OR_RETURN(std::shared_ptr<std::vector<std::byte>> buf,
                        ReadFileBytes(path));
  RE2X_ASSIGN_OR_RETURN(SnapshotInfo info,
                        ParseHeader(buf->data(), buf->size(), buf->size()));
  RE2X_RETURN_IF_ERROR(
      VerifySectionChecksums(buf->data(), info, pool, nullptr));
  return info;
}

}  // namespace re2xolap::storage
