#ifndef RE2XOLAP_RDF_DICTIONARY_H_
#define RE2XOLAP_RDF_DICTIONARY_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "util/result.h"

namespace re2xolap::util {
class ThreadPool;
}  // namespace re2xolap::util

namespace re2xolap::rdf {

/// Dense integer id for an interned term. Id 0 is reserved as the invalid
/// id so pattern wildcards and "no match" can be represented cheaply.
using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = 0;

/// Bidirectional Term <-> TermId mapping. Interning terms once lets the
/// triple store and all query processing work on fixed-width integers.
///
/// Storage. Each term is stored exactly once, flat: its lexical form
/// followed by a NUL in one text buffer (`text_`), the form's start in
/// `offsets_` (one 8-byte offset per id plus an end sentinel) and `kind <<
/// 4 | literal_type` in `tags_` (one byte per id). A term costs its text,
/// one NUL and 9 bytes, with no per-term object or allocation. term(id)
/// assembles a TermView from these three arrays.
///
/// Reverse index. A flat open-addressing table of 8-byte slots, each
/// `(32-bit hash tag << 32) | TermId` with 0 meaning empty: power-of-two
/// capacity, linear probing, sized so that every term, slotted or not,
/// keeps the load at most 0.7. A probe compares tags before it touches
/// the text, and growth re-slots entries by their stored tag without
/// re-hashing any term.
///
/// Two ways in while loading:
///  - Intern() finds or adds one term: a hash, a probe and, when the term
///    is new, an append and a slot. For terms that may repeat (labels,
///    literals, predicates).
///  - Append() adds a term the caller knows to be new (generated IRIs,
///    snapshot entries) under the next id with no hash and no probe;
///    IndexAppended() later slots every appended term at once, hashing
///    them on a pool and inserting in id order. Until then an appended
///    term has an id and a term() but no slot: Lookup() and Intern() do
///    not see it. IndexAppended() rejects an appended term equal to any
///    other term, so a caller's "new" is checked, not trusted. The slot
///    layout follows from the calls made, never from the pool. Lookup(),
///    EnterLive() and the owning store's Freeze() assert in debug builds
///    that no appended term is left unslotted.
///
/// View lifetime: a view of a base term points into `text_`, which moves
/// when Intern() or Append() grows it. So while loading, a view is valid
/// until the next Intern()/Append(); once loading is done (the owning
/// store is Freeze()-d, or EnterLive() ran) the base arrays never change
/// and views stay valid for the dictionary's lifetime. Views of live-mode
/// terms point into a deque of Terms and never move.
///
/// Concurrent-read contract: once loading finishes (in practice: once the
/// owning TripleStore is Freeze()-d), Lookup()/term()/IsValid()/ForEach()
/// are safe from any number of threads: they are const array reads with
/// no lazy caches. Intern(), Append() and IndexAppended() mutate and must
/// never overlap a read; query paths must use Lookup() only. The
/// TripleStore wrapper asserts this in debug builds.
///
/// Live mode (EnterLive, driven by TripleStore::EnterLive): the base
/// mapping built so far becomes immutable (its arrays and slot table are
/// never touched again, so base reads stay lock-free) and new terms land
/// in an extension area (stable-address deque + Term-keyed map) guarded by
/// a shared_mutex. InternLive() is the only mutator afterwards; it may run
/// concurrently with any reads, but InternLive() calls themselves must be
/// externally serialized (store::Ingestor's batch mutex does this).
class Dictionary {
 public:
  Dictionary();

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Interns `term`, returning its id (existing id if already present).
  /// Copies the lexical form into the text buffer, so a Term, a view of
  /// one or bytes read straight from a snapshot all intern alike. A view
  /// of this dictionary's own text must be of an interned term (it is
  /// found, never appended: appending could move the bytes it views).
  /// Load-time only: rejected after EnterLive().
  TermId Intern(TermView term);

  /// Adds `term`, which the caller knows to be new, under the next id
  /// without probing the reverse index, copying its form like Intern().
  /// The term gets no slot until IndexAppended(). Load-time only.
  TermId Append(TermView term);

  /// Slots every term Append()-ed since the last call: their hash tags are
  /// computed on `pool` (on the calling thread when it is null), then the
  /// slots are inserted in id order. Returns AlreadyExists, naming the
  /// later of the two ids, when an appended term equals any other term;
  /// the dictionary must then be discarded. Load-time only.
  util::Status IndexAppended(util::ThreadPool* pool);

  /// Number of Append()-ed terms IndexAppended() has not slotted yet.
  size_t unindexed() const { return unindexed_.size(); }

  /// Freezes the current mapping as the immutable base and switches new
  /// interning to the locked extension area. Irreversible.
  void EnterLive();

  bool live() const { return live_.load(std::memory_order_acquire); }

  /// Interns a term into a live dictionary; safe against concurrent
  /// reads. Concurrent InternLive() calls must be serialized by the
  /// caller (one ingest batch at a time).
  TermId InternLive(TermView term);

  /// Looks up an existing term; kInvalidTermId when absent.
  TermId Lookup(TermView term) const;

  /// The term for `id`, which must be a valid interned id. See the class
  /// comment for how long the view stays valid.
  TermView term(TermId id) const {
    if (id < tags_.size()) return BaseTerm(id);
    return ExtTerm(id);
  }

  bool IsValid(TermId id) const {
    if (id == 0) return false;
    if (id < tags_.size()) return true;
    if (!live()) return false;
    std::shared_lock lk(ext_mu_);
    return id < tags_.size() + ext_terms_.size();
  }

  /// Number of interned terms (excluding the reserved invalid slot).
  size_t size() const {
    size_t n = tags_.size() - 1;
    if (live()) {
      std::shared_lock lk(ext_mu_);
      n += ext_terms_.size();
    }
    return n;
  }

  /// Pre-sizes the arrays and slot table for `n` terms whose lexical forms
  /// total at most `text_bytes` bytes, of which at most `appends` arrive
  /// through Append() (snapshot restore knows all three up front, the
  /// generator bounds them from its spec), so loading them never grows a
  /// buffer. Never shrinks.
  void Reserve(size_t n, size_t text_bytes = 0, size_t appends = 0);

  /// Iterates every interned (id, term) pair in id order. Fn is called as
  /// fn(TermId, TermView). On a live dictionary the extension area is
  /// walked under the shared lock, so the iteration is a consistent
  /// point-in-time enumeration even against a concurrent InternLive().
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const TermId base_end = static_cast<TermId>(tags_.size());
    for (TermId id = 1; id < base_end; ++id) fn(id, BaseTerm(id));
    if (!live()) return;
    std::shared_lock lk(ext_mu_);
    TermId id = base_end;
    for (const Term& t : ext_terms_) fn(id++, TermView(t));
  }

  /// Heap footprint in bytes (for Table 3-style reporting): the text
  /// buffer, offsets, tags and slot table by capacity, plus the live
  /// extension area.
  size_t MemoryUsage() const;

  /// The reverse index's share of MemoryUsage().
  size_t SlotBytes() const { return slots_.capacity() * sizeof(uint64_t); }

  /// The 32-bit hash tag the base table stores beside each id. Public so
  /// tests can check that they exercise equal tags of distinct terms.
  static uint32_t Tag(TermView term) {
    const uint64_t h = TermHash()(term);
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

 private:
  TermView BaseTerm(TermId id) const {
    const uint64_t begin = offsets_[id];
    const uint8_t tag = tags_[id];
    return TermView(static_cast<TermKind>(tag >> 4),
                    std::string_view(text_.data() + begin,
                                     offsets_[id + 1] - begin - 1),
                    static_cast<LiteralType>(tag & 0xF));
  }
  /// Index into `slots_` of the slot holding `term`, or of the empty slot
  /// that ends its probe sequence when it is absent.
  size_t FindSlot(TermView term, uint32_t tag) const;
  /// The first empty slot of `tag`'s probe sequence.
  size_t EmptySlot(uint32_t tag) const;
  /// Re-slots every entry into a table of `capacity` (a power of two)
  /// slots, placing each by its stored tag.
  void Rehash(size_t capacity);
  /// Doubles the table when one more term would take the load past 0.7;
  /// true when it did.
  bool GrowForOneMore();
  /// Copies `term`'s form and tag byte under the next id.
  TermId PushTerm(TermView term);
  /// Stores `term` under a fresh id in empty slot `slot` (found by
  /// FindSlot), growing the table first when the load would exceed 0.7.
  TermId Insert(TermView term, uint32_t tag, size_t slot);

  /// Extension-area term for `id` (id >= tags_.size(); live mode only).
  TermView ExtTerm(TermId id) const;

  // Base storage, id-indexed; id 0 is the invalid id's empty form.
  std::vector<char> text_;         // each lexical form + '\0'
  std::vector<uint64_t> offsets_;  // start of id's form; back() = end
  std::vector<uint8_t> tags_;      // kind << 4 | literal_type
  std::vector<uint64_t> slots_;    // (tag << 32) | id; 0 = empty
  // Append()-ed ids awaiting IndexAppended(), in id order; it writes each
  // entry's tag above its id, making the entry its slot.
  std::vector<uint64_t> unindexed_;
  // Live-mode extension area: terms interned after EnterLive(). The deque
  // gives stable element addresses, so term() can hand out views that
  // outlive the shared lock.
  std::atomic<bool> live_{false};
  mutable std::shared_mutex ext_mu_;
  std::deque<Term> ext_terms_;  // id = tags_.size() + deque index
  std::unordered_map<Term, TermId, TermHash, std::equal_to<>> ext_index_;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_DICTIONARY_H_
