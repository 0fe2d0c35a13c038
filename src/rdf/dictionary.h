#ifndef RE2XOLAP_RDF_DICTIONARY_H_
#define RE2XOLAP_RDF_DICTIONARY_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "util/result.h"

namespace re2xolap::rdf {

/// Dense integer id for an interned term. Id 0 is reserved as the invalid
/// id so pattern wildcards and "no match" can be represented cheaply.
using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = 0;

/// Bidirectional Term <-> TermId mapping. Interning terms once lets the
/// triple store and all query processing work on fixed-width integers.
///
/// Each term is stored exactly once, in `terms_`. The reverse index is a
/// flat open-addressing table of 8-byte slots, each `(32-bit hash tag <<
/// 32) | TermId` with 0 meaning empty: power-of-two capacity, linear
/// probing, load at most 0.7. A probe compares tags before it touches
/// `terms_`, and growth re-slots entries by their stored tag without
/// re-hashing any term. Interning N terms costs N Term objects plus
/// about 8/0.7 bytes per term of slots — not 2N Terms as a Term-keyed map
/// would.
///
/// Concurrent-read contract: once loading finishes (in practice: once the
/// owning TripleStore is Freeze()-d), Lookup()/term()/IsValid()/ForEach()
/// are safe from any number of threads — they are const table/vector
/// reads with no lazy caches. Intern() mutates and must never overlap a
/// read; query paths must use Lookup() only. The TripleStore wrapper
/// asserts this in debug builds.
///
/// Live mode (EnterLive, driven by TripleStore::EnterLive): the base
/// mapping built so far becomes immutable — its vector and slot table are
/// never touched again, so base reads stay lock-free — and new terms land
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
  /// Load-time only: rejected after EnterLive().
  TermId Intern(const Term& term);
  /// Move-interning overload: bulk loaders (snapshot restore, parsers)
  /// hand the Term over instead of paying a lexical-form copy per call.
  TermId Intern(Term&& term);

  /// Freezes the current mapping as the immutable base and switches new
  /// interning to the locked extension area. Irreversible.
  void EnterLive();

  bool live() const { return live_.load(std::memory_order_acquire); }

  /// Interns a term into a live dictionary; safe against concurrent
  /// reads. Concurrent InternLive() calls must be serialized by the
  /// caller (one ingest batch at a time).
  TermId InternLive(const Term& term);

  /// Looks up an existing term; kInvalidTermId when absent.
  TermId Lookup(const Term& term) const;

  /// The term for `id`. `id` must be a valid interned id. The reference
  /// stays valid for the dictionary's lifetime (extension storage is a
  /// deque: no reallocation).
  const Term& term(TermId id) const {
    if (id < terms_.size()) return terms_[id];
    return ExtTerm(id);
  }

  bool IsValid(TermId id) const {
    if (id == 0) return false;
    if (id < terms_.size()) return true;
    if (!live()) return false;
    std::shared_lock lk(ext_mu_);
    return id < terms_.size() + ext_terms_.size();
  }

  /// Number of interned terms (excluding the reserved invalid slot).
  size_t size() const {
    size_t n = terms_.size() - 1;
    if (live()) {
      std::shared_lock lk(ext_mu_);
      n += ext_terms_.size();
    }
    return n;
  }

  /// Pre-sizes the term vector and slot table for `n` terms (snapshot
  /// restore knows the exact count up front), so interning them never
  /// grows the table.
  void Reserve(size_t n);

  /// Iterates every interned (id, term) pair in id order. Fn is called as
  /// fn(TermId, const Term&). On a live dictionary the extension area is
  /// walked under the shared lock, so the iteration is a consistent
  /// point-in-time enumeration even against a concurrent InternLive().
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (TermId id = 1; id < terms_.size(); ++id) fn(id, terms_[id]);
    if (!live()) return;
    std::shared_lock lk(ext_mu_);
    TermId id = static_cast<TermId>(terms_.size());
    for (const Term& t : ext_terms_) fn(id++, t);
  }

  /// Approximate heap footprint in bytes (for Table 3-style reporting).
  /// The base slot table is counted exactly.
  size_t MemoryUsage() const;

  /// The 32-bit hash tag the base table stores beside each id. Public so
  /// tests can check that they exercise equal tags of distinct terms.
  static uint32_t Tag(const Term& term) {
    const uint64_t h = TermHash()(term);
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

 private:
  /// Index into `slots_` of the slot holding `term`, or of the empty slot
  /// that ends its probe sequence when it is absent.
  size_t FindSlot(const Term& term, uint32_t tag) const;
  /// The first empty slot of `tag`'s probe sequence.
  size_t EmptySlot(uint32_t tag) const;
  /// Re-slots every entry into a table of `capacity` (a power of two)
  /// slots, placing each by its stored tag.
  void Rehash(size_t capacity);
  /// Stores `term` under a fresh id in empty slot `slot` (found by
  /// FindSlot), growing the table first when the load would exceed 0.7.
  TermId Insert(Term&& term, uint32_t tag, size_t slot);

  /// Extension-area slot for `id` (id >= terms_.size(); live mode only).
  const Term& ExtTerm(TermId id) const;

  std::vector<Term> terms_;
  std::vector<uint64_t> slots_;  // (tag << 32) | id; 0 = empty
  // Live-mode extension area: terms interned after EnterLive(). The deque
  // gives stable element addresses, so term() can hand out references
  // that outlive the shared lock.
  std::atomic<bool> live_{false};
  mutable std::shared_mutex ext_mu_;
  std::deque<Term> ext_terms_;  // id = terms_.size() + deque index
  std::unordered_map<Term, TermId, TermHash> ext_index_;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_DICTIONARY_H_
