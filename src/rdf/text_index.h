#ifndef RE2XOLAP_RDF_TEXT_INDEX_H_
#define RE2XOLAP_RDF_TEXT_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/triple_store.h"
#include "util/exec_guard.h"

namespace re2xolap::rdf {

/// Inverted keyword index over the string literals of a TripleStore.
/// This plays the role of the triplestore full-text index the paper relies
/// on for resolving user keywords to IRIs (Algorithm 1, line 3 — "the
/// triplestore employs a traditional full-text index").
///
/// Tokens are lowercase alphanumeric words; a query matches a literal when
/// every query token appears among the literal's tokens (AND semantics).
/// Exact (case-insensitive whole-string) lookup is also provided and is
/// preferred by the matcher.
///
/// Layout: two flat key tables, exact lowercase text -> literal ids and
/// token -> literal ids. Each holds its keys back to back in one char
/// arena, its id lists back to back in one TermId array (CSR, each list
/// ascending), and a uint32_t open-addressing slot array (power-of-two
/// capacity, linear probing, load at most 0.5) that maps a key to its
/// index. Keys sit in insertion order (first-seen when built from a store,
/// key order when restored from a snapshot); the ordered visitors sort on
/// demand.
///
/// Concurrent-read contract: the index is immutable after construction —
/// ExactMatch()/KeywordMatch()/Match() are const lookups over the flat
/// tables with no lazy caches, so they are safe from any number of threads
/// (the server's request threads share one index).
class TextIndex {
 public:
  /// One key table in flat form: key k is the text
  /// `keys[key_offsets[k], key_offsets[k + 1])` and maps to the ascending
  /// id list `ids[list_offsets[k], list_offsets[k + 1])`. Keys are
  /// distinct. Offsets are 32-bit, so a table holds less than 4 GiB of key
  /// text and fewer than 2^32 ids.
  struct KeyTable {
    std::string keys;
    std::vector<uint32_t> key_offsets = {0};
    std::vector<uint32_t> list_offsets = {0};
    std::vector<TermId> ids;

    size_t size() const { return key_offsets.size() - 1; }
    std::string_view key(size_t k) const {
      return std::string_view(keys.data() + key_offsets[k],
                              key_offsets[k + 1] - key_offsets[k]);
    }
    std::span<const TermId> list(size_t k) const {
      return std::span<const TermId>(ids.data() + list_offsets[k],
                                     list_offsets[k + 1] - list_offsets[k]);
    }
  };

  /// Builds the index over every string literal currently interned in
  /// `store`'s dictionary. The store may keep growing afterwards, but new
  /// literals are not visible to this index (rebuild to refresh).
  explicit TextIndex(const TripleStore& store);

  TextIndex(const TextIndex&) = delete;
  TextIndex& operator=(const TextIndex&) = delete;

  /// Restores an index image captured by the snapshot subsystem
  /// (src/storage/) without re-tokenizing the store. `exact` and
  /// `postings` must hold distinct keys with strictly ascending id lists,
  /// as ForEachExact()/ForEachPosting() of the saved index visited them;
  /// the caller validates that, this only builds the lookup slots.
  static std::unique_ptr<TextIndex> FromParts(KeyTable exact,
                                              KeyTable postings,
                                              size_t indexed_literals);

  /// Visits the exact-match table (lowercase full text -> literal ids) in
  /// ascending key order, as `fn(std::string_view key,
  /// std::span<const TermId> ids)`. For snapshot serialization and tests.
  template <typename Fn>
  void ForEachExact(Fn&& fn) const {
    for (uint32_t k : exact_.SortedKeys()) {
      fn(exact_.data.key(k), exact_.data.list(k));
    }
  }
  /// Visits the postings table (token -> literal ids) the same way.
  template <typename Fn>
  void ForEachPosting(Fn&& fn) const {
    for (uint32_t k : postings_.SortedKeys()) {
      fn(postings_.data.key(k), postings_.data.list(k));
    }
  }

  /// Literal term ids whose full lowercase text equals `text` (lowercased).
  std::vector<TermId> ExactMatch(std::string_view text) const;

  /// Literal term ids containing all word tokens of `query`.
  /// Results are sorted by id; at most `limit` results are returned
  /// (0 = unlimited). When a `guard` is supplied, it is polled between
  /// posting-list intersections: on expiry the intersection stops early
  /// and the partial (superset) candidate list accumulated so far is
  /// returned, truncated to `limit` — a degraded-but-usable answer rather
  /// than an error (callers that need the distinction should check the
  /// guard themselves afterwards).
  std::vector<TermId> KeywordMatch(std::string_view query, size_t limit = 0,
                                   const util::ExecGuard* guard = nullptr)
      const;

  /// Exact match if any, otherwise keyword match. This is the behavior
  /// ReOLAP's MATCHES() uses.
  std::vector<TermId> Match(std::string_view query, size_t limit = 0,
                            const util::ExecGuard* guard = nullptr) const;

  size_t indexed_literal_count() const { return indexed_literals_; }
  size_t exact_key_count() const { return exact_.data.size(); }
  size_t distinct_token_count() const { return postings_.data.size(); }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  /// A KeyTable plus its lookup slots: each slot holds a key index, or
  /// kNoKey when empty.
  struct Table {
    static constexpr uint32_t kNoKey = UINT32_MAX;

    KeyTable data;
    std::vector<uint32_t> slots;

    /// Index of `key`, or kNoKey.
    uint32_t Find(std::string_view key) const;
    /// Index of `key`, appending it to `data.keys` first when new. The
    /// id lists are filled afterwards by FillLists().
    uint32_t Intern(std::string_view key);
    /// Sizes the slot array for `keys` keys and re-slots every key.
    void Rehash(size_t keys);
    /// Fills the CSR lists from (key_of[i], id_of[i]) pairs given in
    /// ascending id order, by one counting pass.
    void FillLists(const std::vector<uint32_t>& key_of,
                   const std::vector<TermId>& id_of);
    /// Key indexes sorted by key text.
    std::vector<uint32_t> SortedKeys() const;
    size_t MemoryUsage() const;
  };

  TextIndex() = default;  // FromParts

  Table exact_;
  Table postings_;
  size_t indexed_literals_ = 0;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_TEXT_INDEX_H_
