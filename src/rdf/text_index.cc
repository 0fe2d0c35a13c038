#include "rdf/text_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <numeric>

#include "util/string_utils.h"

namespace re2xolap::rdf {

namespace {

bool IsIndexed(TermView t) {
  return t.is_literal() && t.literal_type == LiteralType::kString;
}

size_t HashKey(std::string_view key) {
  return std::hash<std::string_view>()(key);
}

// Smallest power-of-two slot count that holds `keys` keys at load <= 0.5.
size_t SlotsFor(size_t keys) {
  return std::bit_ceil(std::max<size_t>(2 * keys, 8));
}

}  // namespace

uint32_t TextIndex::Table::Find(std::string_view key) const {
  const size_t mask = slots.size() - 1;
  for (size_t i = HashKey(key) & mask;; i = (i + 1) & mask) {
    const uint32_t k = slots[i];
    if (k == kNoKey || data.key(k) == key) return k;
  }
}

uint32_t TextIndex::Table::Intern(std::string_view key) {
  const size_t mask = slots.size() - 1;
  size_t i = HashKey(key) & mask;
  for (; slots[i] != kNoKey; i = (i + 1) & mask) {
    if (data.key(slots[i]) == key) return slots[i];
  }
  const auto k = static_cast<uint32_t>(data.size());
  assert(data.keys.size() + key.size() <= UINT32_MAX);
  data.keys.append(key);
  data.key_offsets.push_back(static_cast<uint32_t>(data.keys.size()));
  if (SlotsFor(data.size()) > slots.size()) {
    Rehash(data.size());
  } else {
    slots[i] = k;
  }
  return k;
}

void TextIndex::Table::Rehash(size_t keys) {
  slots.assign(SlotsFor(keys), kNoKey);
  const size_t mask = slots.size() - 1;
  for (uint32_t k = 0; k < data.size(); ++k) {
    size_t i = HashKey(data.key(k)) & mask;
    while (slots[i] != kNoKey) i = (i + 1) & mask;
    slots[i] = k;
  }
}

void TextIndex::Table::FillLists(const std::vector<uint32_t>& key_of,
                                 const std::vector<TermId>& id_of) {
  std::vector<uint32_t>& offsets = data.list_offsets;
  offsets.assign(data.size() + 1, 0);
  for (uint32_t k : key_of) ++offsets[k + 1];
  for (size_t k = 1; k < offsets.size(); ++k) offsets[k] += offsets[k - 1];
  // Pairs arrive in ascending id order, so each scattered list ascends.
  std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
  data.ids.resize(key_of.size());
  for (size_t i = 0; i < key_of.size(); ++i) {
    data.ids[next[key_of[i]]++] = id_of[i];
  }
}

std::vector<uint32_t> TextIndex::Table::SortedKeys() const {
  std::vector<uint32_t> order(data.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return data.key(a) < data.key(b);
  });
  return order;
}

size_t TextIndex::Table::MemoryUsage() const {
  return data.keys.capacity() +
         (data.key_offsets.capacity() + data.list_offsets.capacity() +
          slots.capacity()) *
             sizeof(uint32_t) +
         data.ids.capacity() * sizeof(TermId);
}

TextIndex::TextIndex(const TripleStore& store) {
  const Dictionary& dict = store.dictionary();
  size_t literals = 0;
  size_t text_bytes = 0;
  dict.ForEach([&](TermId, TermView t) {
    if (!IsIndexed(t)) return;
    ++literals;
    text_bytes += t.value.size();
  });
  // At most one exact key per literal; the distinct-token count is not
  // known up front, and the literal count stands in for it.
  exact_.data.keys.reserve(text_bytes);
  exact_.data.key_offsets.reserve(literals + 1);
  exact_.Rehash(literals);
  postings_.Rehash(literals);
  // Keys are interned in first-seen order while (key, literal) pairs are
  // collected in ascending id order (ForEach's order); one counting pass
  // per table then lays the lists out. The lowercase buffer and the pair
  // arrays are reused across literals, so a literal allocates nothing.
  std::vector<TermId> literal_ids;
  std::vector<uint32_t> exact_of;
  literal_ids.reserve(literals);
  exact_of.reserve(literals);
  std::vector<TermId> token_ids;
  std::vector<uint32_t> token_of;
  // Per token key: the last literal that listed it, so a token repeated
  // within one literal is posted once.
  std::vector<TermId> last_literal;
  std::string lower;
  dict.ForEach([&](TermId id, TermView t) {
    if (!IsIndexed(t)) return;
    lower.assign(t.value);
    util::ToLowerInPlace(&lower);
    literal_ids.push_back(id);
    exact_of.push_back(exact_.Intern(lower));
    size_t pos = 0;
    for (std::string_view w = util::NextWord(lower, &pos); !w.empty();
         w = util::NextWord(lower, &pos)) {
      const uint32_t k = postings_.Intern(w);
      if (k == last_literal.size()) last_literal.push_back(kInvalidTermId);
      if (last_literal[k] == id) continue;
      last_literal[k] = id;
      token_of.push_back(k);
      token_ids.push_back(id);
    }
  });
  indexed_literals_ = literals;
  exact_.FillLists(exact_of, literal_ids);
  postings_.FillLists(token_of, token_ids);
}

std::unique_ptr<TextIndex> TextIndex::FromParts(KeyTable exact,
                                                KeyTable postings,
                                                size_t indexed_literals) {
  std::unique_ptr<TextIndex> index(new TextIndex());
  index->exact_.data = std::move(exact);
  index->exact_.Rehash(index->exact_.data.size());
  index->postings_.data = std::move(postings);
  index->postings_.Rehash(index->postings_.data.size());
  index->indexed_literals_ = indexed_literals;
  return index;
}

std::vector<TermId> TextIndex::ExactMatch(std::string_view text) const {
  const uint32_t k = exact_.Find(util::ToLower(text));
  if (k == Table::kNoKey) return {};
  const std::span<const TermId> ids = exact_.data.list(k);
  return std::vector<TermId>(ids.begin(), ids.end());
}

std::vector<TermId> TextIndex::KeywordMatch(std::string_view query,
                                            size_t limit,
                                            const util::ExecGuard* guard)
    const {
  std::vector<std::string> tokens = util::TokenizeWords(query);
  if (tokens.empty()) return {};
  // Gather posting lists; missing token => no match.
  std::vector<std::span<const TermId>> lists;
  lists.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    const uint32_t k = postings_.Find(tok);
    if (k == Table::kNoKey) return {};
    lists.push_back(postings_.data.list(k));
  }
  // Intersect starting from the shortest list.
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::vector<TermId> result(lists[0].begin(), lists[0].end());
  std::vector<TermId> next;
  for (size_t i = 1; i < lists.size() && !result.empty(); ++i) {
    // Degrade, don't error: an expired deadline stops the refinement and
    // keeps the candidates intersected so far (a superset of the answer).
    if (guard != nullptr && !guard->Check().ok()) break;
    next.clear();
    std::set_intersection(result.begin(), result.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    result.swap(next);
  }
  if (limit > 0 && result.size() > limit) result.resize(limit);
  return result;
}

std::vector<TermId> TextIndex::Match(std::string_view query, size_t limit,
                                     const util::ExecGuard* guard) const {
  std::vector<TermId> exact = ExactMatch(query);
  if (!exact.empty()) {
    if (limit > 0 && exact.size() > limit) exact.resize(limit);
    return exact;
  }
  return KeywordMatch(query, limit, guard);
}

size_t TextIndex::MemoryUsage() const {
  return exact_.MemoryUsage() + postings_.MemoryUsage();
}

}  // namespace re2xolap::rdf
