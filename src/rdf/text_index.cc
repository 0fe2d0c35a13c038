#include "rdf/text_index.h"

#include <algorithm>

#include "util/string_utils.h"

namespace re2xolap::rdf {

namespace {
bool IsIndexed(const Term& t) {
  return t.is_literal() && t.literal_type == LiteralType::kString;
}
}  // namespace

TextIndex::TextIndex(const TripleStore& store) {
  const Dictionary& dict = store.dictionary();
  size_t literals = 0;
  dict.ForEach([&](TermId, const Term& t) {
    if (IsIndexed(t)) ++literals;
  });
  // At most one exact key per literal; the distinct-token count is not
  // known up front, and the literal count stands in for it.
  exact_.reserve(literals);
  postings_.reserve(literals);
  // One lowercase buffer, token views into it and one lookup key, all
  // reused across literals: once they have grown, a literal allocates
  // only for a new key or a growing posting list.
  std::string lower;
  std::string key;
  std::vector<std::string_view> tokens;
  dict.ForEach([&](TermId id, const Term& t) {
    if (!IsIndexed(t)) return;
    ++indexed_literals_;
    lower.assign(t.value);
    util::ToLowerInPlace(&lower);
    exact_[lower].push_back(id);
    tokens.clear();
    size_t pos = 0;
    for (std::string_view w = util::NextWord(lower, &pos); !w.empty();
         w = util::NextWord(lower, &pos)) {
      tokens.push_back(w);
    }
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (std::string_view tok : tokens) {
      key.assign(tok);
      postings_[key].push_back(id);
    }
  });
  // ForEach visits ids in increasing order, so posting lists are sorted.
}

std::unique_ptr<TextIndex> TextIndex::FromParts(
    std::unordered_map<std::string, std::vector<TermId>> postings,
    std::unordered_map<std::string, std::vector<TermId>> exact,
    size_t indexed_literals) {
  std::unique_ptr<TextIndex> index(new TextIndex());
  index->postings_ = std::move(postings);
  index->exact_ = std::move(exact);
  index->indexed_literals_ = indexed_literals;
  return index;
}

std::vector<TermId> TextIndex::ExactMatch(std::string_view text) const {
  auto it = exact_.find(util::ToLower(text));
  return it == exact_.end() ? std::vector<TermId>{} : it->second;
}

std::vector<TermId> TextIndex::KeywordMatch(std::string_view query,
                                            size_t limit,
                                            const util::ExecGuard* guard)
    const {
  std::vector<std::string> tokens = util::TokenizeWords(query);
  if (tokens.empty()) return {};
  // Gather posting lists; missing token => no match.
  std::vector<const std::vector<TermId>*> lists;
  lists.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    auto it = postings_.find(tok);
    if (it == postings_.end()) return {};
    lists.push_back(&it->second);
  }
  // Intersect starting from the shortest list.
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<TermId> result = *lists[0];
  std::vector<TermId> next;
  for (size_t i = 1; i < lists.size() && !result.empty(); ++i) {
    // Degrade, don't error: an expired deadline stops the refinement and
    // keeps the candidates intersected so far (a superset of the answer).
    if (guard != nullptr && !guard->Check().ok()) break;
    next.clear();
    std::set_intersection(result.begin(), result.end(), lists[i]->begin(),
                          lists[i]->end(), std::back_inserter(next));
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
  size_t bytes = 0;
  for (const auto& [tok, ids] : postings_) {
    bytes += tok.capacity() + ids.capacity() * sizeof(TermId) +
             3 * sizeof(void*);
  }
  for (const auto& [text, ids] : exact_) {
    bytes += text.capacity() + ids.capacity() * sizeof(TermId) +
             3 * sizeof(void*);
  }
  return bytes;
}

}  // namespace re2xolap::rdf
