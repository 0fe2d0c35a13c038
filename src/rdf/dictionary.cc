#include "rdf/dictionary.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <utility>

#include "util/thread_pool.h"

namespace re2xolap::rdf {

namespace {

constexpr size_t kMinSlots = 16;
// IndexAppended() hashes appended terms in chunks of this many entries.
constexpr size_t kTagChunk = 8192;
// ... and prefetches the home slot of the entry this far ahead.
constexpr size_t kPrefetchAhead = 8;

uint64_t MakeSlot(uint32_t tag, TermId id) {
  return (static_cast<uint64_t>(tag) << 32) | id;
}
uint32_t SlotTag(uint64_t slot) { return static_cast<uint32_t>(slot >> 32); }
TermId SlotId(uint64_t slot) { return static_cast<TermId>(slot); }

// Smallest power-of-two slot count holding `n` entries at load <= 0.7.
size_t SlotsFor(size_t n) {
  size_t slots = kMinSlots;
  while (slots * 7 < n * 10) slots *= 2;
  return slots;
}

uint8_t PackTag(TermView term) {
  return static_cast<uint8_t>(static_cast<uint8_t>(term.kind) << 4 |
                              static_cast<uint8_t>(term.literal_type));
}

}  // namespace

Dictionary::Dictionary()
    : text_(1, '\0'), offsets_{0, 1}, tags_(1, 0), slots_(kMinSlots, 0) {
  // Id 0 is the invalid id, stored as an empty IRI.
}

size_t Dictionary::FindSlot(TermView term, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  const uint8_t packed = PackTag(term);
  size_t i = tag & mask;
  for (size_t probes = 0;; ++probes) {
    assert(probes < slots_.size() && "Dictionary slot table has no empty slot");
    const uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if (SlotTag(slot) == tag) {
      const TermId id = SlotId(slot);
      assert(id != kInvalidTermId && id < tags_.size());
      if (tags_[id] == packed &&
          offsets_[id + 1] - offsets_[id] - 1 == term.value.size() &&
          std::memcmp(text_.data() + offsets_[id], term.value.data(),
                      term.value.size()) == 0) {
        return i;
      }
    }
    i = (i + 1) & mask;
  }
}

size_t Dictionary::EmptySlot(uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  size_t i = tag & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  return i;
}

void Dictionary::Rehash(size_t capacity) {
  assert(capacity >= SlotsFor(tags_.size() - 1));
  assert((capacity & (capacity - 1)) == 0);
  std::vector<uint64_t> old =
      std::exchange(slots_, std::vector<uint64_t>(capacity, 0));
  for (uint64_t slot : old) {
    if (slot != 0) slots_[EmptySlot(SlotTag(slot))] = slot;
  }
}

bool Dictionary::GrowForOneMore() {
  // After one more term the base holds tags_.size() terms.
  if (tags_.size() * 10 <= slots_.size() * 7) return false;
  Rehash(slots_.size() * 2);
  return true;
}

TermId Dictionary::PushTerm(TermView term) {
  assert(std::less<const char*>()(term.value.data(), text_.data()) ||
         !std::less<const char*>()(term.value.data(),
                                   text_.data() + text_.size()));
  const TermId id = static_cast<TermId>(tags_.size());
  text_.insert(text_.end(), term.value.begin(), term.value.end());
  text_.push_back('\0');
  offsets_.push_back(text_.size());
  tags_.push_back(PackTag(term));
  return id;
}

TermId Dictionary::Insert(TermView term, uint32_t tag, size_t slot) {
  assert(slots_[slot] == 0);
  if (GrowForOneMore()) slot = EmptySlot(tag);
  const TermId id = PushTerm(term);
  slots_[slot] = MakeSlot(tag, id);
  return id;
}

TermId Dictionary::Intern(TermView term) {
  assert(!live() && "Dictionary::Intern() on a live dictionary");
  const uint32_t tag = Tag(term);
  const size_t slot = FindSlot(term, tag);
  if (slots_[slot] != 0) return SlotId(slots_[slot]);
  return Insert(term, tag, slot);
}

TermId Dictionary::Append(TermView term) {
  assert(!live() && "Dictionary::Append() on a live dictionary");
  GrowForOneMore();
  const TermId id = PushTerm(term);
  unindexed_.push_back(id);
  return id;
}

util::Status Dictionary::IndexAppended(util::ThreadPool* pool) {
  assert(!live() && "Dictionary::IndexAppended() on a live dictionary");
  const size_t n = unindexed_.size();
  if (n == 0) return util::Status::OK();
  // Tags first, in chunks that each write their own entries.
  auto tag_chunk = [this, n](size_t c) {
    const size_t end = std::min(n, (c + 1) * kTagChunk);
    for (size_t j = c * kTagChunk; j < end; ++j) {
      const uint64_t tag = Tag(BaseTerm(SlotId(unindexed_[j])));
      unindexed_[j] |= tag << 32;
    }
  };
  const size_t chunks = (n + kTagChunk - 1) / kTagChunk;
  if (pool != nullptr) {
    pool->ParallelFor(chunks, tag_chunk);
  } else {
    for (size_t c = 0; c < chunks; ++c) tag_chunk(c);
  }
  // Then the slots, in id order; Append() kept the table large enough.
  const size_t mask = slots_.size() - 1;
  for (size_t j = 0; j < n; ++j) {
    if (j + kPrefetchAhead < n) {
      __builtin_prefetch(
          &slots_[SlotTag(unindexed_[j + kPrefetchAhead]) & mask]);
    }
    const uint64_t entry = unindexed_[j];
    const TermId id = SlotId(entry);
    const size_t slot = FindSlot(BaseTerm(id), SlotTag(entry));
    if (slots_[slot] != 0) {
      const TermId other = SlotId(slots_[slot]);
      return util::Status::AlreadyExists(
          "term " + std::to_string(std::max(id, other)) +
          " duplicates term " + std::to_string(std::min(id, other)) + ", " +
          BaseTerm(id).ToString());
    }
    slots_[slot] = entry;
  }
  std::vector<uint64_t>().swap(unindexed_);
  return util::Status::OK();
}

void Dictionary::EnterLive() {
  assert(!live() && "Dictionary::EnterLive() called twice");
  assert(unindexed_.empty() &&
         "Dictionary::EnterLive() before IndexAppended()");
  live_.store(true, std::memory_order_release);
}

TermId Dictionary::InternLive(TermView term) {
  assert(live() && "Dictionary::InternLive() requires EnterLive()");
  // The base table is immutable in live mode: probe it lock-free first
  // (the common case for terms referenced by deletes and re-inserts).
  const uint64_t slot = slots_[FindSlot(term, Tag(term))];
  if (slot != 0) return SlotId(slot);
  std::unique_lock lk(ext_mu_);
  if (auto eit = ext_index_.find(term); eit != ext_index_.end()) {
    return eit->second;
  }
  const TermId id = static_cast<TermId>(tags_.size() + ext_terms_.size());
  ext_terms_.emplace_back(term);
  ext_index_.emplace(ext_terms_.back(), id);
  return id;
}

TermView Dictionary::ExtTerm(TermId id) const {
  assert(live());
  std::shared_lock lk(ext_mu_);
  assert(id >= tags_.size() && id < tags_.size() + ext_terms_.size());
  // Deque elements have stable addresses: the view outlives the lock.
  return ext_terms_[id - tags_.size()];
}

TermId Dictionary::Lookup(TermView term) const {
  assert(unindexed_.empty() &&
         "Dictionary::Lookup() before IndexAppended()");
  const uint64_t slot = slots_[FindSlot(term, Tag(term))];
  if (slot != 0) return SlotId(slot);
  if (!live()) return kInvalidTermId;
  std::shared_lock lk(ext_mu_);
  auto eit = ext_index_.find(term);
  return eit == ext_index_.end() ? kInvalidTermId : eit->second;
}

void Dictionary::Reserve(size_t n, size_t text_bytes, size_t appends) {
  assert(!live() && "Dictionary::Reserve() on a live dictionary");
  // Id 0 and the end sentinel take one more tag and one more offset.
  tags_.reserve(n + 1);
  offsets_.reserve(n + 2);
  text_.reserve(text_bytes + n + 1);
  unindexed_.reserve(appends);
  const size_t slots = SlotsFor(n);
  if (slots > slots_.size()) Rehash(slots);
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = text_.capacity() + offsets_.capacity() * sizeof(uint64_t) +
                 tags_.capacity() + SlotBytes() +
                 unindexed_.capacity() * sizeof(uint64_t);
  if (live()) {
    std::shared_lock lk(ext_mu_);
    for (const Term& t : ext_terms_) bytes += sizeof(Term) + t.value.capacity();
    bytes += ext_index_.bucket_count() * sizeof(void*);
    // Extension index nodes key full Term copies, unlike the base slots,
    // which hold ids.
    for (const auto& [t, id] : ext_index_) {
      bytes += sizeof(Term) + t.value.capacity() + sizeof(TermId) +
               2 * sizeof(void*);
    }
  }
  return bytes;
}

}  // namespace re2xolap::rdf
