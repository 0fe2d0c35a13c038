#include "rdf/dictionary.h"

#include <mutex>
#include <utility>

namespace re2xolap::rdf {

namespace {

constexpr size_t kMinSlots = 16;

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

}  // namespace

Dictionary::Dictionary() : slots_(kMinSlots, 0) {
  // Slot 0 is the invalid id.
  terms_.emplace_back();
}

size_t Dictionary::FindSlot(const Term& term, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  size_t i = tag & mask;
  for (size_t probes = 0;; ++probes) {
    assert(probes < slots_.size() && "Dictionary slot table has no empty slot");
    const uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if (SlotTag(slot) == tag) {
      assert(SlotId(slot) != kInvalidTermId && SlotId(slot) < terms_.size());
      if (terms_[SlotId(slot)] == term) return i;
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
  assert(capacity >= SlotsFor(terms_.size() - 1));
  assert((capacity & (capacity - 1)) == 0);
  std::vector<uint64_t> old =
      std::exchange(slots_, std::vector<uint64_t>(capacity, 0));
  for (uint64_t slot : old) {
    if (slot != 0) slots_[EmptySlot(SlotTag(slot))] = slot;
  }
}

TermId Dictionary::Insert(Term&& term, uint32_t tag, size_t slot) {
  assert(slots_[slot] == 0);
  const TermId id = static_cast<TermId>(terms_.size());
  // After this insert the table holds `id` entries; keep the load <= 0.7.
  if (size_t{id} * 10 > slots_.size() * 7) {
    Rehash(slots_.size() * 2);
    slot = EmptySlot(tag);
  }
  terms_.push_back(std::move(term));
  slots_[slot] = MakeSlot(tag, id);
  return id;
}

TermId Dictionary::Intern(const Term& term) {
  assert(!live() && "Dictionary::Intern() on a live dictionary");
  const uint32_t tag = Tag(term);
  const size_t slot = FindSlot(term, tag);
  if (slots_[slot] != 0) return SlotId(slots_[slot]);
  return Insert(Term(term), tag, slot);
}

TermId Dictionary::Intern(Term&& term) {
  assert(!live() && "Dictionary::Intern() on a live dictionary");
  const uint32_t tag = Tag(term);
  const size_t slot = FindSlot(term, tag);
  if (slots_[slot] != 0) return SlotId(slots_[slot]);
  return Insert(std::move(term), tag, slot);
}

void Dictionary::EnterLive() {
  assert(!live() && "Dictionary::EnterLive() called twice");
  live_.store(true, std::memory_order_release);
}

TermId Dictionary::InternLive(const Term& term) {
  assert(live() && "Dictionary::InternLive() requires EnterLive()");
  // The base table is immutable in live mode: probe it lock-free first
  // (the common case for terms referenced by deletes and re-inserts).
  const uint64_t slot = slots_[FindSlot(term, Tag(term))];
  if (slot != 0) return SlotId(slot);
  std::unique_lock lk(ext_mu_);
  auto [eit, inserted] = ext_index_.try_emplace(term, kInvalidTermId);
  if (!inserted) return eit->second;
  const TermId id = static_cast<TermId>(terms_.size() + ext_terms_.size());
  eit->second = id;
  ext_terms_.push_back(term);
  return id;
}

const Term& Dictionary::ExtTerm(TermId id) const {
  assert(live());
  std::shared_lock lk(ext_mu_);
  assert(id >= terms_.size() && id < terms_.size() + ext_terms_.size());
  // Deque elements have stable addresses: the reference outlives the lock.
  return ext_terms_[id - terms_.size()];
}

TermId Dictionary::Lookup(const Term& term) const {
  const uint64_t slot = slots_[FindSlot(term, Tag(term))];
  if (slot != 0) return SlotId(slot);
  if (!live()) return kInvalidTermId;
  std::shared_lock lk(ext_mu_);
  auto eit = ext_index_.find(term);
  return eit == ext_index_.end() ? kInvalidTermId : eit->second;
}

void Dictionary::Reserve(size_t n) {
  assert(!live() && "Dictionary::Reserve() on a live dictionary");
  terms_.reserve(n + 1);
  const size_t slots = SlotsFor(n);
  if (slots > slots_.size()) Rehash(slots);
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = terms_.capacity() * sizeof(Term);
  for (const Term& t : terms_) bytes += t.value.capacity();
  bytes += slots_.capacity() * sizeof(uint64_t);
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
