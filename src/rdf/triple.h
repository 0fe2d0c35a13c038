#ifndef RE2XOLAP_RDF_TRIPLE_H_
#define RE2XOLAP_RDF_TRIPLE_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"

namespace re2xolap::rdf {

/// A dictionary-encoded ⟨s p o⟩ triple.
struct EncodedTriple {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;

  friend bool operator==(const EncodedTriple& a, const EncodedTriple& b) {
    return a.s == b.s && a.p == b.p && a.o == b.o;
  }
};

/// Allocator of triple arrays that are written slot by slot after they
/// are sized: a construct() without arguments leaves the slot as
/// allocated instead of value-initialising it, so resize() costs no fill
/// pass. EncodedTriple is an aggregate, an implicit-lifetime type, so the
/// allocated storage already holds the objects.
template <typename T>
struct NoFillAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T>);
  template <typename U>
  struct rebind {
    using other = NoFillAllocator<U>;
  };
  NoFillAllocator() = default;
  template <typename U>
  NoFillAllocator(const NoFillAllocator<U>&) {}

  template <typename U>
  void construct(U*) {}
  template <typename U, typename... Args>
  void construct(U* slot, Args&&... args) {
    ::new (static_cast<void*>(slot)) U(std::forward<Args>(args)...);
  }
};

/// An owned triple array: the load buffer and the sorted permutations.
/// resize() leaves new slots unwritten, so only code that overwrites
/// every slot it adds may grow one that way.
using TripleVector = std::vector<EncodedTriple, NoFillAllocator<EncodedTriple>>;

/// A triple match pattern: kInvalidTermId in a position means "any".
struct TriplePattern {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;

  bool Matches(const EncodedTriple& t) const {
    return (s == kInvalidTermId || s == t.s) &&
           (p == kInvalidTermId || p == t.p) &&
           (o == kInvalidTermId || o == t.o);
  }
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_TRIPLE_H_
