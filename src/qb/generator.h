#ifndef RE2XOLAP_QB_GENERATOR_H_
#define RE2XOLAP_QB_GENERATOR_H_

#include <memory>
#include <string>

#include "qb/cube_schema.h"
#include "rdf/triple_store.h"
#include "util/result.h"

namespace re2xolap::qb {

/// Well-known vocabulary IRIs emitted by the generator.
inline constexpr char kRdfType[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
inline constexpr char kHasLabel[] =
    "http://www.w3.org/2000/01/rdf-schema#label";

/// A generated statistical KG: the frozen triple store plus the ground-truth
/// spec it was generated from (used by tests and by benches that need to
/// sample members).
struct GeneratedDataset {
  std::unique_ptr<rdf::TripleStore> store;
  DatasetSpec spec;

  /// IRI of member `index` of `level`.
  std::string MemberIri(const std::string& level, size_t index) const {
    return spec.iri_base + level + "/" + std::to_string(index);
  }
};

/// Materializes `spec` into a frozen TripleStore:
///  - one IRI node per level member, with a hasLabel string literal;
///  - hierarchy edges per branch step (deterministic parents);
///  - `spec.observations` observation nodes typed `observation_class`, each
///    linked to one (skewed-random) base member per dimension, one numeric
///    literal per measure, and the literal observation attributes.
/// Fails with InvalidArgument on specs referencing undefined levels, on a
/// level named "obs" (its members would be named like observations), and
/// when a predicate, label subject or class IRI equals a member or
/// observation IRI. Loading is linear in the dataset size: each distinct
/// term gets its id once, in the order per-triple Add() calls would
/// intern it, so term ids are a pure function of the spec. Member and
/// observation IRIs, distinct by construction, are appended to the
/// dictionary unprobed and indexed once at the end; the other terms are
/// interned on first use. The observations' random draws run in chunks of
/// kObservationChunk on a pool sized by rdf::LoadThreads(), each chunk
/// jumping the RNG to its first draw; their ids are assigned on the
/// calling thread, and the same pool then writes their triples and hashes
/// the appended IRIs. Nothing depends on the thread count.
util::Result<GeneratedDataset> Generate(DatasetSpec spec);

/// Observations per chunk of Generate()'s parallel draw and write passes.
inline constexpr uint64_t kObservationChunk = 4096;

}  // namespace re2xolap::qb

#endif  // RE2XOLAP_QB_GENERATOR_H_
