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
/// Fails on specs referencing undefined levels. Loading is linear in the
/// dataset size: each distinct term is interned once (memoized per
/// predicate, level member, observation, measure value and attribute
/// value) in the order per-triple Add() calls would intern it, so term ids
/// are a pure function of the spec, and triples go in via AddEncoded().
/// `freeze_pool` is handed to the final TripleStore::Freeze(), which uses
/// it to compress the permutations when the store's index format is
/// compressed (same store bits either way).
util::Result<GeneratedDataset> Generate(
    DatasetSpec spec, util::ThreadPool* freeze_pool = nullptr);

}  // namespace re2xolap::qb

#endif  // RE2XOLAP_QB_GENERATOR_H_
