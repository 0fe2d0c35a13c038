#include "core/describe.h"

namespace re2xolap::core {

namespace {
constexpr char kRdfsLabelIri[] =
    "http://www.w3.org/2000/01/rdf-schema#label";
}  // namespace

std::string DisplayName(const rdf::TripleStore& store, rdf::TermId term) {
  const rdf::TermView t = store.term(term);
  if (t.is_literal()) return std::string(t.value);
  rdf::TermId label = store.Lookup(rdf::Term::Iri(kRdfsLabelIri));
  if (label != rdf::kInvalidTermId) {
    for (const rdf::EncodedTriple& lt :
         store.Match({term, label, rdf::kInvalidTermId})) {
      const rdf::TermView o = store.term(lt.o);
      if (o.is_literal()) return std::string(o.value);
    }
  }
  return PrettifyIriLocalName(t.value);
}

std::string DisplayNameOfIri(const rdf::TripleStore& store,
                             const std::string& iri) {
  rdf::TermId id = store.Lookup(rdf::Term::Iri(iri));
  if (id != rdf::kInvalidTermId) return DisplayName(store, id);
  return PrettifyIriLocalName(iri);
}

std::string DescribePath(const rdf::TripleStore& store,
                         const LevelPath& path) {
  std::string out;
  for (size_t s = 0; s < path.predicates.size(); ++s) {
    if (s > 0) out += " / ";
    out += DisplayName(store, path.predicates[s]);
  }
  return out;
}

}  // namespace re2xolap::core
