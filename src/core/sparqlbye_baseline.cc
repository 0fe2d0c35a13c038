#include "core/sparqlbye_baseline.h"

#include <set>

namespace re2xolap::core {

util::Result<sparql::SelectQuery> SparqlByEBaseline::Synthesize(
    const std::vector<std::string>& example_tuple) const {
  if (example_tuple.empty()) {
    return util::Status::InvalidArgument("example tuple is empty");
  }
  sparql::SelectQuery q;
  q.select_all = true;

  for (size_t i = 0; i < example_tuple.size(); ++i) {
    std::vector<rdf::TermId> literals = text_->Match(example_tuple[i], 1);
    if (literals.empty()) {
      return util::Status::NotFound("no entity matches \"" +
                                    example_tuple[i] + "\"");
    }
    rdf::TermId lit = literals.front();
    // The first subject holding this literal is the matched entity.
    rdf::IndexRange holders = store_->Match(
        rdf::TriplePattern{rdf::kInvalidTermId, rdf::kInvalidTermId, lit});
    if (holders.empty()) {
      return util::Status::NotFound("literal for \"" + example_tuple[i] +
                                    "\" is detached");
    }
    const rdf::EncodedTriple attr = holders.front();
    const std::string var = "x" + std::to_string(i);

    // Pattern anchoring the entity to the example value.
    q.patterns.push_back(sparql::TriplePatternAst{
        sparql::Variable{var}, store_->term(attr.p).ToTerm(),
        store_->term(lit).ToTerm()});

    // Single-hop outgoing IRI patterns of the entity (the "minimal BGP
    // describing the node"), one per distinct predicate, object left free.
    std::set<rdf::TermId> preds;
    for (const rdf::EncodedTriple& t : store_->Match(
             rdf::TriplePattern{attr.s, rdf::kInvalidTermId,
                                rdf::kInvalidTermId})) {
      if (t.p == attr.p) continue;
      if (!store_->term(t.o).is_iri()) continue;
      if (!preds.insert(t.p).second) continue;
      q.patterns.push_back(sparql::TriplePatternAst{
          sparql::Variable{var}, store_->term(t.p).ToTerm(),
          sparql::Variable{var + "_o" + std::to_string(preds.size())}});
    }
  }
  return q;
}

}  // namespace re2xolap::core
