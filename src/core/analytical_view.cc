#include "core/analytical_view.h"

#include <set>
#include <vector>

namespace re2xolap::core {

namespace {

constexpr char kRdfTypeIri[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// All terms reached from `start` by following the (already encoded)
/// predicate path; fan-out is preserved.
std::vector<rdf::TermId> FollowPath(const rdf::TripleStore& store,
                                    rdf::TermId start,
                                    const std::vector<rdf::TermId>& path) {
  std::vector<rdf::TermId> frontier = {start};
  for (rdf::TermId pred : path) {
    std::vector<rdf::TermId> next;
    for (rdf::TermId node : frontier) {
      for (const rdf::EncodedTriple& t :
           store.Match({node, pred, rdf::kInvalidTermId})) {
        next.push_back(t.o);
      }
    }
    frontier.swap(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

}  // namespace

util::Result<std::unique_ptr<rdf::TripleStore>> MaterializeView(
    const rdf::TripleStore& source, const ViewDefinition& def,
    uint64_t* skipped_facts) {
  if (!source.frozen()) {
    return util::Status::InvalidArgument("source store must be frozen");
  }
  if (def.dimensions.empty() || def.measures.empty()) {
    return util::Status::InvalidArgument(
        "a view needs at least one dimension and one measure mapping");
  }
  rdf::TermId type = source.Lookup(rdf::Term::Iri(kRdfTypeIri));
  rdf::TermId fact_class = source.Lookup(rdf::Term::Iri(def.fact_class));
  if (type == rdf::kInvalidTermId || fact_class == rdf::kInvalidTermId) {
    return util::Status::NotFound("fact class <" + def.fact_class +
                                  "> not present in the source");
  }

  // Encode mapping paths against the source dictionary; a predicate
  // missing from the source is a definition error.
  auto encode_path = [&](const PathMapping& m)
      -> util::Result<std::vector<rdf::TermId>> {
    std::vector<rdf::TermId> out;
    for (const std::string& iri : m.path) {
      rdf::TermId id = source.Lookup(rdf::Term::Iri(iri));
      if (id == rdf::kInvalidTermId) {
        return util::Status::NotFound("mapping '" + m.name +
                                      "' references unknown predicate <" +
                                      iri + ">");
      }
      out.push_back(id);
    }
    if (out.empty()) {
      return util::Status::InvalidArgument("mapping '" + m.name +
                                           "' has an empty path");
    }
    return out;
  };
  std::vector<std::vector<rdf::TermId>> dim_paths, measure_paths;
  for (const PathMapping& m : def.dimensions) {
    RE2X_ASSIGN_OR_RETURN(std::vector<rdf::TermId> p, encode_path(m));
    dim_paths.push_back(std::move(p));
  }
  for (const PathMapping& m : def.measures) {
    RE2X_ASSIGN_OR_RETURN(std::vector<rdf::TermId> p, encode_path(m));
    measure_paths.push_back(std::move(p));
  }

  auto view = std::make_unique<rdf::TripleStore>();
  const rdf::Term view_type = rdf::Term::Iri(kRdfTypeIri);
  const rdf::Term obs_class = rdf::Term::Iri(def.ObservationClassIri());

  std::set<rdf::TermId> touched_members;
  uint64_t skipped = 0;

  for (const rdf::EncodedTriple& typing :
       source.Match({rdf::kInvalidTermId, type, fact_class})) {
    rdf::TermId fact = typing.s;
    // Resolve all mappings first; a fact missing any dimension or any
    // measure is skipped (incomplete facts would break cube semantics).
    std::vector<std::vector<rdf::TermId>> dim_values(dim_paths.size());
    std::vector<std::vector<rdf::TermId>> measure_values(
        measure_paths.size());
    bool complete = true;
    for (size_t d = 0; d < dim_paths.size() && complete; ++d) {
      for (rdf::TermId v : FollowPath(source, fact, dim_paths[d])) {
        if (source.term(v).is_iri()) dim_values[d].push_back(v);
      }
      complete = !dim_values[d].empty();
    }
    for (size_t m = 0; m < measure_paths.size() && complete; ++m) {
      for (rdf::TermId v : FollowPath(source, fact, measure_paths[m])) {
        if (source.term(v).is_numeric_literal()) {
          measure_values[m].push_back(v);
        }
      }
      complete = !measure_values[m].empty();
    }
    if (!complete) {
      ++skipped;
      continue;
    }
    const rdf::Term obs = source.term(fact).ToTerm();  // keep the fact IRI
    view->Add(obs, view_type, obs_class);
    for (size_t d = 0; d < dim_values.size(); ++d) {
      const rdf::Term pred =
          rdf::Term::Iri(def.view_iri_base + def.dimensions[d].name);
      for (rdf::TermId v : dim_values[d]) {
        view->Add(obs, pred, source.term(v).ToTerm());
        touched_members.insert(v);
      }
    }
    for (size_t m = 0; m < measure_values.size(); ++m) {
      const rdf::Term pred =
          rdf::Term::Iri(def.view_iri_base + def.measures[m].name);
      for (rdf::TermId v : measure_values[m]) {
        view->Add(obs, pred, source.term(v).ToTerm());
      }
    }
  }
  if (skipped_facts) *skipped_facts = skipped;
  if (view->size() == 0) {
    return util::Status::NotFound("the view matched no complete facts");
  }

  // Copy the hierarchy neighbourhood of every reached member: IRI-valued
  // edges up to `hierarchy_depth` hops, plus literal attributes.
  std::set<rdf::TermId> visited = touched_members;
  std::vector<rdf::TermId> frontier(touched_members.begin(),
                                    touched_members.end());
  for (size_t depth = 0; depth <= def.hierarchy_depth; ++depth) {
    std::vector<rdf::TermId> next;
    for (rdf::TermId member : frontier) {
      for (const rdf::EncodedTriple& t :
           source.Match({member, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
        if (t.p == type) continue;
        const rdf::TermView o = source.term(t.o);
        // `view` is another store, so interning there never moves `o`.
        auto copy = [&] {
          view->Add(source.term(member).ToTerm(), source.term(t.p).ToTerm(),
                    o.ToTerm());
        };
        if (o.is_literal()) {
          if (def.copy_member_attributes) copy();
          continue;
        }
        if (depth == def.hierarchy_depth) continue;  // don't extend further
        copy();
        if (visited.insert(t.o).second) next.push_back(t.o);
      }
    }
    frontier.swap(next);
    if (frontier.empty()) break;
  }

  view->Freeze();
  return view;
}

}  // namespace re2xolap::core
