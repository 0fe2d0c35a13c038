#include "core/qb4olap.h"

#include <map>
#include <string>

namespace re2xolap::core {

namespace {

constexpr char kRdfTypeIri[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr char kRdfsLabelIri[] =
    "http://www.w3.org/2000/01/rdf-schema#label";

std::string LevelIri(const std::string& dataset_iri, int node_id) {
  return dataset_iri + "/level/" + std::to_string(node_id);
}
std::string StepIri(const std::string& dataset_iri, size_t edge_index) {
  return dataset_iri + "/step/" + std::to_string(edge_index);
}

}  // namespace

util::Status ExportQb4OlapAnnotations(const rdf::TripleStore& data,
                                      const VirtualSchemaGraph& vsg,
                                      const std::string& dataset_iri,
                                      const std::string& observation_class_iri,
                                      rdf::TripleStore* out) {
  using rdf::Term;
  if (out == nullptr) {
    return util::Status::InvalidArgument("output store is null");
  }
  const Term type = Term::Iri(kRdfTypeIri);
  const Term label = Term::Iri(kRdfsLabelIri);
  const Term ds = Term::Iri(dataset_iri);

  out->Add(ds, type, Term::Iri(qb4o::kDsdClass));
  out->Add(ds, Term::Iri(qb4o::kObservationClass),
           Term::Iri(observation_class_iri));
  for (rdf::TermId m : vsg.measure_predicates()) {
    out->Add(ds, Term::Iri(qb4o::kMeasure), data.term(m).ToTerm());
  }
  for (rdf::TermId a : vsg.observation_attributes()) {
    out->Add(ds, Term::Iri(qb4o::kObservationAttribute), data.term(a).ToTerm());
  }

  // Levels (including the root, which is marked via kRootLevel).
  for (const VsgNode& node : vsg.nodes()) {
    const Term lvl = Term::Iri(LevelIri(dataset_iri, node.id));
    out->Add(lvl, type, Term::Iri(qb4o::kLevelClass));
    out->Add(lvl, label, Term::StringLiteral(node.name));
    if (node.is_root) {
      out->Add(ds, Term::Iri(qb4o::kRootLevel), lvl);
    }
    for (rdf::TermId member : node.members) {
      out->Add(data.term(member).ToTerm(), Term::Iri(qb4o::kMemberOf), lvl);
    }
    for (rdf::TermId attr : node.attribute_predicates) {
      out->Add(lvl, Term::Iri(qb4o::kHasAttribute), data.term(attr).ToTerm());
    }
  }

  // Hierarchy steps (root edges are the dimensions).
  const std::vector<VsgEdge>& edges = vsg.edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    const Term step = Term::Iri(StepIri(dataset_iri, i));
    out->Add(step, type, Term::Iri(qb4o::kHierarchyStepClass));
    out->Add(step, Term::Iri(qb4o::kChildLevel),
             Term::Iri(LevelIri(dataset_iri, edges[i].from)));
    out->Add(step, Term::Iri(qb4o::kParentLevel),
             Term::Iri(LevelIri(dataset_iri, edges[i].to)));
    out->Add(step, Term::Iri(qb4o::kRollupProperty),
             data.term(edges[i].predicate).ToTerm());
  }
  return util::Status::OK();
}

util::Result<std::string> AnnotatedObservationClass(
    const rdf::TripleStore& store, const std::string& dataset_iri) {
  rdf::TermId ds = store.Lookup(rdf::Term::Iri(dataset_iri));
  rdf::TermId pred = store.Lookup(rdf::Term::Iri(qb4o::kObservationClass));
  if (ds == rdf::kInvalidTermId || pred == rdf::kInvalidTermId) {
    return util::Status::NotFound("no observation-class annotation for <" +
                                  dataset_iri + ">");
  }
  auto span = store.Match({ds, pred, rdf::kInvalidTermId});
  if (span.empty()) {
    return util::Status::NotFound("no observation-class annotation for <" +
                                  dataset_iri + ">");
  }
  return std::string(store.term(span.front().o).value);
}

util::Result<VirtualSchemaGraph> BuildFromQb4Olap(
    const rdf::TripleStore& store, const std::string& dataset_iri) {
  using rdf::Term;
  if (!store.frozen()) {
    return util::Status::InvalidArgument(
        "TripleStore must be frozen before importing annotations");
  }
  rdf::TermId ds = store.Lookup(Term::Iri(dataset_iri));
  rdf::TermId type = store.Lookup(Term::Iri(kRdfTypeIri));
  rdf::TermId dsd_class = store.Lookup(Term::Iri(qb4o::kDsdClass));
  if (ds == rdf::kInvalidTermId || dsd_class == rdf::kInvalidTermId ||
      !store.Exists({ds, type, dsd_class})) {
    return util::Status::NotFound("<" + dataset_iri +
                                  "> carries no QB4OLAP annotations");
  }
  auto lookup = [&](const char* iri) { return store.Lookup(Term::Iri(iri)); };
  rdf::TermId p_measure = lookup(qb4o::kMeasure);
  rdf::TermId p_obs_attr = lookup(qb4o::kObservationAttribute);
  rdf::TermId p_root = lookup(qb4o::kRootLevel);
  rdf::TermId p_member_of = lookup(qb4o::kMemberOf);
  rdf::TermId p_has_attr = lookup(qb4o::kHasAttribute);
  rdf::TermId p_child = lookup(qb4o::kChildLevel);
  rdf::TermId p_parent = lookup(qb4o::kParentLevel);
  rdf::TermId p_rollup = lookup(qb4o::kRollupProperty);
  rdf::TermId label = lookup(kRdfsLabelIri);
  rdf::TermId level_class = lookup(qb4o::kLevelClass);
  rdf::TermId step_class = lookup(qb4o::kHierarchyStepClass);

  // Root level IRI.
  auto root_span = store.Match({ds, p_root, rdf::kInvalidTermId});
  if (root_span.empty()) {
    return util::Status::ParseError("annotations lack a root level");
  }
  rdf::TermId root_level = root_span.front().o;

  // Collect level nodes of this dataset (IRI prefix match keeps levels of
  // other datasets in the same store apart).
  const std::string level_prefix = dataset_iri + "/level/";
  std::map<rdf::TermId, int> level_to_node;
  std::vector<VsgNode> nodes;
  {
    VsgNode root;
    root.id = 0;
    root.is_root = true;
    root.name = "Observation";
    nodes.push_back(std::move(root));
    level_to_node[root_level] = 0;
  }
  if (level_class != rdf::kInvalidTermId) {
    for (const rdf::EncodedTriple& t :
         store.Match({rdf::kInvalidTermId, type, level_class})) {
      if (t.s == root_level) continue;
      const std::string_view iri = store.term(t.s).value;
      if (!iri.starts_with(level_prefix)) continue;
      VsgNode node;
      node.id = static_cast<int>(nodes.size());
      level_to_node[t.s] = node.id;
      // Level label.
      for (const rdf::EncodedTriple& lt :
           store.Match({t.s, label, rdf::kInvalidTermId})) {
        node.name = std::string(store.term(lt.o).value);
        break;
      }
      nodes.push_back(std::move(node));
    }
  }

  // Members and attributes per level.
  for (auto& [level_iri, node_id] : level_to_node) {
    if (node_id == 0) continue;
    if (p_member_of != rdf::kInvalidTermId) {
      for (const rdf::EncodedTriple& t :
           store.Match({rdf::kInvalidTermId, p_member_of, level_iri})) {
        nodes[node_id].members.push_back(t.s);
      }
    }
    if (p_has_attr != rdf::kInvalidTermId) {
      for (const rdf::EncodedTriple& t :
           store.Match({level_iri, p_has_attr, rdf::kInvalidTermId})) {
        nodes[node_id].attribute_predicates.push_back(t.o);
      }
    }
  }

  // Hierarchy steps -> edges.
  std::vector<VsgEdge> edges;
  if (step_class != rdf::kInvalidTermId) {
    const std::string step_prefix = dataset_iri + "/step/";
    for (const rdf::EncodedTriple& t :
         store.Match({rdf::kInvalidTermId, type, step_class})) {
      if (!store.term(t.s).value.starts_with(step_prefix)) continue;
      VsgEdge edge;
      auto read = [&](rdf::TermId pred, rdf::TermId* out_id) {
        auto span = store.Match({t.s, pred, rdf::kInvalidTermId});
        *out_id = span.empty() ? rdf::kInvalidTermId : span.front().o;
      };
      rdf::TermId child, parent, rollup;
      read(p_child, &child);
      read(p_parent, &parent);
      read(p_rollup, &rollup);
      auto cit = level_to_node.find(child);
      auto pit = level_to_node.find(parent);
      if (cit == level_to_node.end() || pit == level_to_node.end() ||
          rollup == rdf::kInvalidTermId) {
        return util::Status::ParseError(
            "malformed hierarchy step " + std::string(store.term(t.s).value));
      }
      edge.from = cit->second;
      edge.to = pit->second;
      edge.predicate = rollup;
      edges.push_back(edge);
    }
  }

  // Measures and observation attributes.
  std::vector<rdf::TermId> measures, obs_attrs;
  if (p_measure != rdf::kInvalidTermId) {
    for (const rdf::EncodedTriple& t :
         store.Match({ds, p_measure, rdf::kInvalidTermId})) {
      measures.push_back(t.o);
    }
  }
  if (p_obs_attr != rdf::kInvalidTermId) {
    for (const rdf::EncodedTriple& t :
         store.Match({ds, p_obs_attr, rdf::kInvalidTermId})) {
      obs_attrs.push_back(t.o);
    }
  }

  return VirtualSchemaGraph::FromParts(std::move(nodes), std::move(edges),
                                       std::move(measures),
                                       std::move(obs_attrs));
}

}  // namespace re2xolap::core
