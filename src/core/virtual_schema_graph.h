#ifndef RE2XOLAP_CORE_VIRTUAL_SCHEMA_GRAPH_H_
#define RE2XOLAP_CORE_VIRTUAL_SCHEMA_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/triple_store.h"
#include "util/exec_guard.h"
#include "util/result.h"

namespace re2xolap::core {

/// A node of the virtual schema graph: one hierarchy level (or the
/// observation root). Holds the level's sorted member ids, which
/// NodesOfMember() binary-searches so that ReOLAP can map matched entities
/// back to levels without querying the store.
struct VsgNode {
  int id = -1;
  bool is_root = false;
  /// Human-readable level name derived from the predicate reaching it
  /// (e.g. "countryOrigin" -> "Country Origin").
  std::string name;
  /// Sorted ids of the dimension members at this level.
  std::vector<rdf::TermId> members;
  /// Predicates linking members of this level to literals (P_A in the
  /// paper), e.g. rdfs:label.
  std::vector<rdf::TermId> attribute_predicates;
};

/// A labeled edge: members of `from` are linked to members of `to` by
/// `predicate`. Edges from the root carry dimension predicates (P_D).
struct VsgEdge {
  int from = -1;
  int to = -1;
  rdf::TermId predicate = rdf::kInvalidTermId;
};

/// A root-to-level predicate path. The first predicate identifies the
/// dimension; the target node is the aggregation level the path reaches.
struct LevelPath {
  std::vector<rdf::TermId> predicates;
  int target_node = -1;
  /// Convenience: the dimension predicate (first step).
  rdf::TermId dimension_predicate() const {
    return predicates.empty() ? rdf::kInvalidTermId : predicates.front();
  }
};

/// Options controlling the bootstrap crawl.
struct VsgOptions {
  /// Maximum hierarchy depth explored from the base level (cycle guard).
  size_t max_depth = 8;
  /// Levels whose member count exceeds this are not expanded further
  /// (safety valve for pathological graphs); 0 = no cap.
  size_t max_members_per_level = 0;
  /// Optional guardrails polled during the crawl loops (observation
  /// classification and hierarchy expansion). A tripped guard aborts the
  /// Build with its kTimeout / kResourceExhausted / kCancelled status.
  /// Non-owning; must outlive the Build call.
  const util::ExecGuard* guard = nullptr;
};

/// Statistics of a bootstrap run (reported in Figure 6c benches).
/// Build() issues one scan for the observation class's rdf:type run, one
/// sequential sweep per other predicate's POS run, and one SPO run per
/// level member it expands, so `store_scans` = 1 + predicates swept +
/// level members visited: it follows the schema, not the observation
/// count. `members_visited` counts observations classified plus level
/// members expanded. Update() counts one scan per observation and per new
/// member it reads.
struct VsgBuildStats {
  uint64_t store_scans = 0;      // index range scans issued
  uint64_t members_visited = 0;  // member nodes touched during the crawl
  double build_millis = 0;
};

/// The Virtual Schema Graph (paper Section 5.2): an in-memory summary of
/// the statistical KG with one node per hierarchy level plus a root node
/// for observations. It is built once at bootstrap by crawling the store
/// from the observation class, and lets query synthesis and refinement
/// enumerate dimensions, levels, and BGP paths without touching the store.
class VirtualSchemaGraph {
 public:
  /// Crawls `store` starting from instances of `observation_class_iri`
  /// (all reads under one ReadPin, so a live store is read at one epoch):
  ///  - predicates from observations to IRIs become dimension predicates,
  ///    their objects the base-level members;
  ///  - predicates from observations to numeric literals become measures;
  ///  - recursively, predicates from level members to IRIs become
  ///    hierarchy steps (levels reached by the same (level, predicate)
  ///    pair are merged; cycles are cut by the depth cap and by
  ///    member-set identity).
  static util::Result<VirtualSchemaGraph> Build(
      const rdf::TripleStore& store, const std::string& observation_class_iri,
      const VsgOptions& options = {}, VsgBuildStats* stats = nullptr);

  /// Incrementally refreshes the graph after new data was appended to the
  /// store (paper Section 7.1: "if the schema does not change and only new
  /// data is added, all the in-memory data structures are updated
  /// efficiently without the need for re-computation"). New members are
  /// merged into their existing levels by following known (level,
  /// predicate) edges. When the caller knows which observation nodes were
  /// appended, passing them in `new_observations` restricts the scan to
  /// the delta (otherwise all observations are re-classified, which is
  /// still cheaper than a full Build's member crawl). Returns
  /// InvalidArgument when the append introduced a new dimension predicate
  /// or a new hierarchy step (a schema change) — callers should then fall
  /// back to a full Build().
  util::Status Update(const rdf::TripleStore& store,
                      const std::string& observation_class_iri,
                      const std::vector<rdf::TermId>* new_observations =
                          nullptr,
                      VsgBuildStats* stats = nullptr);

  /// Assembles a graph from externally provided components (used by the
  /// QB4OLAP annotation importer, see core/qb4olap.h). `nodes[0]` must be
  /// the observation root; node member lists need not be sorted. Edge
  /// endpoints are validated.
  static util::Result<VirtualSchemaGraph> FromParts(
      std::vector<VsgNode> nodes, std::vector<VsgEdge> edges,
      std::vector<rdf::TermId> measures,
      std::vector<rdf::TermId> observation_attrs);

  // --- structure ------------------------------------------------------------

  int root() const { return 0; }
  const std::vector<VsgNode>& nodes() const { return nodes_; }
  const std::vector<VsgEdge>& edges() const { return edges_; }
  const VsgNode& node(int id) const { return nodes_[id]; }

  /// Outgoing edge indexes of `node`.
  const std::vector<int>& out_edges(int node) const {
    return out_edges_[node];
  }

  /// Measure predicates (P_M) discovered on observations.
  const std::vector<rdf::TermId>& measure_predicates() const {
    return measures_;
  }

  /// Literal-valued observation predicates that are not numeric measures
  /// (e.g. sex/unit attributes).
  const std::vector<rdf::TermId>& observation_attributes() const {
    return observation_attrs_;
  }

  /// All root-to-level paths (every path prefix is itself a level path).
  /// These are exactly the candidate aggregation levels for synthesis and
  /// the candidate drill paths for the Disaggregate refinement.
  const std::vector<LevelPath>& level_paths() const { return level_paths_; }

  /// Paths whose target node is `node`.
  std::vector<const LevelPath*> PathsTo(int node) const;

  /// Nodes (levels) a member id belongs to, ascending; empty for
  /// non-members. Binary-searches each level's sorted `members`.
  std::vector<int> NodesOfMember(rdf::TermId member) const;

  /// True when `member` belongs to level `node`.
  bool IsMemberOf(rdf::TermId member, int node) const;

  // --- Table 3 shape statistics ----------------------------------------------

  /// Number of dimensions = distinct dimension predicates on the root.
  size_t dimension_count() const;
  /// Number of hierarchies = root-to-leaf paths (a dimension whose base
  /// level has no outgoing steps counts as one trivial hierarchy).
  size_t hierarchy_count() const;
  /// Number of levels = nodes excluding the root.
  size_t level_count() const { return nodes_.size() - 1; }
  /// Total dimension members across levels (paper's |N_D|): distinct ids,
  /// counted once by Build/FromParts and kept current by Update.
  size_t total_members() const { return total_members_; }
  size_t measure_count() const { return measures_.size(); }

  /// Approximate heap footprint in bytes (Table 3's "VGraph" column).
  size_t MemoryUsage() const;

 private:
  VirtualSchemaGraph() = default;
  void CountMembers();
  void ComputePaths();

  std::vector<VsgNode> nodes_;
  std::vector<VsgEdge> edges_;
  std::vector<std::vector<int>> out_edges_;
  std::vector<rdf::TermId> measures_;
  std::vector<rdf::TermId> observation_attrs_;
  std::vector<LevelPath> level_paths_;
  size_t total_members_ = 0;
};

/// "countryOrigin" / "country_origin" / IRI -> "Country Origin".
std::string PrettifyIriLocalName(const std::string& iri);

}  // namespace re2xolap::core

#endif  // RE2XOLAP_CORE_VIRTUAL_SCHEMA_GRAPH_H_
