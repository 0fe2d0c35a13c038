#include "core/virtual_schema_graph.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "obs/trace.h"
#include "util/timer.h"

namespace re2xolap::core {

namespace {

constexpr char kRdfTypeIri[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

uint64_t HashMemberSet(const std::vector<rdf::TermId>& sorted_members) {
  uint64_t h = 14695981039346656037ULL;
  for (rdf::TermId m : sorted_members) {
    h ^= m;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string PrettifyIriLocalName(const std::string& iri) {
  size_t cut = iri.find_last_of("/#");
  std::string local = cut == std::string::npos ? iri : iri.substr(cut + 1);
  std::string out;
  bool word_start = true;
  for (size_t i = 0; i < local.size(); ++i) {
    char c = local[i];
    if (c == '_' || c == '-') {
      if (!out.empty() && out.back() != ' ') out += ' ';
      word_start = true;
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(c)) && i > 0 &&
        std::islower(static_cast<unsigned char>(local[i - 1]))) {
      out += ' ';
      word_start = true;
    }
    if (word_start) {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      word_start = false;
    } else {
      out += c;
    }
  }
  return out;
}

util::Result<VirtualSchemaGraph> VirtualSchemaGraph::Build(
    const rdf::TripleStore& store, const std::string& observation_class_iri,
    const VsgOptions& options, VsgBuildStats* stats) {
  obs::Span span("vsg.build");
  util::WallTimer timer;
  if (!store.frozen()) {
    return util::Status::InvalidArgument(
        "TripleStore must be frozen before building the virtual graph");
  }
  rdf::TripleStore::ReadPin pin(store);
  rdf::TermId obs_class = store.Lookup(rdf::Term::Iri(observation_class_iri));
  rdf::TermId type_pred = store.Lookup(rdf::Term::Iri(kRdfTypeIri));
  if (obs_class == rdf::kInvalidTermId || type_pred == rdf::kInvalidTermId) {
    return util::Status::NotFound("observation class <" +
                                  observation_class_iri +
                                  "> not present in the store");
  }

  VirtualSchemaGraph vsg;
  VsgBuildStats unused_stats;
  VsgBuildStats& st = stats != nullptr ? *stats : unused_stats;

  // Root node (the observation level v_o).
  VsgNode root;
  root.id = 0;
  root.is_root = true;
  root.name = "Observation";
  vsg.nodes_.push_back(std::move(root));

  uint64_t guard_polls = 0;
  // Poll interval for the crawl loops: one step (a triple swept, a member
  // visited) is cheap, so a clock read every iteration would dominate.
  constexpr uint64_t kGuardPollInterval = 256;
  auto poll_guard = [&]() -> util::Status {
    if (options.guard == nullptr) return util::Status::OK();
    if (++guard_polls % kGuardPollInterval != 0) return util::Status::OK();
    return options.guard->Check();
  };

  // --- pass 1: classify observation predicates ------------------------------
  // The (rdf:type, class) POS run lists the observations by ascending id;
  // they are marked in a dense bitmap. Then each other predicate's POS run
  // is swept once: its (o, s) order groups the triples by object, so each
  // distinct object reached from an observation is classified once, and
  // IRI/blank objects arrive ascending — the base-level members, already
  // sorted and distinct.
  ++st.store_scans;
  rdf::IndexRange obs_triples =
      store.Match(rdf::TriplePattern{rdf::kInvalidTermId, type_pred,
                                     obs_class});
  if (obs_triples.empty()) {
    return util::Status::NotFound("no observations of class <" +
                                  observation_class_iri + ">");
  }
  const rdf::TermId max_obs = obs_triples.back().s;
  std::vector<bool> is_obs(static_cast<size_t>(max_obs) + 1, false);
  for (const rdf::EncodedTriple& typing : obs_triples) {
    ++st.members_visited;
    RE2X_RETURN_IF_ERROR(poll_guard());
    is_obs[typing.s] = true;
  }

  // Dimension predicates (ascending) with their base-level members.
  std::vector<std::pair<rdf::TermId, std::vector<rdf::TermId>>> dim_members;
  for (rdf::TermId pred : store.AllPredicates()) {
    if (pred == type_pred) continue;
    ++st.store_scans;
    bool measure = false;
    bool attribute = false;
    std::vector<rdf::TermId> members;
    rdf::TermId last = rdf::kInvalidTermId;
    for (const rdf::EncodedTriple& t : store.Match(rdf::TriplePattern{
             rdf::kInvalidTermId, pred, rdf::kInvalidTermId})) {
      RE2X_RETURN_IF_ERROR(poll_guard());
      if (t.o == last || t.s > max_obs || !is_obs[t.s]) continue;
      last = t.o;
      const rdf::Term& o = store.term(t.o);
      if (!o.is_literal()) {
        members.push_back(t.o);
      } else if (o.is_numeric_literal()) {
        measure = true;
      } else {
        attribute = true;
      }
    }
    if (measure) vsg.measures_.push_back(pred);
    if (attribute) vsg.observation_attrs_.push_back(pred);
    if (!members.empty()) dim_members.emplace_back(pred, std::move(members));
  }

  // --- pass 2: base levels + recursive hierarchy expansion ------------------
  // Node identity by member-set hash, to merge diamonds and cut cycles.
  std::map<uint64_t, std::vector<int>> nodes_by_sig;
  std::vector<bool> expanded;  // per node id
  expanded.push_back(true);    // root is never expanded as a level

  auto find_or_create_node = [&](std::vector<rdf::TermId> members,
                                 const std::string& name,
                                 bool* created) -> int {
    uint64_t sig = HashMemberSet(members);
    auto it = nodes_by_sig.find(sig);
    if (it != nodes_by_sig.end()) {
      for (int nid : it->second) {
        if (vsg.nodes_[nid].members == members) {
          *created = false;
          return nid;
        }
      }
    }
    VsgNode node;
    node.id = static_cast<int>(vsg.nodes_.size());
    node.name = name;
    node.members = std::move(members);
    node.members.shrink_to_fit();
    nodes_by_sig[sig].push_back(node.id);
    vsg.nodes_.push_back(std::move(node));
    expanded.push_back(false);
    *created = true;
    return vsg.nodes_.back().id;
  };

  // Recursively expands a level node: enumerate predicates from its members.
  // Iterative worklist of (node id, depth).
  std::vector<std::pair<int, size_t>> worklist;

  for (auto& [pred, members] : dim_members) {
    bool created = false;
    int nid = find_or_create_node(
        std::move(members), PrettifyIriLocalName(store.term(pred).value),
        &created);
    vsg.edges_.push_back(VsgEdge{0, nid, pred});
    if (created) worklist.emplace_back(nid, 1);
  }

  // A level's members are sorted, so their SPO runs appear in member order:
  // one forward gallop over the whole permutation finds each run, starting
  // from the end of the previous one.
  const rdf::IndexRange spo = store.PermutationRange(rdf::Perm::kSpo);
  rdf::IndexBlockScratch scratch;
  // (p, o) steps packed as p << 32 | o, so one integer sort orders them.
  std::vector<uint64_t> steps;
  std::vector<rdf::TermId> level_attrs;
  while (!worklist.empty()) {
    auto [nid, depth] = worklist.back();
    worklist.pop_back();
    if (expanded[nid]) continue;
    expanded[nid] = true;
    if (depth >= options.max_depth) continue;
    if (options.max_members_per_level > 0 &&
        vsg.nodes_[nid].members.size() > options.max_members_per_level) {
      continue;
    }
    steps.clear();
    level_attrs.clear();
    uint64_t pos = 0;
    for (rdf::TermId m : vsg.nodes_[nid].members) {
      ++st.members_visited;
      ++st.store_scans;
      RE2X_RETURN_IF_ERROR(poll_guard());
      pos = spo.GallopLowerBound(
          pos, rdf::EncodedTriple{m, rdf::kInvalidTermId, rdf::kInvalidTermId},
          &scratch);
      const uint64_t end = spo.GallopUpperBound(
          pos, rdf::EncodedTriple{m, rdf::kMaxTermId, rdf::kMaxTermId},
          &scratch);
      while (pos < end) {
        std::span<const rdf::EncodedTriple> chunk =
            spo.Fetch(pos, end - pos, &scratch);
        for (const rdf::EncodedTriple& t : chunk) {
          if (t.p == type_pred) continue;
          if (!store.term(t.o).is_literal()) {
            steps.push_back(uint64_t{t.p} << 32 | t.o);
          } else if (level_attrs.empty() || level_attrs.back() != t.p) {
            level_attrs.push_back(t.p);
          }
        }
        pos += chunk.size();
      }
    }
    std::sort(level_attrs.begin(), level_attrs.end());
    level_attrs.erase(std::unique(level_attrs.begin(), level_attrs.end()),
                      level_attrs.end());
    vsg.nodes_[nid].attribute_predicates.assign(level_attrs.begin(),
                                                level_attrs.end());
    std::sort(steps.begin(), steps.end());
    steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
    for (size_t i = 0; i < steps.size();) {
      const auto pred = static_cast<rdf::TermId>(steps[i] >> 32);
      std::vector<rdf::TermId> members;
      for (; i < steps.size() && steps[i] >> 32 == pred; ++i) {
        members.push_back(static_cast<rdf::TermId>(steps[i]));
      }
      bool created = false;
      int target = find_or_create_node(
          std::move(members), PrettifyIriLocalName(store.term(pred).value),
          &created);
      // Avoid duplicate parallel edges (possible when two merged levels
      // share predicates).
      bool dup = false;
      for (const VsgEdge& e : vsg.edges_) {
        if (e.from == nid && e.to == target && e.predicate == pred) {
          dup = true;
          break;
        }
      }
      if (!dup) vsg.edges_.push_back(VsgEdge{nid, target, pred});
      if (created) worklist.emplace_back(target, depth + 1);
    }
  }

  // --- indexes ----------------------------------------------------------------
  vsg.out_edges_.assign(vsg.nodes_.size(), {});
  for (size_t i = 0; i < vsg.edges_.size(); ++i) {
    vsg.out_edges_[vsg.edges_[i].from].push_back(static_cast<int>(i));
  }
  vsg.CountMembers();
  vsg.ComputePaths();
  st.build_millis = timer.ElapsedMillis();
  return vsg;
}

util::Result<VirtualSchemaGraph> VirtualSchemaGraph::FromParts(
    std::vector<VsgNode> nodes, std::vector<VsgEdge> edges,
    std::vector<rdf::TermId> measures,
    std::vector<rdf::TermId> observation_attrs) {
  if (nodes.empty() || !nodes[0].is_root) {
    return util::Status::InvalidArgument(
        "nodes[0] must be the observation root");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].id != static_cast<int>(i)) {
      return util::Status::InvalidArgument("node ids must be dense 0..n-1");
    }
    std::sort(nodes[i].members.begin(), nodes[i].members.end());
    nodes[i].members.erase(
        std::unique(nodes[i].members.begin(), nodes[i].members.end()),
        nodes[i].members.end());
  }
  for (const VsgEdge& e : edges) {
    if (e.from < 0 || e.to <= 0 ||
        e.from >= static_cast<int>(nodes.size()) ||
        e.to >= static_cast<int>(nodes.size()) ||
        e.predicate == rdf::kInvalidTermId) {
      return util::Status::InvalidArgument("edge references invalid node");
    }
  }
  VirtualSchemaGraph vsg;
  vsg.nodes_ = std::move(nodes);
  vsg.edges_ = std::move(edges);
  vsg.measures_ = std::move(measures);
  vsg.observation_attrs_ = std::move(observation_attrs);
  vsg.out_edges_.assign(vsg.nodes_.size(), {});
  for (size_t i = 0; i < vsg.edges_.size(); ++i) {
    vsg.out_edges_[vsg.edges_[i].from].push_back(static_cast<int>(i));
  }
  vsg.CountMembers();
  vsg.ComputePaths();
  return vsg;
}

util::Status VirtualSchemaGraph::Update(
    const rdf::TripleStore& store, const std::string& observation_class_iri,
    const std::vector<rdf::TermId>* new_observations, VsgBuildStats* stats) {
  util::WallTimer timer;
  if (!store.frozen()) {
    return util::Status::InvalidArgument(
        "TripleStore must be frozen before updating the virtual graph");
  }
  rdf::TripleStore::ReadPin pin(store);
  rdf::TermId obs_class = store.Lookup(rdf::Term::Iri(observation_class_iri));
  rdf::TermId type_pred = store.Lookup(rdf::Term::Iri(kRdfTypeIri));
  if (obs_class == rdf::kInvalidTermId || type_pred == rdf::kInvalidTermId) {
    return util::Status::NotFound("observation class <" +
                                  observation_class_iri +
                                  "> not present in the store");
  }

  // Known (node, predicate) -> target node transitions.
  std::map<std::pair<int, rdf::TermId>, int> transitions;
  for (const VsgEdge& e : edges_) {
    transitions[{e.from, e.predicate}] = e.to;
  }
  std::set<rdf::TermId> known_measures(measures_.begin(), measures_.end());
  std::set<rdf::TermId> known_attrs(observation_attrs_.begin(),
                                    observation_attrs_.end());

  // Pass 1: re-classify observation predicates; collect base members that
  // are new to their level. With a delta hint only the appended
  // observations are scanned.
  std::vector<rdf::TermId> all_obs;
  if (new_observations == nullptr) {
    for (const rdf::EncodedTriple& typing :
         store.Match({rdf::kInvalidTermId, type_pred, obs_class})) {
      all_obs.push_back(typing.s);
    }
  }
  const std::vector<rdf::TermId>& obs_list =
      new_observations ? *new_observations : all_obs;
  std::map<int, std::set<rdf::TermId>> new_members;  // node -> members
  for (rdf::TermId obs : obs_list) {
    if (stats) ++stats->members_visited;
    if (stats) ++stats->store_scans;
    for (const rdf::EncodedTriple& t : store.Match(
             {obs, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
      if (t.p == type_pred) continue;
      const rdf::Term& o = store.term(t.o);
      if (o.is_literal()) {
        if (o.is_numeric_literal()) {
          if (!known_measures.count(t.p)) {
            return util::Status::InvalidArgument(
                "schema change: new measure predicate " +
                store.term(t.p).value);
          }
        } else if (!known_attrs.count(t.p)) {
          // New literal attributes are harmless; record them.
          known_attrs.insert(t.p);
          observation_attrs_.push_back(t.p);
        }
        continue;
      }
      auto it = transitions.find({0, t.p});
      if (it == transitions.end()) {
        return util::Status::InvalidArgument(
            "schema change: new dimension predicate " +
            store.term(t.p).value);
      }
      if (!IsMemberOf(t.o, it->second)) {
        new_members[it->second].insert(t.o);
      }
    }
  }

  // Pass 2: propagate new members up the known hierarchy edges.
  std::vector<std::pair<int, rdf::TermId>> worklist;
  for (const auto& [node, members] : new_members) {
    for (rdf::TermId m : members) worklist.emplace_back(node, m);
  }
  while (!worklist.empty()) {
    auto [node, member] = worklist.back();
    worklist.pop_back();
    // Insert into the level (sorted) if genuinely new there.
    std::vector<rdf::TermId>& ms = nodes_[node].members;
    auto pos = std::lower_bound(ms.begin(), ms.end(), member);
    if (pos != ms.end() && *pos == member) continue;
    if (NodesOfMember(member).empty()) ++total_members_;
    ms.insert(pos, member);
    if (stats) {
      ++stats->members_visited;
      ++stats->store_scans;
    }
    for (const rdf::EncodedTriple& t :
         store.Match({member, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
      const rdf::Term& o = store.term(t.o);
      if (o.is_literal()) {
        // New attribute predicates on a level are recorded.
        auto& attrs = nodes_[node].attribute_predicates;
        if (std::find(attrs.begin(), attrs.end(), t.p) == attrs.end()) {
          attrs.push_back(t.p);
        }
        continue;
      }
      auto it = transitions.find({node, t.p});
      if (it == transitions.end()) {
        return util::Status::InvalidArgument(
            "schema change: new hierarchy step " + store.term(t.p).value +
            " from level " + nodes_[node].name);
      }
      worklist.emplace_back(it->second, t.o);
    }
  }
  if (stats) stats->build_millis = timer.ElapsedMillis();
  return util::Status::OK();
}

void VirtualSchemaGraph::CountMembers() {
  std::vector<rdf::TermId> all;
  for (const VsgNode& n : nodes_) {
    if (!n.is_root) all.insert(all.end(), n.members.begin(), n.members.end());
  }
  std::sort(all.begin(), all.end());
  total_members_ = static_cast<size_t>(
      std::unique(all.begin(), all.end()) - all.begin());
}

void VirtualSchemaGraph::ComputePaths() {
  level_paths_.clear();
  // DFS from the root; a node may appear at most once per path (cycle cut).
  struct Frame {
    int node;
    std::vector<rdf::TermId> preds;
    std::vector<int> visited;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{0, {}, {0}});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    for (int ei : out_edges_[f.node]) {
      const VsgEdge& e = edges_[ei];
      if (std::find(f.visited.begin(), f.visited.end(), e.to) !=
          f.visited.end()) {
        continue;
      }
      LevelPath path;
      path.predicates = f.preds;
      path.predicates.push_back(e.predicate);
      path.target_node = e.to;
      level_paths_.push_back(path);
      Frame next;
      next.node = e.to;
      next.preds = path.predicates;
      next.visited = f.visited;
      next.visited.push_back(e.to);
      stack.push_back(std::move(next));
    }
  }
  // Deterministic order: by path length then lexicographic predicates.
  std::sort(level_paths_.begin(), level_paths_.end(),
            [](const LevelPath& a, const LevelPath& b) {
              if (a.predicates.size() != b.predicates.size()) {
                return a.predicates.size() < b.predicates.size();
              }
              return a.predicates < b.predicates;
            });
}

std::vector<const LevelPath*> VirtualSchemaGraph::PathsTo(int node) const {
  std::vector<const LevelPath*> out;
  for (const LevelPath& p : level_paths_) {
    if (p.target_node == node) out.push_back(&p);
  }
  return out;
}

std::vector<int> VirtualSchemaGraph::NodesOfMember(rdf::TermId member) const {
  // A graph has a few dozen levels, so one binary search per level's
  // sorted members beats keeping a member -> levels map.
  std::vector<int> out;
  for (const VsgNode& n : nodes_) {
    if (!n.is_root && IsMemberOf(member, n.id)) out.push_back(n.id);
  }
  return out;
}

bool VirtualSchemaGraph::IsMemberOf(rdf::TermId member, int node) const {
  const std::vector<rdf::TermId>& ms = nodes_[node].members;
  return std::binary_search(ms.begin(), ms.end(), member);
}

size_t VirtualSchemaGraph::dimension_count() const {
  std::set<rdf::TermId> preds;
  for (int ei : out_edges_[0]) preds.insert(edges_[ei].predicate);
  return preds.size();
}

size_t VirtualSchemaGraph::hierarchy_count() const {
  // Root-to-leaf paths; a base level with no outgoing edges contributes one
  // trivial hierarchy.
  size_t n = 0;
  for (const LevelPath& p : level_paths_) {
    if (out_edges_[p.target_node].empty()) ++n;
  }
  return n;
}

size_t VirtualSchemaGraph::MemoryUsage() const {
  size_t bytes = 0;
  for (const VsgNode& n : nodes_) {
    bytes += sizeof(VsgNode) + n.name.capacity() +
             n.members.capacity() * sizeof(rdf::TermId) +
             n.attribute_predicates.capacity() * sizeof(rdf::TermId);
  }
  bytes += edges_.capacity() * sizeof(VsgEdge);
  for (const LevelPath& p : level_paths_) {
    bytes += sizeof(LevelPath) + p.predicates.capacity() * sizeof(rdf::TermId);
  }
  return bytes;
}

}  // namespace re2xolap::core
