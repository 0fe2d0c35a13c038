#ifndef RE2XOLAP_CORE_SESSION_H_
#define RE2XOLAP_CORE_SESSION_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/exref.h"
#include "core/reolap.h"
#include "engine/query_engine.h"
#include "sparql/executor.h"
#include "storage/snapshot.h"
#include "util/result.h"

namespace re2xolap::core {

class Session;

/// A full exploration environment reconstructed from a snapshot image by
/// Session::OpenSnapshot: the dataset (`data`), the rebuilt schema graph,
/// the engine over the store, and a Session wired to them. `session`
/// holds pointers into `data`, `vsg` and `engine`; moving the struct is
/// fine (the unique_ptr targets are stable), but the parts must stay
/// together for the session's lifetime.
struct SnapshotSession {
  storage::LoadedSnapshot data;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<Session> session;

  SnapshotSession();
  SnapshotSession(SnapshotSession&&) noexcept;
  SnapshotSession& operator=(SnapshotSession&&) noexcept;
  ~SnapshotSession();
};

/// The refinement methods offered each round (ExRef in Algorithm 2; the
/// cluster method is the user-study prototype's alternative to TopK).
enum class RefinementKind {
  kDisaggregate,
  kRollUp,
  kTopK,
  kPercentile,
  kSimilarity,
  kCluster,
};

const char* RefinementKindName(RefinementKind kind);

/// Cumulative exploration statistics (paper Figure 8c): how many distinct
/// exploration paths (reachable queries) and result tuples the session
/// gave access to so far. Each interaction multiplies the reachable-path
/// frontier by its branching factor (the number of options offered), so
/// after a few interactions the user has access to thousands of distinct
/// exploration paths.
struct ExplorationStats {
  size_t interactions = 0;
  /// Sum over interactions of the reachable-path frontier.
  size_t cumulative_paths = 0;
  /// Result tuples of executed queries, accumulated.
  size_t cumulative_tuples = 0;
  /// Current frontier: product of the branching factors so far.
  size_t frontier = 1;
  /// Execution wall time (ExecStats::exec_millis) of this session's
  /// queries; cache hits cost nothing and add nothing.
  double cumulative_exec_millis = 0;
  /// Index entries inspected by this session's queries, accumulated.
  uint64_t cumulative_triples_scanned = 0;
  /// Bindings produced across all plan steps, accumulated.
  uint64_t cumulative_intermediate_bindings = 0;
  /// Wall time of each interaction (Start/Refine/ExcludeNegative/Slice),
  /// in order; always the same length as `interactions`. Query execution
  /// triggered inside an interaction is included in its latency.
  std::vector<double> interaction_latency_millis;
};

/// An interactive Re2xOLAP exploration session (paper Algorithm 2):
///
///   engine::QueryEngine engine(*store);
///   Session s(store, vsg, text, &engine);
///   auto candidates = s.Start({"Germany", "2014"});   // ReOLAP
///   s.PickCandidate(0);
///   auto* table = s.Execute();                        // Q(G)
///   auto refinements = s.Refine(RefinementKind::kDisaggregate);
///   s.PickRefinement(1);
///   ...
///   s.Back();                                         // backtrack
///
/// The session owns the exploration history; Back() restores the previous
/// query state (the paper's "backtracks to a previous query to start a
/// different exploration path").
class Session {
 public:
  /// Every session query (including ReOLAP validation probes) executes
  /// through `engine`, so many concurrent sessions over one frozen store
  /// share a single plan/result cache (the server front door's
  /// configuration). The engine must be built over `*store` and outlive
  /// the session; QueryEngine is safe for concurrent use once the store
  /// is frozen.
  Session(const rdf::TripleStore* store, const VirtualSchemaGraph* vsg,
          const rdf::TextIndex* text, engine::QueryEngine* engine,
          sparql::ExecOptions exec_options = {})
      : store_(store),
        vsg_(vsg),
        text_(text),
        engine_(engine),
        reolap_(vsg, text, *engine),
        exec_options_(exec_options) {
    assert(&engine->store() == store);
  }

  /// Query synthesis phase: runs ReOLAP on the example tuple and stores
  /// the candidates.
  util::Result<std::vector<CandidateQuery>> Start(
      const std::vector<std::string>& example_tuple,
      const ReolapOptions& options = {});

  /// Selects candidate `index` from the last Start() as the current query.
  util::Status PickCandidate(size_t index);

  /// Executes the current query (cached until the state changes).
  util::Result<const sparql::ResultTable*> Execute();

  /// Same, under per-call options (e.g. a server request's
  /// arrival-anchored guard) instead of the session defaults. A result
  /// cached since the last state change is returned without re-executing
  /// either way.
  util::Result<const sparql::ResultTable*> Execute(
      const sparql::ExecOptions& options);

  /// Produces refinements of the current state with the given method.
  /// TopK/Percentile/Similarity/Cluster execute the current query first if
  /// needed.
  util::Result<std::vector<ExploreState>> Refine(
      RefinementKind kind, const SimilarityOptions& sim_options = {},
      const PercentileOptions& perc_options = {},
      const ClusterOptions& cluster_options = {});

  /// Applies a negative-example exclusion to the current state in place
  /// (counts as an interaction). Returns values that matched nothing.
  util::Result<std::vector<std::string>> ExcludeNegative(
      const std::vector<std::string>& negative_values);

  /// Slices the current query on example value `example_index` (pins the
  /// dimension to the example member(s) and removes the column). Counts
  /// as an interaction and is undoable with Back().
  util::Status Slice(size_t example_index);

  /// Selects refinement `index` from the last Refine() as the new state.
  util::Status PickRefinement(size_t index);

  /// Restores the previous state; no-op at the root.
  void Back();

  bool has_state() const { return !history_.empty(); }
  const ExploreState& current() const { return history_.back(); }
  const ExplorationStats& stats() const { return stats_; }
  const Reolap& reolap() const { return reolap_; }

  /// The session's query engine; all session queries (including ReOLAP
  /// validation probes) execute through it and share its caches.
  engine::QueryEngine& engine() { return *engine_; }
  const engine::QueryEngine& engine() const { return *engine_; }

  /// Execution statistics (incl. the per-operator profile tree) of the
  /// most recent cache-missing Execute(). Zeroed until the first query
  /// runs.
  const sparql::ExecStats& last_exec_stats() const { return last_exec_; }

  /// Serializes the session's full dataset image — store, text index, and
  /// schema graph — into a snapshot at `path`, so a later process can boot
  /// with OpenSnapshot instead of re-parsing and re-crawling. Honors
  /// `options.guard` (deadline/cancel) and the `snapshot.save` failpoint.
  util::Status SaveSnapshot(
      const std::string& path,
      const storage::SnapshotWriteOptions& options = {}) const;

  /// Boots a complete exploration environment from a snapshot image
  /// written by SaveSnapshot. The image must carry the text-index and
  /// schema-graph sections (ReOLAP needs both); store-only images can
  /// still be loaded with storage::LoadSnapshot or
  /// engine::QueryEngine::OpenSnapshot. The schema graph is reconstructed
  /// via VirtualSchemaGraph::FromParts, which re-derives level paths and
  /// the member index and re-validates edges.
  static util::Result<SnapshotSession> OpenSnapshot(
      const std::string& path,
      const storage::SnapshotLoadOptions& options = {},
      sparql::ExecOptions exec_options = {},
      engine::EngineConfig engine_config = {});

 private:
  void InvalidateResults() { results_.reset(); }

  /// Appends one interaction latency to the stats and the session
  /// histogram.
  void RecordInteraction(double millis);

  const rdf::TripleStore* store_;
  const VirtualSchemaGraph* vsg_;
  const rdf::TextIndex* text_;
  engine::QueryEngine* engine_;
  Reolap reolap_;
  sparql::ExecOptions exec_options_;

  std::vector<CandidateQuery> candidates_;
  std::vector<ExploreState> pending_refinements_;
  std::vector<ExploreState> history_;
  engine::TableHandle results_;
  ExplorationStats stats_;
  sparql::ExecStats last_exec_;
};

}  // namespace re2xolap::core

#endif  // RE2XOLAP_CORE_SESSION_H_
