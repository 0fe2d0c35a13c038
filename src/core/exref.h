#ifndef RE2XOLAP_CORE_EXREF_H_
#define RE2XOLAP_CORE_EXREF_H_

#include <string>
#include <vector>

#include "core/reolap.h"
#include "engine/query_engine.h"
#include "sparql/executor.h"
#include "sparql/result_table.h"
#include "util/exec_guard.h"
#include "util/result.h"

namespace re2xolap::core {

/// The evolving state of one exploration path: the current query plus the
/// bookkeeping needed by example-driven refinements — which output columns
/// carry the example's dimensions, which were added by Disaggregate, and
/// which carry aggregated measures.
struct ExploreState {
  sparql::SelectQuery query;
  /// The example interpretations this exploration started from (fixed).
  std::vector<Interpretation> example;
  /// Additional example rows for multi-tuple input (each aligned with
  /// `example_columns`); a result row matching ANY example row anchors
  /// the refinements.
  std::vector<std::vector<Interpretation>> extra_examples;
  /// Group columns aligned with `example`.
  std::vector<std::string> example_columns;
  /// Group columns added by Disaggregate steps.
  std::vector<std::string> extra_columns;
  /// Level paths present in the query: example paths first, then extras.
  std::vector<const LevelPath*> paths;
  /// Aggregate output columns (sum_* first per measure).
  std::vector<std::string> measure_columns;
  std::string description;
  /// Refinement trail, e.g. {"ReOLAP", "Disaggregate(...)", "TopK(...)"}.
  std::vector<std::string> trail;
  int fresh_vars = 0;  // counter for internal hierarchy variables
};

/// Seeds an exploration from a synthesized candidate (Algorithm 2 line 2).
ExploreState InitialState(const CandidateQuery& candidate);

/// Returns the indexes of result rows matching the example (every example
/// column cell equals the corresponding example member).
std::vector<size_t> ExampleRowIndexes(const ExploreState& state,
                                      const sparql::ResultTable& results);

/// --- Problem 2a: example-driven Disaggregate (drill-down) -----------------
/// Enumerates, purely on the virtual graph, every level path not yet in the
/// query that does not re-aggregate at a coarser level of an existing path
/// (a candidate extending a present path upward is discarded). One refined
/// state per valid path, in vsg.level_paths() order. Cost O(|L|), no
/// store access.
std::vector<ExploreState> Disaggregate(const VirtualSchemaGraph& vsg,
                                       const rdf::TripleStore& store,
                                       const ExploreState& state);

/// Executes every state's query through `engine`, in order, on the calling
/// thread. Result i corresponds to states[i]; per-query ExecStats land in
/// `stats` (resized to match) when non-null. Repeated evaluations of the
/// same refinement (across rounds, or shared prefixes re-offered after
/// Back()) are served from the engine's result cache; an engine built with
/// both caches disabled evaluates every state afresh. Results are handles
/// into the cache — copy-free, shared, immutable.
///
/// Graceful degradation: when `guard` is supplied, states beyond the
/// first are skipped once the guard trips — their slots hold the guard's
/// error status (kTimeout / kResourceExhausted / kCancelled) while state
/// 0 is always evaluated, so a preview round under an expired deadline
/// still produces at least one real result. `degradation` (when non-null)
/// reports whether and why slots were skipped.
std::vector<util::Result<engine::TableHandle>> EvaluateStates(
    engine::QueryEngine& engine, const std::vector<ExploreState>& states,
    const sparql::ExecOptions& exec = {},
    std::vector<sparql::ExecStats>* stats = nullptr,
    const util::ExecGuard* guard = nullptr,
    util::Degradation* degradation = nullptr);

/// --- Problem 2b: example-driven Subset ------------------------------------

/// Top-K refinement: for each measure column and each direction, orders the
/// tuples, scans until an example tuple t_i is directly followed by a
/// non-example tuple, and emits a HAVING cut keeping tuples through t_i.
/// Two refinements (asc/desc) per measure column with a usable cut.
util::Result<std::vector<ExploreState>> SubsetTopK(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results);

struct PercentileOptions {
  /// Band boundaries as fractions; bands are formed between consecutive
  /// values (plus [0, first] and [last, 1]).
  std::vector<double> cut_points = {0.25, 0.5, 0.75, 0.9};
};

/// Percentile refinement: computes percentile bands of each measure column
/// and keeps the bands containing at least one example tuple, emitting a
/// HAVING range per such band (always a strict subset of the tuples).
util::Result<std::vector<ExploreState>> SubsetPercentile(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results, const PercentileOptions& options = {});

/// --- Problem 2c: example-driven Similarity Search --------------------------

/// The vector similarity σ of Problem 2c. The paper uses cosine
/// similarity; Euclidean and Pearson are provided as alternatives since
/// the problem statement only requires "some similarity measure".
enum class SimilarityMeasure {
  kCosine,
  kEuclidean,  // negative L2 distance
  kPearson,    // correlation of the two profiles
};

struct SimilarityOptions {
  /// How many most-similar member combinations to keep (beyond the
  /// example's own combination).
  size_t k = 5;
  SimilarityMeasure measure = SimilarityMeasure::kCosine;
};

/// Similarity refinement (paper Figure 5): treats combinations of the
/// example-matched dimensions as items and combinations of the
/// Disaggregate-added dimensions as features (value = the measure), builds
/// feature vectors, ranks items by cosine similarity to the example's
/// vector, and emits one refined query per measure restricting the example
/// dimensions to the example plus its k most similar items. When the query
/// has no extra dimensions, similarity degrades to measure-value closeness.
util::Result<std::vector<ExploreState>> SimilaritySearch(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results, const SimilarityOptions& options = {});

/// --- Classic OLAP counterparts (paper Section 4.2 terminology) -------------

/// Roll-up: the inverse of Disaggregate. For each dimension column added
/// by a Disaggregate step, offers (a) removing it entirely and (b)
/// re-aggregating it at every coarser level of its hierarchy (paths that
/// extend the current one upward). Example columns are never rolled up,
/// so the example tuple stays subsumed (T_E ⊑ T_r).
std::vector<ExploreState> RollUp(const VirtualSchemaGraph& vsg,
                                 const rdf::TripleStore& store,
                                 const ExploreState& state);

/// Slice: pins one of the example's dimensions to the example member and
/// removes that column from the output (the paper's "returning only
/// values where the country of destination is Germany"). `example_index`
/// selects which example value to slice on. Fails when the state has only
/// one example column left (a sliced-away query would have no example
/// anchor for further refinements).
util::Result<ExploreState> SliceToExample(const rdf::TripleStore& store,
                                          const ExploreState& state,
                                          size_t example_index);

/// --- Extensions beyond the paper's core (its Section 8 future work) --------

struct ClusterOptions {
  size_t k = 3;          // number of 1-D clusters per measure
  size_t max_iters = 32;  // k-means iteration cap
};

/// Clustering-based subset refinement — the method the paper's user-study
/// prototype offered in place of TopK (Section 7.2): 1-D k-means over each
/// measure column; the refinement keeps the cluster containing an example
/// tuple (as a HAVING range). Skipped when that cluster covers everything.
util::Result<std::vector<ExploreState>> SubsetCluster(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results, const ClusterOptions& options = {});

/// Negative examples (paper Section 8 future work): maps each negative
/// value to members at the levels already present in the query and adds
/// `FILTER (!(?col IN (...)))` conditions excluding them. Values that
/// match no member of any present level are reported in
/// `unmatched_values` (refinement still succeeds for the others).
struct NegativeResult {
  ExploreState state;
  std::vector<std::string> unmatched_values;
};
util::Result<NegativeResult> ExcludeNegativeExamples(
    const Reolap& reolap, const ExploreState& state,
    const std::vector<std::string>& negative_values);

}  // namespace re2xolap::core

#endif  // RE2XOLAP_CORE_EXREF_H_
