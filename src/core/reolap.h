#ifndef RE2XOLAP_CORE_REOLAP_H_
#define RE2XOLAP_CORE_REOLAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/virtual_schema_graph.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "util/exec_guard.h"
#include "util/result.h"

namespace re2xolap::engine {
class QueryEngine;
}  // namespace re2xolap::engine

namespace re2xolap::core {

/// One interpretation of an example value: a concrete dimension member plus
/// the root-to-level path that reaches the member's level (the path's first
/// predicate identifies the dimension). Paper: the ⟨d, δ⟩ pairs collected
/// in Algorithm 1, lines 2–5.
struct Interpretation {
  rdf::TermId member = rdf::kInvalidTermId;
  const LevelPath* path = nullptr;  // owned by the VirtualSchemaGraph
};

/// A reverse-engineered SPARQL OLAP query (Algorithm 1 output).
struct CandidateQuery {
  sparql::SelectQuery query;
  /// One interpretation per example value, aligned with the input order.
  /// For multi-tuple input this is the first tuple's row; the remaining
  /// rows are in `extra_rows`.
  std::vector<Interpretation> interpretations;
  /// Additional example rows (multi-tuple input), each aligned with the
  /// same level paths as `interpretations`.
  std::vector<std::vector<Interpretation>> extra_rows;
  /// Output column name of the group-by variable for each example value.
  std::vector<std::string> group_columns;
  /// Output column names of the aggregate columns (sum first, per measure).
  std::vector<std::string> measure_columns;
  /// Natural-language description (Section 5.1, "Presenting Query
  /// Interpretations").
  std::string description;
};

struct ReolapOptions {
  /// Cap on text-index hits considered per example value (0 = unlimited).
  size_t max_matches_per_value = 200;
  /// Cap on generated queries; combination enumeration stops beyond it.
  size_t max_queries = 256;
  /// When true, every combination is checked to return at least one
  /// observation (the paper's correctness guarantee).
  bool validate = true;
  /// Per-validation-probe timeout.
  uint64_t validation_timeout_millis = 10000;
  /// Aggregation functions emitted per measure; default all four as in the
  /// paper ("we will retrieve results for all aggregation functions").
  bool all_aggregates = true;
  /// Overall wall-clock budget for one Synthesize/SynthesizeMulti call
  /// (0 = unlimited). Expiry degrades the call instead of erroring:
  /// the first combination is always probed (min-progress), later ones
  /// are skipped, per-probe timeouts are clamped to the remaining
  /// budget, and the partial candidate set comes back flagged with
  /// ReolapStats::truncated and degraded_reason.
  uint64_t overall_deadline_millis = 0;
  /// Optional externally owned guard (e.g. a session-wide deadline)
  /// enforcing the same graceful degradation; takes precedence over
  /// `overall_deadline_millis`. Non-owning; must outlive the call.
  const util::ExecGuard* guard = nullptr;
};

/// Counters reported by the Figure 7 benches.
struct ReolapStats {
  size_t interpretations_considered = 0;  // size of the cartesian space
  size_t combinations_checked = 0;
  size_t validated_ok = 0;
  double match_millis = 0;
  double combine_millis = 0;
  double validate_millis = 0;
  /// Graceful-degradation flags: true when the overall deadline expired
  /// mid-synthesis and the candidate set is partial (but every returned
  /// candidate is fully validated); `degraded_reason` says why and where.
  bool truncated = false;
  std::string degraded_reason;
};

/// ReOLAP (paper Algorithm 1): reverse-engineers SPARQL OLAP queries from a
/// tuple of example attribute values (e.g. {"Germany", "2014"}). All
/// lookups after construction run against the in-memory virtual schema
/// graph and text index; the store is only touched for validation probes.
/// A call runs wholly on the calling thread, probes included; concurrent
/// calls on one engine (one per server request) are safe.
class Reolap {
 public:
  /// Validation probes execute through `engine` and share its plan/result
  /// caches with the rest of the session, so re-validating an identical
  /// combination (e.g. across refinement rounds) is a cache hit instead
  /// of a store probe. The store is `engine.store()`; `vsg` and
  /// `text_index` must be built over it. All three must outlive this.
  Reolap(const VirtualSchemaGraph* vsg, const rdf::TextIndex* text_index,
         engine::QueryEngine& engine)
      : vsg_(vsg), text_(text_index), engine_(&engine) {}

  /// MATCHES(a_i) of Algorithm 1: all interpretations of one value.
  /// Supports mixed inputs (paper Section 5 footnote): a value of the
  /// form "<iri>" or "http(s)://..." is resolved directly as a dimension
  /// member IRI instead of going through the label index.
  std::vector<Interpretation> MatchValue(
      const std::string& value, const ReolapOptions& options = {}) const;

  /// Full synthesis: interpretations per value, combination (with distinct
  /// dimensions per combo), query construction and validation. Returns
  /// the candidate queries; an example value with no match yields an empty
  /// result (no query can cover the tuple).
  util::Result<std::vector<CandidateQuery>> Synthesize(
      const std::vector<std::string>& example_tuple,
      const ReolapOptions& options = {}, ReolapStats* stats = nullptr) const;

  /// General case: multiple example tuples of the same arity (the set T_E
  /// of Problem 1). A level-path combination is valid only when EVERY
  /// tuple maps onto it (per column) and every tuple validates against
  /// the store, so each example row is subsumed by the query's results.
  util::Result<std::vector<CandidateQuery>> SynthesizeMulti(
      const std::vector<std::vector<std::string>>& example_tuples,
      const ReolapOptions& options = {}, ReolapStats* stats = nullptr) const;

  /// GETQUERY of Algorithm 1: builds the SPARQL OLAP query for one
  /// combination of interpretations.
  CandidateQuery BuildQuery(const std::vector<Interpretation>& combo,
                            const ReolapOptions& options = {}) const;

  /// True when at least one observation jointly satisfies all
  /// interpretations (executed against the store with a LIMIT-1 probe).
  bool ValidateCombo(const std::vector<Interpretation>& combo,
                     uint64_t timeout_millis) const;

  const VirtualSchemaGraph& vsg() const { return *vsg_; }
  const rdf::TripleStore& store() const;

 private:
  const VirtualSchemaGraph* vsg_;
  const rdf::TextIndex* text_;
  engine::QueryEngine* engine_;
};

}  // namespace re2xolap::core

#endif  // RE2XOLAP_CORE_REOLAP_H_
