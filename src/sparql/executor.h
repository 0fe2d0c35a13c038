#ifndef RE2XOLAP_SPARQL_EXECUTOR_H_
#define RE2XOLAP_SPARQL_EXECUTOR_H_

#include <cstdint>
#include <string_view>

#include "obs/query_profile.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/plan.h"
#include "sparql/result_table.h"
#include "util/exec_guard.h"
#include "util/result.h"

namespace re2xolap::sparql {

/// Execution knobs.
struct ExecOptions {
  /// 0 = no timeout. The paper's experiments run the endpoint with a
  /// 15-minute timeout; benches use much smaller values.
  uint64_t timeout_millis = 0;
  /// Optional per-request guardrails (absolute deadline, memory budget,
  /// cancellation), polled by the join loop, aggregation, ORDER BY /
  /// DISTINCT sorts, and HAVING. Non-owning; must outlive the execution.
  /// Violations surface as kTimeout / kResourceExhausted / kCancelled.
  const util::ExecGuard* guard = nullptr;
  /// When true (and an ExecStats sink is passed), per-operator wall times
  /// are measured for every join step — two clock reads per produced
  /// binding, so leave it off outside EXPLAIN ANALYZE. Cardinality
  /// counters and the operator tree are collected whenever a stats sink
  /// is present, independent of this flag.
  bool profile = false;
  PlanOptions plan;
};

/// Run statistics, filled when a pointer is passed to Execute. The
/// cardinality counters are maintained on every plan-step kind (mandatory
/// join steps, OPTIONAL extensions, ASK probes); `profile` holds the
/// per-operator breakdown of the same run (see obs::ProfileNode for the
/// conventions, sparql/explain.h for the renderer).
struct ExecStats {
  uint64_t intermediate_bindings = 0;  // bindings produced across all steps
  uint64_t triples_scanned = 0;        // index entries inspected
  double plan_millis = 0;
  double exec_millis = 0;
  obs::ProfileNode profile;            // per-operator tree, root = the query
};

/// Plans and executes `query` against `store`. Returns the materialized
/// result table, or a Status on invalid queries / timeout.
util::Result<ResultTable> Execute(const rdf::TripleStore& store,
                                  const SelectQuery& query,
                                  const ExecOptions& options = {},
                                  ExecStats* stats = nullptr);

/// Executes `query` using a prebuilt `plan` (as produced by PlanQuery for
/// exactly this query/store pair), skipping the planning phase — this is
/// what lets an engine-layer plan cache amortize planning across repeated
/// queries. ASK queries are rewritten into existence probes *before*
/// planning, so a prebuilt plan cannot apply; they delegate to the
/// planning overload. `options.plan` is ignored (already baked into
/// `plan`) and `stats->plan_millis` is left untouched.
util::Result<ResultTable> Execute(const rdf::TripleStore& store,
                                  const SelectQuery& query, const Plan& plan,
                                  const ExecOptions& options = {},
                                  ExecStats* stats = nullptr);

/// Convenience: parse + execute SPARQL text.
util::Result<ResultTable> ExecuteText(const rdf::TripleStore& store,
                                      std::string_view sparql,
                                      const ExecOptions& options = {},
                                      ExecStats* stats = nullptr);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_EXECUTOR_H_
