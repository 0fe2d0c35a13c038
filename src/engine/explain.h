#ifndef RE2XOLAP_ENGINE_EXPLAIN_H_
#define RE2XOLAP_ENGINE_EXPLAIN_H_

#include <string>
#include <string_view>

#include "engine/query_engine.h"
#include "sparql/ast.h"
#include "sparql/executor.h"
#include "util/result.h"

namespace re2xolap::engine {

/// Knobs for EXPLAIN ANALYZE.
struct ExplainOptions {
  /// Execution options for the analyzed run; `exec.profile` is forced on
  /// so every operator gets wall times.
  sparql::ExecOptions exec;
  /// When false, the rendered tree replaces every measured time with a
  /// placeholder, making the output deterministic (used by golden tests).
  bool include_timing = true;
};

/// The result of ExplainAnalyze: the executed query's result table plus
/// the rendered per-operator report and the raw profile/stat numbers.
struct ExplainResult {
  TableHandle table;
  sparql::ExecStats stats;
  std::string report;  // aligned ASCII operator tree
};

/// Executes `query` through `engine` with per-operator profiling enabled
/// and returns the result table together with the rendered operator
/// report — the EXPLAIN ANALYZE of this system. A profiled run bypasses
/// the result cache, so the report always describes a real execution.
util::Result<ExplainResult> ExplainAnalyze(QueryEngine& engine,
                                           const sparql::SelectQuery& query,
                                           const ExplainOptions& options = {});

/// Convenience: parse + ExplainAnalyze SPARQL text.
util::Result<ExplainResult> ExplainAnalyzeText(
    QueryEngine& engine, std::string_view sparql,
    const ExplainOptions& options = {});

}  // namespace re2xolap::engine

#endif  // RE2XOLAP_ENGINE_EXPLAIN_H_
