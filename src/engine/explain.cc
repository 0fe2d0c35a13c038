#include "engine/explain.h"

#include "sparql/explain.h"
#include "sparql/parser.h"

namespace re2xolap::engine {

util::Result<ExplainResult> ExplainAnalyze(QueryEngine& engine,
                                           const sparql::SelectQuery& query,
                                           const ExplainOptions& options) {
  sparql::ExecOptions exec = options.exec;
  exec.profile = true;
  ExplainResult out;
  RE2X_ASSIGN_OR_RETURN(out.table, engine.Execute(query, exec, &out.stats));
  out.report = sparql::RenderProfile(out.stats.profile, options.include_timing);
  return out;
}

util::Result<ExplainResult> ExplainAnalyzeText(QueryEngine& engine,
                                               std::string_view sparql,
                                               const ExplainOptions& options) {
  RE2X_ASSIGN_OR_RETURN(sparql::SelectQuery q, sparql::ParseQuery(sparql));
  return ExplainAnalyze(engine, q, options);
}

}  // namespace re2xolap::engine
