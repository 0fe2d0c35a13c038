#ifndef RE2XOLAP_TESTS_UNCACHED_ENGINE_H_
#define RE2XOLAP_TESTS_UNCACHED_ENGINE_H_

#include <string>
#include <string_view>

#include "engine/query_engine.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/executor.h"
#include "sparql/result_table.h"
#include "util/failpoint.h"
#include "util/result.h"

namespace re2xolap::testing {

/// Engine settings with both caches off: every Execute plans and runs
/// afresh, so each call is one real execution.
inline constexpr engine::EngineConfig kUncached{.plan_cache_capacity = 0,
                                                .result_cache_bytes = 0};

/// Executes `query` once on `store` through a fresh uncached engine and
/// returns a copy of the result table.
inline util::Result<sparql::ResultTable> RunUncached(
    const rdf::TripleStore& store, const sparql::SelectQuery& query,
    const sparql::ExecOptions& options = {},
    sparql::ExecStats* stats = nullptr) {
  engine::QueryEngine engine(store, kUncached);
  RE2X_ASSIGN_OR_RETURN(engine::TableHandle table,
                        engine.Execute(query, options, stats));
  return *table;
}

/// Same, parsing `text` first.
inline util::Result<sparql::ResultTable> RunUncachedText(
    const rdf::TripleStore& store, std::string_view text,
    const sparql::ExecOptions& options = {},
    sparql::ExecStats* stats = nullptr) {
  engine::QueryEngine engine(store, kUncached);
  RE2X_ASSIGN_OR_RETURN(engine::TableHandle table,
                        engine.ExecuteText(text, options, stats));
  return *table;
}

/// RunUncachedText with the join's first index scan stalled for
/// `stall_millis` (a one-shot `store.scan` delay). The engine checks
/// `options.guard` before it executes, so a guard meant to trip inside
/// the executor has to be healthy at entry and lapse during the stall.
/// Replaces the failpoint configuration and disarms every failpoint
/// afterwards.
inline util::Result<sparql::ResultTable> RunUncachedTextStalled(
    const rdf::TripleStore& store, std::string_view text,
    const sparql::ExecOptions& options, int stall_millis) {
  util::FailpointRegistry& failpoints = util::FailpointRegistry::Global();
  util::Status armed = failpoints.Configure(
      "store.scan=delay:" + std::to_string(stall_millis) + "*1");
  if (!armed.ok()) return armed;
  util::Result<sparql::ResultTable> result =
      RunUncachedText(store, text, options);
  failpoints.DisarmAll();
  return result;
}

}  // namespace re2xolap::testing

#endif  // RE2XOLAP_TESTS_UNCACHED_ENGINE_H_
