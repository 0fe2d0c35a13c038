#ifndef RE2XOLAP_TESTS_REFERENCE_EVAL_H_
#define RE2XOLAP_TESTS_REFERENCE_EVAL_H_

// A deliberately naive SPARQL evaluator: the test oracle for the query
// engine. It evaluates a parsed SelectQuery straight from the AST —
// nested loops over TripleStore::Match in textual pattern order,
// left-joined OPTIONAL blocks, then its own grouping, aggregation,
// HAVING, DISTINCT, ORDER BY and LIMIT/OFFSET. It shares no planner,
// Plan, IndexCursor, guard or profiling code with the engine; the only
// shared pieces are filter evaluation (EvalExpr) and the ORDER BY cell
// order (OrderCells), both from sparql/ebv.h. Independence is the point:
// a bug in the join core cannot hide behind an identical bug here.
//
// Speed is not: every solution is materialized and every pattern is a
// fresh Match() call. Keep inputs test-sized.

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "util/result.h"

namespace re2xolap::testing {

/// Evaluates `query` against `store`. Columns follow the engine's naming
/// (SelectItem::OutputName, "ask" for ASK); SELECT * lists the WHERE
/// clause's variables in order of first appearance, which may differ from
/// the engine's column order. Rows come in no particular order unless the
/// query has ORDER BY. Invalid projections fail with kInvalidArgument,
/// like the engine.
util::Result<sparql::ResultTable> ReferenceEvaluate(
    const rdf::TripleStore& store, const sparql::SelectQuery& query);

/// One result row, held row by row: the layout the reference keeps its
/// answers in, independent of ResultTable's columns.
using RefRow = std::vector<sparql::Cell>;

/// The reference's post-aggregation stage: HAVING, DISTINCT (first
/// occurrence kept, in input order), ORDER BY (stable) and LIMIT/OFFSET
/// over `rows`, one cell per entry of `columns`, returned as a table.
/// Fails like the engine when ORDER BY names an unknown column.
util::Result<sparql::ResultTable> ReferencePostOps(
    const rdf::TripleStore& store, const sparql::SelectQuery& query,
    std::vector<std::string> columns, std::vector<RefRow> rows);

/// Runs `sparql` through an uncached engine::QueryEngine and through
/// ReferenceEvaluate, and succeeds when the answers agree:
///   - both fail with the same status code, or both succeed with the same
///     columns (as a set for SELECT *) and
///   - the same rows as a multiset; under LIMIT/OFFSET the engine may
///     pick any rows the query admits, so it must return the reference's
///     row count with every row drawn from the reference's answer to the
///     query without LIMIT/OFFSET;
///   - under ORDER BY, additionally the same sequence of ORDER BY key
///     cells, row by row.
::testing::AssertionResult AgreesWithReference(const rdf::TripleStore& store,
                                               std::string_view sparql);

}  // namespace re2xolap::testing

#endif  // RE2XOLAP_TESTS_REFERENCE_EVAL_H_
