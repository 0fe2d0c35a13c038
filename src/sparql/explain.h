#ifndef RE2XOLAP_SPARQL_EXPLAIN_H_
#define RE2XOLAP_SPARQL_EXPLAIN_H_

#include <string>

#include "obs/query_profile.h"

namespace re2xolap::sparql {

/// Renders `root` as an aligned ASCII table, one row per operator,
/// children indented two spaces per level. Columns: operator, rows in,
/// rows out, scanned, millis. With `include_timing == false` every
/// measured time renders as "*", making the output deterministic.
/// engine::ExplainAnalyze is the EXPLAIN ANALYZE that runs a query and
/// renders its tree this way.
std::string RenderProfile(const obs::ProfileNode& root, bool include_timing);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_EXPLAIN_H_
