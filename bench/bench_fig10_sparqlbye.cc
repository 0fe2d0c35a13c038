// Reproduces the paper's Figure 10 and Table 2: the qualitative comparison
// between the SPARQLByE-style baseline and ReOLAP on the same input, plus
// the sample result table for <"Germany", "2014">.
//
// Paper reference: for <"Asia", "2011"> SPARQLByE recognizes the two
// entities but produces a minimal BGP that never connects them to
// observations and has no aggregation (Figure 10a); ReOLAP produces a full
// SELECT..GROUP BY analytical query over the observations (Figure 10b).

#include <iostream>

#include "bench/bench_common.h"
#include "core/sparqlbye_baseline.h"
#include "engine/query_engine.h"
#include "sparql/ast.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  BenchEnv env = MakeEnv("Eurostat", 30000);
  engine::QueryEngine engine(env.store());
  core::Reolap reolap(env.vsg.get(), env.text.get(), engine);
  core::SparqlByEBaseline baseline(env.dataset.store.get(), env.text.get());

  const std::vector<std::string> example = {"Asia", "2011"};
  std::cout << "=== Figure 10: input <\"Asia\", \"2011\"> ===\n\n";

  std::cout << "--- (a) SPARQLByE-style baseline ---\n";
  util::WallTimer timer;
  auto bq = baseline.Synthesize(example);
  double baseline_ms = timer.ElapsedMillis();
  if (bq.ok()) {
    std::cout << sparql::ToSparql(*bq) << "\n";
    std::cout << "\n[" << Ms(baseline_ms)
              << " ms] No aggregation, no GROUP BY, entities not connected "
                 "to observations.\n";
  } else {
    std::cout << "baseline failed: " << bq.status() << "\n";
  }

  std::cout << "\n--- (b) ReOLAP ---\n";
  timer.Restart();
  auto queries = reolap.Synthesize(example);
  double reolap_ms = timer.ElapsedMillis();
  if (!queries.ok() || queries->empty()) {
    std::cout << "ReOLAP produced no queries\n";
    return 1;
  }
  for (const core::CandidateQuery& q : *queries) {
    std::cout << "# " << q.description << "\n"
              << sparql::ToSparql(q.query) << "\n\n";
  }
  std::cout << "[" << Ms(reolap_ms) << " ms] " << queries->size()
            << " full analytical quer"
            << (queries->size() == 1 ? "y" : "ies")
            << " with measures, grouping and aggregation.\n";

  // --- Table 2 -----------------------------------------------------------------
  std::cout << "\n=== Table 2: resultset for <\"Germany\", \"2014\">, "
               "\"Germany\" as Country of Destination ===\n\n";
  auto t2q = reolap.Synthesize({"Germany", "2014"});
  if (t2q.ok()) {
    for (const core::CandidateQuery& q : *t2q) {
      if (q.description.find("Destination") == std::string::npos) continue;
      sparql::SelectQuery ordered = q.query;
      ordered.order_by.push_back(
          sparql::OrderKey{q.measure_columns[0], false});
      auto table = engine.Execute(ordered);
      if (table.ok()) {
        (*table)->Print(std::cout, 8);
        std::cout << "(" << (*table)->row_count()
                  << " rows total; top rows by SUM as in the paper's "
                     "Table 2)\n";
      }
      break;
    }
  }
  return 0;
}
