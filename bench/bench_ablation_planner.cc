// Ablation for the SPARQL engine's selectivity-based join reordering —
// the "query processing at the database level" the paper identifies as
// decisive for refinement latency (Section 7.1, Similarity discussion).
// We execute the synthesized + disaggregated queries with and without
// join-order optimization.
//
// Runs through an engine with both caches off: this ablation measures
// plan-and-run cost per option, and any plan/result caching between the
// timed runs would poison that measurement.

#include <iostream>

#include "bench/bench_common.h"
#include "sparql/executor.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  constexpr uint64_t kTimeoutMs = 10000;
  std::cout << "=== Ablation: join reordering in the SPARQL executor ===\n\n";
  util::TablePrinter t({"Dataset", "Query", "Planned (ms)",
                        "Parse-order (ms)", "Speedup", "Rows"});

  for (const std::string& name : AllDatasets()) {
    BenchEnv env = MakeEnv(name, DefaultObservations(name) / 2);
    engine::QueryEngine uncached(env.store(), kUncached);
    core::Reolap reolap(env.vsg.get(), env.text.get(), uncached);
    util::Rng rng(17);

    for (int i = 0; i < 3; ++i) {
      auto tuple = SampleExampleTuple(env, 2, rng);
      if (tuple.empty()) continue;
      auto queries = reolap.Synthesize(tuple);
      if (!queries.ok() || queries->empty()) continue;
      core::ExploreState state = core::InitialState((*queries)[0]);
      // One disaggregation makes the BGP large enough for ordering to
      // matter.
      auto dis = core::Disaggregate(*env.vsg, env.store(), state);
      if (!dis.empty()) state = dis[dis.size() / 2];

      sparql::ExecOptions planned, parse_order;
      planned.timeout_millis = kTimeoutMs;
      parse_order.timeout_millis = kTimeoutMs;
      parse_order.plan.use_join_reordering = false;

      // Adversarial pattern order for the unplanned run: hierarchy
      // patterns (not mentioning ?obs) first, so naive execution starts
      // with a near-cartesian prefix. A SPARQL author can write patterns
      // in any order; the planner must not depend on a friendly one.
      sparql::SelectQuery adversarial = state.query;
      std::stable_sort(
          adversarial.patterns.begin(), adversarial.patterns.end(),
          [](const sparql::TriplePatternAst& a,
             const sparql::TriplePatternAst& b) {
            auto mentions_obs = [](const sparql::TriplePatternAst& p) {
              return sparql::IsVar(p.s) && sparql::AsVar(p.s).name == "obs";
            };
            return !mentions_obs(a) && mentions_obs(b);
          });

      util::WallTimer timer;
      auto a = uncached.Execute(adversarial, planned);
      double planned_ms = timer.ElapsedMillis();
      timer.Restart();
      auto b = uncached.Execute(adversarial, parse_order);
      double parse_ms = timer.ElapsedMillis();

      std::string rows = a.ok() ? std::to_string((*a)->row_count()) : "timeout";
      if (b.ok() && a.ok() && (*a)->row_count() != (*b)->row_count()) {
        rows += " (MISMATCH!)";
      }
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.1fx",
                    planned_ms > 0 ? parse_ms / planned_ms : 0.0);
      t.AddRow({name, "q" + std::to_string(i), Ms(planned_ms),
                Ms(b.ok() ? parse_ms : static_cast<double>(kTimeoutMs)),
                speedup, rows});
    }
  }
  t.Print(std::cout);
  std::cout << "\nShape check: identical results; the planner's "
               "selectivity ordering keeps OLAP BGPs fast even when the "
               "parse order starts from an unselective pattern.\n";
  return 0;
}
