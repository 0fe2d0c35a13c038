// Reproduces the paper's Figure 9: (a) running time to GENERATE query
// refinements with TopK, Percentile, and Similarity, applied to the
// original synthesized queries and after 1 and 2 Disaggregate steps
// (larger result sets); (b) the number of refinements produced.
//
// Paper reference shapes:
//   9a: TopK/Percentile are sub-second and scale linearly with the number
//       of tuples; Similarity is the most expensive method (it processes
//       all tuples, not just example-matching ones) and is the one that
//       can blow up on DBpedia's M-to-N hierarchies (their endpoint hit a
//       15-minute timeout at input sizes 3-4).
//   9b: TopK produces a fixed 2 x measures x aggregations refinements
//       (when anchored); Similarity a fixed count; Percentile a variable,
//       data-dependent count.

#include <iostream>

#include "bench/bench_common.h"
#include "engine/query_engine.h"
#include "sparql/executor.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  constexpr int kInputs = 6;
  constexpr uint64_t kExecTimeoutMs = 60000;

  std::cout << "=== Figure 9: refinement generation ===\n\n";
  util::TablePrinter t9a({"Dataset", "Depth", "Avg #tuples", "TopK (ms)",
                          "Perc (ms)", "Sim (ms)"});
  util::TablePrinter t9b({"Dataset", "Depth", "TopK #refs", "Perc #refs",
                          "Sim #refs"});

  for (const std::string& name : AllDatasets()) {
    BenchEnv env = MakeEnv(name, DefaultObservations(name));
    engine::QueryEngine uncached(env.store(), kUncached);
    core::Reolap reolap(env.vsg.get(), env.text.get(), uncached);
    util::Rng rng(7);
    sparql::ExecOptions exec;
    exec.timeout_millis = kExecTimeoutMs;

    // Stats per disaggregation depth 0 (Orig), 1 (Dis.1), 2 (Dis.2).
    struct Acc {
      double tuples = 0, topk_ms = 0, perc_ms = 0, sim_ms = 0;
      double topk_n = 0, perc_n = 0, sim_n = 0;
      int runs = 0;
    } acc[3];

    for (int i = 0; i < kInputs; ++i) {
      // Mix of input sizes 1 and 2 (the paper's interactive sweet spot).
      size_t size = 1 + (i % 2);
      std::vector<std::string> tuple = SampleExampleTuple(env, size, rng);
      if (tuple.empty()) continue;
      auto queries = reolap.Synthesize(tuple);
      if (!queries.ok() || queries->empty()) continue;
      core::ExploreState state = core::InitialState((*queries)[0]);

      for (int depth = 0; depth <= 2; ++depth) {
        auto table = uncached.Execute(state.query, exec);
        if (!table.ok()) break;
        Acc& a = acc[depth];
        a.tuples += static_cast<double>((*table)->row_count());

        util::WallTimer timer;
        auto topk = core::SubsetTopK(env.store(), state, **table);
        a.topk_ms += timer.ElapsedMillis();
        timer.Restart();
        auto perc = core::SubsetPercentile(env.store(), state, **table);
        a.perc_ms += timer.ElapsedMillis();
        timer.Restart();
        auto sim = core::SimilaritySearch(env.store(), state, **table);
        a.sim_ms += timer.ElapsedMillis();

        if (topk.ok()) a.topk_n += static_cast<double>(topk->size());
        if (perc.ok()) a.perc_n += static_cast<double>(perc->size());
        if (sim.ok()) a.sim_n += static_cast<double>(sim->size());
        ++a.runs;

        if (depth < 2) {
          auto dis = core::Disaggregate(*env.vsg, env.store(), state);
          if (dis.empty()) break;
          state = dis[dis.size() / 2];
        }
      }
    }
    const char* labels[3] = {"Orig", "Dis.1", "Dis.2"};
    for (int depth = 0; depth <= 2; ++depth) {
      const Acc& a = acc[depth];
      if (a.runs == 0) continue;
      t9a.AddRow({name, labels[depth], Ms(a.tuples / a.runs),
                  Ms(a.topk_ms / a.runs), Ms(a.perc_ms / a.runs),
                  Ms(a.sim_ms / a.runs)});
      t9b.AddRow({name, labels[depth], Ms(a.topk_n / a.runs),
                  Ms(a.perc_n / a.runs), Ms(a.sim_n / a.runs)});
    }
  }
  std::cout << "--- Fig 9a: refinement generation time (avg) ---\n";
  t9a.Print(std::cout);
  std::cout << "\n--- Fig 9b: number of refinements produced (avg) ---\n";
  t9b.Print(std::cout);

  // --- Refinement evaluation --------------------------------------------------
  // After one Disaggregate step the session holds N candidate refinements;
  // evaluating all of them (the "preview every refinement" workload) is N
  // read-only aggregate queries.
  util::TablePrinter ablation({"Dataset", "Engine cache", "Pass1 (ms)",
                               "Pass2 (ms)", "Pass2 speedup vs off"});
  JsonBenchLog log("fig9_refinements");

  for (const std::string& name : AllDatasets()) {
    BenchEnv env = MakeEnv(name, DefaultObservations(name));
    engine::QueryEngine uncached(env.store(), kUncached);
    core::Reolap reolap(env.vsg.get(), env.text.get(), uncached);
    util::Rng rng(21);
    sparql::ExecOptions exec;
    exec.timeout_millis = kExecTimeoutMs;

    // One synthesized query, then its full Disaggregate frontier.
    std::vector<core::ExploreState> states;
    for (int attempt = 0; attempt < 8 && states.empty(); ++attempt) {
      std::vector<std::string> tuple = SampleExampleTuple(env, 1, rng);
      if (tuple.empty()) continue;
      auto queries = reolap.Synthesize(tuple);
      if (!queries.ok() || queries->empty()) continue;
      core::ExploreState state = core::InitialState((*queries)[0]);
      states = core::Disaggregate(*env.vsg, env.store(), state);
    }
    if (states.empty()) continue;

    // --- Uncached execution: the same frontier, one query at a time ----
    // Per-query execution of the Disaggregate frontier through the
    // uncached engine, so this is the pure executor cost of the preview
    // workload.
    {
      size_t rows = 0;
      util::WallTimer timer;
      for (const auto& state : states) {
        auto table = uncached.Execute(state.query, exec);
        if (table.ok()) rows += (*table)->row_count();
      }
      log.AddRecord()
          .Str("dataset", name)
          .Str("mode", "execute_uncached")
          .Int("refinements", static_cast<long long>(states.size()))
          .Num("eval_ms", timer.ElapsedMillis())
          .Int("result_rows", static_cast<long long>(rows));
    }

    // --- Cache ablation: the same frontier evaluated twice --------------
    // A session previews a refinement frontier, the user hits Back(), and
    // the frontier is previewed again — the repeated-evaluation workload
    // the engine's result cache targets. Pass 2 with both caches off
    // re-executes every query; pass 2 through a caching engine is pure cache
    // hits.
    double pass_ms_off[2] = {0, 0};
    double pass_ms_on[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
      util::WallTimer t;
      auto tables = core::EvaluateStates(uncached, states, exec);
      pass_ms_off[pass] = t.ElapsedMillis();
    }
    // Frontier previews materialize large tables (every refinement over
    // DBpedia's wide hierarchies); give the cache room for the whole
    // frontier so admission limits don't mask the repeat-workload effect.
    engine::EngineConfig engine_config;
    engine_config.result_cache_bytes = 256u << 20;
    engine::QueryEngine engine(env.store(), engine_config);
    size_t rows_on = 0, rows_off = 0;
    {
      auto tables = core::EvaluateStates(uncached, states, exec);
      for (const auto& t : tables) {
        if (t.ok()) rows_off += (*t)->row_count();
      }
    }
    for (int pass = 0; pass < 2; ++pass) {
      util::WallTimer t;
      auto tables = core::EvaluateStates(engine, states, exec);
      pass_ms_on[pass] = t.ElapsedMillis();
      if (pass == 1) {
        rows_on = 0;
        for (const auto& t : tables) {
          if (t.ok()) rows_on += (*t)->row_count();
        }
      }
    }
    const auto cache = engine.cache_stats();
    for (bool on : {false, true}) {
      const double* p = on ? pass_ms_on : pass_ms_off;
      double speedup = p[1] > 0 ? pass_ms_off[1] / p[1] : 0.0;
      ablation.AddRow({name, on ? "on" : "off", Ms(p[0]), Ms(p[1]),
                       Ms(speedup)});
      log.AddRecord()
          .Str("dataset", name)
          .Str("mode", "cache_ablation")
          .Bool("engine_cache", on)
          .Int("refinements", static_cast<long long>(states.size()))
          .Num("pass1_eval_ms", p[0])
          .Num("pass2_eval_ms", p[1])
          .Num("pass2_speedup_vs_nocache", speedup)
          .Int("result_cache_hits",
               on ? static_cast<long long>(cache.result_hits) : 0)
          .Bool("identical_rows", !on || rows_on == rows_off);
    }
  }
  std::cout << "\n=== Engine result-cache ablation (same frontier, two "
               "passes) ===\n\n";
  ablation.Print(std::cout);
  std::cout << "\nExpectation: pass 2 through the engine is served from "
               "the result cache (>=2x over the uncached pass 2; in "
               "practice orders of magnitude).\n";
  log.Write("BENCH_refinements.json");
  std::cout << "\nShape check: all methods scale linearly with the tuple "
               "count and stay sub-second; per refinement produced, "
               "Similarity is by far the most expensive method (TopK "
               "amortizes its sorts over 2 x measures x aggregations "
               "outputs, Similarity builds feature vectors over ALL tuples "
               "for a single reformulation); TopK/Sim counts are fixed by "
               "design, Percentile varies with the data.\n";
  return 0;
}
