// Reproduces the paper's Figure 7: (a) ReOLAP query synthesis running time
// and (b) number of synthesized queries, for input sizes 1–4, with 10
// random example tuples per size, on all three datasets.
//
// Paper reference shapes to preserve:
//   7a: time grows with input size (100–400 ms at size 1 up to 2–6 s at
//       size 4 on their testbed); DBpedia is the worst case at larger
//       sizes because several dimensions share label sets, inflating the
//       interpretation combinations. Time tracks |N_D| / schema size, NOT
//       observation count.
//   7b: <10 queries on average for sizes 1–2; the count grows with shared
//       members / number of hierarchies.

// Machine-readable timings land in BENCH_reolap.json.

#include <iostream>

#include "bench/bench_common.h"
#include "engine/query_engine.h"
#include "sparql/ast.h"
#include "sparql/executor.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  constexpr int kInputsPerSize = 10;
  constexpr size_t kMaxSize = 4;

  std::cout << "=== Figure 7: ReOLAP synthesis (10 random inputs per size) "
               "===\n\n";
  util::TablePrinter t7a({"Dataset", "Input size", "Avg time (ms)",
                          "Min (ms)", "Max (ms)", "Avg interpretations"});
  util::TablePrinter t7b(
      {"Dataset", "Input size", "Avg #queries", "Max #queries"});

  for (const std::string& name : AllDatasets()) {
    BenchEnv env = MakeEnv(name, DefaultObservations(name));
    engine::QueryEngine uncached(env.store(), kUncached);
    core::Reolap reolap(env.vsg.get(), env.text.get(), uncached);
    util::Rng rng(1234);
    for (size_t size = 1; size <= kMaxSize; ++size) {
      double total_ms = 0, min_ms = 1e18, max_ms = 0;
      double total_queries = 0, max_queries = 0;
      double total_interps = 0;
      int runs = 0;
      for (int i = 0; i < kInputsPerSize; ++i) {
        std::vector<std::string> tuple = SampleExampleTuple(env, size, rng);
        if (tuple.empty()) continue;
        core::ReolapStats stats;
        util::WallTimer timer;
        auto queries = reolap.Synthesize(tuple, {}, &stats);
        double ms = timer.ElapsedMillis();
        if (!queries.ok()) continue;
        ++runs;
        total_ms += ms;
        min_ms = std::min(min_ms, ms);
        max_ms = std::max(max_ms, ms);
        total_queries += static_cast<double>(queries->size());
        max_queries =
            std::max(max_queries, static_cast<double>(queries->size()));
        total_interps += static_cast<double>(stats.interpretations_considered);
      }
      if (runs == 0) continue;
      t7a.AddRow({name, std::to_string(size), Ms(total_ms / runs),
                  Ms(min_ms), Ms(max_ms),
                  Ms(total_interps / runs)});
      t7b.AddRow({name, std::to_string(size), Ms(total_queries / runs),
                  Ms(max_queries)});
    }
  }
  std::cout << "--- Fig 7a: synthesis running time ---\n";
  t7a.Print(std::cout);
  std::cout << "\n--- Fig 7b: number of synthesized queries ---\n";
  t7b.Print(std::cout);
  std::cout << "\nShape check: time grows with input size; DBpedia grows "
               "fastest (shared label sets across dimensions => more "
               "interpretation combinations); sizes 1-2 yield <10 queries "
               "on average.\n";

  JsonBenchLog log("fig7_reolap");

  // --- Cache ablation: repeated-probe validation through the engine -------
  // Re-synthesizing the same example tuples (a user retrying an input, or
  // overlapping combinations across tuples) re-issues identical LIMIT-1
  // probes. With the engine's caches on those repeats are result-cache
  // hits; with both caches off every probe touches the store again.
  constexpr int kAblInputs = 6;
  constexpr size_t kAblSize = 3;
  std::cout << "\n=== Validation cache ablation (same inputs synthesized "
               "twice) ===\n\n";
  util::TablePrinter ablation({"Dataset", "Engine cache", "Pass1 val (ms)",
                               "Pass2 val (ms)", "Pass2 speedup vs off"});
  for (const std::string& name : AllDatasets()) {
    BenchEnv env = MakeEnv(name, DefaultObservations(name));
    util::Rng rng(7);
    std::vector<std::vector<std::string>> tuples;
    while (tuples.size() < kAblInputs) {
      std::vector<std::string> t = SampleExampleTuple(env, kAblSize, rng);
      if (t.empty()) break;
      tuples.push_back(std::move(t));
    }
    if (tuples.empty()) continue;

    double off_pass2 = 0;
    for (bool cached : {false, true}) {
      engine::QueryEngine engine(env.store(),
                                 cached ? engine::EngineConfig{} : kUncached);
      core::Reolap reolap(env.vsg.get(), env.text.get(), engine);
      double pass_ms[2] = {0, 0};
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& tuple : tuples) {
          core::ReolapStats stats;
          auto queries = reolap.Synthesize(tuple, {}, &stats);
          if (queries.ok()) pass_ms[pass] += stats.validate_millis;
        }
      }
      if (!cached) off_pass2 = pass_ms[1];
      double speedup = pass_ms[1] > 0 ? off_pass2 / pass_ms[1] : 0.0;
      ablation.AddRow({name, cached ? "on" : "off", Ms(pass_ms[0]),
                       Ms(pass_ms[1]), Ms(speedup)});
      const auto cache = engine.cache_stats();
      log.AddRecord()
          .Str("dataset", name)
          .Str("mode", "validation_cache_ablation")
          .Bool("engine_cache", cached)
          .Int("inputs", static_cast<long long>(tuples.size()))
          .Num("pass1_validate_ms", pass_ms[0])
          .Num("pass2_validate_ms", pass_ms[1])
          .Num("pass2_speedup_vs_nocache", speedup)
          .Int("result_cache_hits", static_cast<long long>(cache.result_hits))
          .Int("plan_cache_hits", static_cast<long long>(cache.plan_hits));
    }

    // --- Uncached execution: run every synthesized candidate ----------
    // The "execute what ReOLAP synthesized" workload through an engine
    // with both caches off: the pure executor cost of materializing
    // candidate answers.
    engine::QueryEngine uncached(env.store(), kUncached);
    core::Reolap plain(env.vsg.get(), env.text.get(), uncached);
    std::vector<sparql::SelectQuery> candidates;
    for (const auto& tuple : tuples) {
      auto queries = plain.Synthesize(tuple);
      if (!queries.ok()) continue;
      for (const auto& c : *queries) candidates.push_back(c.query);
    }
    sparql::ExecOptions exec;
    exec.timeout_millis = 60000;
    size_t rows = 0;
    util::WallTimer timer;
    for (const auto& q : candidates) {
      auto table = uncached.Execute(q, exec);
      if (table.ok()) rows += (*table)->row_count();
    }
    log.AddRecord()
        .Str("dataset", name)
        .Str("mode", "execute_uncached")
        .Int("candidates", static_cast<long long>(candidates.size()))
        .Num("eval_ms", timer.ElapsedMillis())
        .Int("result_rows", static_cast<long long>(rows));
  }
  ablation.Print(std::cout);
  std::cout << "\nExpectation: with the engine cache on, pass 2 validation "
               "is served from the result cache (>=2x over the uncached "
               "pass 2).\n";
  log.Write("BENCH_reolap.json");
  return 0;
}
