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

// The trailing thread sweep measures the parallel validation subsystem:
// Synthesize with num_threads in {1, 2, 4, 8} on the same inputs, checking
// that every thread count produces byte-identical candidates (description +
// SPARQL text) and reporting the validation-phase speedup over 1 thread.
// Machine-readable per-phase timings land in BENCH_reolap.json.

#include <iostream>

#include "bench/bench_common.h"
#include "engine/query_engine.h"
#include "sparql/ast.h"
#include "sparql/executor.h"

namespace {

/// Canonical byte signature of a candidate list (descriptions + SPARQL).
std::string CandidateSignature(
    const std::vector<re2xolap::core::CandidateQuery>& candidates) {
  std::string sig;
  for (const auto& c : candidates) {
    sig += c.description;
    sig += '\n';
    sig += re2xolap::sparql::ToSparql(c.query);
    sig += '\n';
  }
  return sig;
}

}  // namespace

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
    core::Reolap reolap(env.dataset.store.get(), env.vsg.get(),
                        env.text.get());
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

  // --- Thread sweep: parallel validation vs serial ------------------------
  constexpr int kSweepInputs = 8;
  constexpr size_t kSweepSize = 3;  // validation-heavy input size
  const std::vector<size_t> kThreadCounts = {1, 2, 4, 8};

  std::cout << "\n=== Parallel validation sweep (input size "
            << kSweepSize << ", " << kSweepInputs << " inputs, "
            << "hardware_concurrency="
            << util::ThreadPool::DefaultThreads() << ") ===\n\n";
  util::TablePrinter sweep({"Dataset", "Threads", "Total (ms)",
                            "Validate (ms)", "Speedup(val)", "Identical"});
  JsonBenchLog log("fig7_reolap");

  for (const std::string& name : AllDatasets()) {
    BenchEnv env = MakeEnv(name, DefaultObservations(name));
    core::Reolap reolap(env.dataset.store.get(), env.vsg.get(),
                        env.text.get());
    // Fixed inputs shared by every thread count.
    util::Rng rng(99);
    std::vector<std::vector<std::string>> tuples;
    while (tuples.size() < kSweepInputs) {
      std::vector<std::string> t = SampleExampleTuple(env, kSweepSize, rng);
      if (t.empty()) break;
      tuples.push_back(std::move(t));
    }

    double serial_validate_ms = 0;
    std::vector<std::string> serial_sigs;
    for (size_t threads : kThreadCounts) {
      core::ReolapOptions options;
      options.num_threads = threads;
      double total_ms = 0, match_ms = 0, combine_ms = 0, validate_ms = 0;
      bool identical = true;
      for (size_t i = 0; i < tuples.size(); ++i) {
        core::ReolapStats stats;
        util::WallTimer timer;
        auto queries = reolap.Synthesize(tuples[i], options, &stats);
        total_ms += timer.ElapsedMillis();
        if (!queries.ok()) continue;
        match_ms += stats.match_millis;
        combine_ms += stats.combine_millis;
        validate_ms += stats.validate_millis;
        std::string sig = CandidateSignature(*queries);
        if (threads == 1) {
          serial_sigs.push_back(std::move(sig));
        } else if (i >= serial_sigs.size() || sig != serial_sigs[i]) {
          identical = false;
        }
      }
      if (threads == 1) serial_validate_ms = validate_ms;
      double speedup =
          validate_ms > 0 ? serial_validate_ms / validate_ms : 1.0;
      sweep.AddRow({name, std::to_string(threads), Ms(total_ms),
                    Ms(validate_ms), Ms(speedup), identical ? "yes" : "NO"});
      log.AddRecord()
          .Str("dataset", name)
          .Int("threads", static_cast<long long>(threads))
          .Int("inputs", static_cast<long long>(tuples.size()))
          .Num("total_ms", total_ms)
          .Num("match_ms", match_ms)
          .Num("combine_ms", combine_ms)
          .Num("validate_ms", validate_ms)
          .Num("validate_speedup_vs_1thread", speedup)
          .Bool("identical_to_serial", identical);
    }
  }
  sweep.Print(std::cout);
  std::cout << "\nExpectation: validation speedup approaches the physical "
               "core count (the probes are independent read-only LIMIT-1 "
               "queries); every thread count must report Identical=yes.\n";

  // --- Cache ablation: repeated-probe validation through the engine -------
  // Re-synthesizing the same example tuples (a user retrying an input, or
  // overlapping combinations across tuples) re-issues identical LIMIT-1
  // probes. With validation routed through a QueryEngine those repeats are
  // result-cache hits; without one every probe touches the store again.
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
      engine::QueryEngine engine(env.store());
      core::Reolap reolap(env.dataset.store.get(), env.vsg.get(),
                          env.text.get(), cached ? &engine : nullptr);
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
    // The "execute what ReOLAP synthesized" workload through raw Execute
    // (no engine cache): the pure executor cost of materializing
    // candidate answers.
    core::Reolap plain(env.dataset.store.get(), env.vsg.get(),
                       env.text.get());
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
      auto table = sparql::Execute(env.store(), q, exec);
      if (table.ok()) rows += table->row_count();
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
