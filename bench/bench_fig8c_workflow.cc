// Reproduces the paper's Figure 8c: the evolution of an exploration
// workflow on Eurostat — ReOLAP, then Disaggregate twice, then Similarity
// Search, then TopK — reporting the cumulative number of exploration paths
// and tuples the system gives access to at each interaction.
//
// Paper reference: starting from a single example, 4 query interpretations
// at the first step; after 4 interactions the system gives access to
// ~12,000 distinct paths and ~8,000 tuples; each TopK reformulation at the
// 5th interaction filters tuples and adds further paths.

#include <iostream>

#include "bench/bench_common.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  BenchEnv env = MakeEnv("Eurostat", DefaultObservations("Eurostat"));
  engine::QueryEngine engine(env.store());
  core::Session session(env.dataset.store.get(), env.vsg.get(),
                        env.text.get(), &engine);

  std::cout << "=== Figure 8c: exploration workflow on Eurostat ===\n"
               "Workflow: ReOLAP(\"Germany\") -> Disaggregate -> "
               "Disaggregate -> Similarity -> TopK\n\n";
  util::TablePrinter t({"Interaction", "Step", "Options offered",
                        "Cumulative paths", "Cumulative tuples"});

  auto add_row = [&](const std::string& step, size_t options) {
    const core::ExplorationStats& st = session.stats();
    t.AddRow({std::to_string(st.interactions), step, std::to_string(options),
              std::to_string(st.cumulative_paths),
              std::to_string(st.cumulative_tuples)});
  };

  auto candidates = session.Start({"Germany"});
  if (!candidates.ok() || candidates->empty()) {
    std::cerr << "synthesis failed\n";
    return 1;
  }
  add_row("ReOLAP", candidates->size());
  session.PickCandidate(0);
  session.Execute().ok();

  for (int round = 1; round <= 2; ++round) {
    auto dis = session.Refine(core::RefinementKind::kDisaggregate);
    if (!dis.ok() || dis->empty()) {
      std::cerr << "disaggregate failed\n";
      return 1;
    }
    add_row("Disaggregate." + std::to_string(round), dis->size());
    session.PickRefinement(0);
    session.Execute().ok();
  }

  auto sim = session.Refine(core::RefinementKind::kSimilarity);
  if (sim.ok()) {
    add_row("Similarity", sim->size());
    if (!sim->empty()) {
      session.PickRefinement(0);
      session.Execute().ok();
    }
  }

  auto topk = session.Refine(core::RefinementKind::kTopK);
  if (topk.ok()) {
    add_row("TopK", topk->size());
    if (!topk->empty()) {
      session.PickRefinement(0);
      session.Execute().ok();
    }
  }

  t.Print(std::cout);
  std::cout << "\nShape check: each interaction multiplies the reachable "
               "exploration paths while individual refinements keep result "
               "sets manageable; after ~4 interactions the user has touched "
               "thousands of tuples through a handful of clicks.\n";
  return 0;
}
