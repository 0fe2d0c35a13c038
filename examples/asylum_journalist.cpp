// The paper's running example (Section 1): journalist Alex explores
// "Requests for Asylum" data without writing SPARQL.
//
//  1. Alex types "Germany" -> ReOLAP proposes interpretations (Germany as
//     country of destination vs. country of origin).
//  2. Alex picks "destination", inspects aggregate totals.
//  3. Alex drills down by continent of origin (Disaggregate).
//  4. Alex keeps only the top destinations (TopK subset).
//  5. Alex asks for countries with similar volumes (Similarity Search).
//
// Build & run:  ./build/examples/asylum_journalist [num_observations]

#include <cstdlib>
#include <iostream>

#include "core/session.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/text_index.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace re2xolap;
  uint64_t n_obs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

  std::cout << "=== Generating synthetic Eurostat asylum KG (" << n_obs
            << " observations) ===\n";
  util::WallTimer timer;
  auto ds = qb::Generate(qb::EurostatSpec(n_obs));
  if (!ds.ok()) {
    std::cerr << ds.status() << "\n";
    return 1;
  }
  std::cout << "  " << ds->store->size() << " triples in "
            << timer.ElapsedMillis() << " ms\n";

  timer.Restart();
  auto vsg = core::VirtualSchemaGraph::Build(*ds->store,
                                             ds->spec.observation_class);
  if (!vsg.ok()) {
    std::cerr << vsg.status() << "\n";
    return 1;
  }
  rdf::TextIndex text(*ds->store);
  std::cout << "  bootstrap (virtual graph + text index): "
            << timer.ElapsedMillis() << " ms\n\n";

  engine::QueryEngine engine(*ds->store);
  core::Session session(ds->store.get(), &*vsg, &text, &engine);

  // --- Interaction 1: example -> candidate queries -------------------------
  std::cout << "=== Alex searches for \"Germany\" ===\n";
  auto candidates = session.Start({"Germany"});
  if (!candidates.ok()) {
    std::cerr << candidates.status() << "\n";
    return 1;
  }
  size_t dest_idx = 0;
  for (size_t i = 0; i < candidates->size(); ++i) {
    std::cout << "  [" << i << "] " << (*candidates)[i].description << "\n";
    if ((*candidates)[i].description.find("Destination") !=
        std::string::npos) {
      dest_idx = i;
    }
  }

  // --- Interaction 2: pick "destination" and inspect ------------------------
  std::cout << "\n=== Alex picks interpretation " << dest_idx
            << " (destination) ===\n";
  if (auto st = session.PickCandidate(dest_idx); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  auto table = session.Execute();
  if (!table.ok()) {
    std::cerr << table.status() << "\n";
    return 1;
  }
  std::cout << "Aggregates per country of destination ("
            << (*table)->row_count() << " rows, first 5):\n";
  (*table)->Print(std::cout, 5);

  // --- Interaction 3: drill down by continent of origin ---------------------
  std::cout << "\n=== Alex disaggregates by continent of origin ===\n";
  auto dis = session.Refine(core::RefinementKind::kDisaggregate);
  if (!dis.ok()) {
    std::cerr << dis.status() << "\n";
    return 1;
  }
  size_t pick = 0;
  for (size_t i = 0; i < dis->size(); ++i) {
    std::cout << "  [" << i << "] " << (*dis)[i].description << "\n";
    if ((*dis)[i].description.find("/ Continent") != std::string::npos) {
      pick = i;
    }
  }
  session.PickRefinement(pick);
  table = session.Execute();
  if (!table.ok()) {
    std::cerr << table.status() << "\n";
    return 1;
  }
  std::cout << "\nDestination x continent of origin (" << (*table)->row_count()
            << " rows, first 8):\n";
  (*table)->Print(std::cout, 8);

  // --- Interaction 4: keep only the top destinations -------------------------
  std::cout << "\n=== Alex keeps the top destinations (TopK) ===\n";
  auto topk = session.Refine(core::RefinementKind::kTopK);
  if (!topk.ok()) {
    std::cerr << topk.status() << "\n";
    return 1;
  }
  for (size_t i = 0; i < std::min<size_t>(topk->size(), 4); ++i) {
    std::cout << "  [" << i << "] " << (*topk)[i].description << "\n";
  }
  if (!topk->empty()) {
    session.PickRefinement(0);
    table = session.Execute();
    if (table.ok()) {
      std::cout << "\nAfter the TopK cut (" << (*table)->row_count()
                << " rows, first 8):\n";
      (*table)->Print(std::cout, 8);
    }
    session.Back();  // Alex goes back to explore differently
  }

  // --- Interaction 5: similar destinations -----------------------------------
  std::cout << "\n=== Alex looks for countries similar to Germany ===\n";
  auto sim = session.Refine(core::RefinementKind::kSimilarity);
  if (!sim.ok()) {
    std::cerr << sim.status() << "\n";
    return 1;
  }
  for (const auto& s : *sim) std::cout << "  - " << s.description << "\n";
  if (!sim->empty()) {
    session.PickRefinement(0);
    table = session.Execute();
    if (table.ok()) {
      std::cout << "\nGermany and its most similar destinations ("
                << (*table)->row_count() << " rows, first 12):\n";
      (*table)->Print(std::cout, 12);
    }
  }

  const core::ExplorationStats& stats = session.stats();
  std::cout << "\n=== Session summary ===\n"
            << "  interactions:        " << stats.interactions << "\n"
            << "  exploration paths:   " << stats.cumulative_paths << "\n"
            << "  tuples accessed:     " << stats.cumulative_tuples << "\n";
  return 0;
}
