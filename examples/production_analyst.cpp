// Environmental-science scenario from the paper's user interviews
// (Section 7.2): "I would expect it to contain information about China's
// electricity production, and I want to see other countries with similar
// production."
//
// Runs on the synthetic Production macro-economic KG (7 dimensions).
//
// Build & run:  ./build/examples/production_analyst [num_observations]

#include <cstdlib>
#include <iostream>

#include "core/session.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/text_index.h"

int main(int argc, char** argv) {
  using namespace re2xolap;
  uint64_t n_obs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

  std::cout << "=== Generating synthetic Production KG (" << n_obs
            << " observations) ===\n";
  auto ds = qb::Generate(qb::ProductionSpec(n_obs));
  if (!ds.ok()) {
    std::cerr << ds.status() << "\n";
    return 1;
  }
  auto vsg = core::VirtualSchemaGraph::Build(*ds->store,
                                             ds->spec.observation_class);
  if (!vsg.ok()) {
    std::cerr << vsg.status() << "\n";
    return 1;
  }
  rdf::TextIndex text(*ds->store);
  std::cout << "  " << ds->store->size() << " triples; "
            << vsg->dimension_count() << " dimensions, "
            << vsg->total_members() << " members\n\n";

  engine::QueryEngine engine(*ds->store);
  core::Session session(ds->store.get(), &*vsg, &text, &engine);

  // The analyst starts from two entities: a country and an industry. On a
  // sparse (scaled-down) dataset no observation may jointly carry both —
  // ReOLAP's validation then correctly prunes every combination, and the
  // analyst falls back to the country alone.
  std::cout << "=== Example: <\"China\", \"Electricity Production\"> ===\n";
  auto candidates = session.Start({"China", "Electricity Production"});
  if (!candidates.ok()) {
    std::cerr << candidates.status() << "\n";
    return 1;
  }
  if (candidates->empty()) {
    std::cout << "  (no observation jointly matches both entities at this "
                 "scale; falling back to <\"China\">)\n";
    candidates = session.Start({"China"});
    if (!candidates.ok() || candidates->empty()) {
      std::cerr << "no candidate queries\n";
      return 1;
    }
  }
  for (size_t i = 0; i < candidates->size(); ++i) {
    std::cout << "  [" << i << "] " << (*candidates)[i].description << "\n";
  }
  session.PickCandidate(0);
  auto table = session.Execute();
  if (!table.ok()) {
    std::cerr << table.status() << "\n";
    return 1;
  }
  std::cout << "\nOutput per country x industry (" << (*table)->row_count()
            << " rows, first 6):\n";
  (*table)->Print(std::cout, 6);

  // Disaggregate by year to see the time profile.
  auto dis = session.Refine(core::RefinementKind::kDisaggregate);
  if (!dis.ok()) {
    std::cerr << dis.status() << "\n";
    return 1;
  }
  size_t year_idx = 0;
  for (size_t i = 0; i < dis->size(); ++i) {
    if ((*dis)[i].description.find("For Year") != std::string::npos) {
      year_idx = i;
      break;
    }
  }
  std::cout << "\n=== Disaggregate: " << (*dis)[year_idx].description
            << " ===\n";
  session.PickRefinement(year_idx);
  table = session.Execute();
  if (table.ok()) {
    std::cout << "(" << (*table)->row_count() << " rows, first 6):\n";
    (*table)->Print(std::cout, 6);
  }

  // "other countries with similar production" — similarity over the yearly
  // production profile.
  std::cout << "\n=== Countries with production profiles similar to China "
               "===\n";
  auto sim = session.Refine(core::RefinementKind::kSimilarity);
  if (!sim.ok()) {
    std::cerr << sim.status() << "\n";
    return 1;
  }
  if (sim->empty()) {
    std::cout << "  (no similarity refinement available)\n";
    return 0;
  }
  std::cout << "  " << (*sim)[0].description << "\n";
  session.PickRefinement(0);
  table = session.Execute();
  if (table.ok()) {
    std::cout << "\n(" << (*table)->row_count() << " rows, first 12):\n";
    (*table)->Print(std::cout, 12);
  }

  std::cout << "\nExploration paths offered in this session: "
            << session.stats().cumulative_paths << "\n";
  return 0;
}
