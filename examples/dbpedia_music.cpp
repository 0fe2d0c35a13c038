// Exploring a heterogeneous open-domain KG: the synthetic DBpedia
// creative-work view, the paper's worst case — label sets shared across
// dimensions (a genre name matches the work's genre, the artist's genre
// and the record label's genre) and M-to-N hierarchy steps.
//
// Demonstrates why ambiguous examples produce multiple interpretations and
// how the user disambiguates by picking a candidate.
//
// Build & run:  ./build/examples/dbpedia_music [num_observations]

#include <cstdlib>
#include <iostream>

#include "core/session.h"
#include "core/sparqlbye_baseline.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/text_index.h"

int main(int argc, char** argv) {
  using namespace re2xolap;
  uint64_t n_obs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 30000;

  std::cout << "=== Generating synthetic DBpedia creative-work KG (" << n_obs
            << " observations) ===\n";
  auto ds = qb::Generate(qb::DbpediaSpec(n_obs));
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
            << vsg->dimension_count() << " dimensions, " << vsg->level_count()
            << " levels, " << vsg->total_members() << " members\n\n";

  engine::QueryEngine engine(*ds->store);
  core::Session session(ds->store.get(), &*vsg, &text, &engine);

  // "Jazz" is deliberately ambiguous: it labels a work genre, an artist
  // genre, and a label genre.
  std::cout << "=== Example: <\"Jazz\"> (ambiguous across dimensions) ===\n";
  auto candidates = session.Start({"Jazz"});
  if (!candidates.ok()) {
    std::cerr << candidates.status() << "\n";
    return 1;
  }
  std::cout << "ReOLAP found " << candidates->size()
            << " interpretations:\n";
  for (size_t i = 0; i < candidates->size(); ++i) {
    std::cout << "  [" << i << "] " << (*candidates)[i].description << "\n";
  }
  if (candidates->empty()) return 1;

  session.PickCandidate(0);
  auto table = session.Execute();
  if (!table.ok()) {
    std::cerr << table.status() << "\n";
    return 1;
  }
  std::cout << "\nAggregate popularity per genre (" << (*table)->row_count()
            << " rows, first 6):\n";
  (*table)->Print(std::cout, 6);

  // Drill into the era dimension of genres.
  auto dis = session.Refine(core::RefinementKind::kDisaggregate);
  if (dis.ok() && !dis->empty()) {
    std::cout << "\n" << dis->size()
              << " disaggregation paths available; picking the first: "
              << (*dis)[0].description << "\n";
    session.PickRefinement(0);
    table = session.Execute();
    if (table.ok()) {
      std::cout << "(" << (*table)->row_count() << " rows, first 6):\n";
      (*table)->Print(std::cout, 6);
    }
  }

  // Contrast with the SPARQLByE-style baseline (paper Figure 10): it maps
  // the keyword to an entity but produces no analytical query.
  std::cout << "\n=== SPARQLByE baseline on the same example ===\n";
  core::SparqlByEBaseline baseline(ds->store.get(), &text);
  auto bq = baseline.Synthesize({"Jazz"});
  if (bq.ok()) {
    std::cout << sparql::ToSparql(*bq) << "\n";
    std::cout << "\n(no aggregation, no grouping, no link to observations "
                 "— unusable for analytics)\n";
  }
  return 0;
}
