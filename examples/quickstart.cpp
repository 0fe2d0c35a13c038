// Quickstart: load a tiny statistical KG from N-Triples text, bootstrap
// RE2xOLAP, reverse-engineer an analytical query from the example
// <"Germany", "2014">, and print its results (cf. paper Table 2).
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "core/reolap.h"
#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "rdf/ntriples.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"

namespace {

// A fragment in the shape of the paper's Figure 1.
constexpr char kData[] = R"(
<http://ex/origin/syria>   <http://www.w3.org/2000/01/rdf-schema#label> "Syria" .
<http://ex/origin/china>   <http://www.w3.org/2000/01/rdf-schema#label> "China" .
<http://ex/continent/asia> <http://www.w3.org/2000/01/rdf-schema#label> "Asia" .
<http://ex/dest/germany>   <http://www.w3.org/2000/01/rdf-schema#label> "Germany" .
<http://ex/dest/france>    <http://www.w3.org/2000/01/rdf-schema#label> "France" .
<http://ex/month/2014-10>  <http://www.w3.org/2000/01/rdf-schema#label> "October 2014" .
<http://ex/year/2014>      <http://www.w3.org/2000/01/rdf-schema#label> "2014" .
<http://ex/origin/syria>   <http://ex/inContinent> <http://ex/continent/asia> .
<http://ex/origin/china>   <http://ex/inContinent> <http://ex/continent/asia> .
<http://ex/month/2014-10>  <http://ex/inYear> <http://ex/year/2014> .
<http://ex/obs/0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Observation> .
<http://ex/obs/0> <http://ex/countryOrigin> <http://ex/origin/syria> .
<http://ex/obs/0> <http://ex/countryDestination> <http://ex/dest/germany> .
<http://ex/obs/0> <http://ex/refPeriod> <http://ex/month/2014-10> .
<http://ex/obs/0> <http://ex/numApplicants> "403"^^xsd:integer .
<http://ex/obs/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Observation> .
<http://ex/obs/1> <http://ex/countryOrigin> <http://ex/origin/china> .
<http://ex/obs/1> <http://ex/countryDestination> <http://ex/dest/germany> .
<http://ex/obs/1> <http://ex/refPeriod> <http://ex/month/2014-10> .
<http://ex/obs/1> <http://ex/numApplicants> "80"^^xsd:integer .
<http://ex/obs/2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Observation> .
<http://ex/obs/2> <http://ex/countryOrigin> <http://ex/origin/syria> .
<http://ex/obs/2> <http://ex/countryDestination> <http://ex/dest/france> .
<http://ex/obs/2> <http://ex/refPeriod> <http://ex/month/2014-10> .
<http://ex/obs/2> <http://ex/numApplicants> "120"^^xsd:integer .
)";

}  // namespace

int main() {
  using namespace re2xolap;

  // 1. Load the KG.
  rdf::TripleStore store;
  util::Status st = rdf::ParseNTriples(kData, &store);
  if (!st.ok()) {
    std::cerr << "load failed: " << st << "\n";
    return 1;
  }
  store.Freeze();
  std::cout << "Loaded " << store.size() << " triples.\n\n";

  // 2. Bootstrap: virtual schema graph + full-text index.
  auto vsg = core::VirtualSchemaGraph::Build(store, "http://ex/Observation");
  if (!vsg.ok()) {
    std::cerr << "bootstrap failed: " << vsg.status() << "\n";
    return 1;
  }
  rdf::TextIndex text(store);
  std::cout << "Virtual schema graph: " << vsg->dimension_count()
            << " dimensions, " << vsg->level_count() << " levels, "
            << vsg->total_members() << " members.\n\n";

  // 3. Reverse-engineer queries from the example <"Germany", "2014">.
  // All execution — including ReOLAP's validation probes — goes through
  // one QueryEngine, which caches plans and results for the frozen store.
  engine::QueryEngine engine(store);
  core::Reolap reolap(&*vsg, &text, engine);
  auto queries = reolap.Synthesize({"Germany", "2014"});
  if (!queries.ok()) {
    std::cerr << "synthesis failed: " << queries.status() << "\n";
    return 1;
  }
  std::cout << "ReOLAP produced " << queries->size()
            << " candidate query(ies) for <\"Germany\", \"2014\">:\n\n";
  for (size_t i = 0; i < queries->size(); ++i) {
    std::cout << "  [" << i << "] " << (*queries)[i].description << "\n"
              << sparql::ToSparql((*queries)[i].query) << "\n\n";
  }

  // 4. Execute the first candidate through the engine and print its
  // result table (a second Execute of the same query would be a cache
  // hit).
  auto result = engine.Execute((*queries)[0].query);
  if (!result.ok()) {
    std::cerr << "execution failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "Results:\n";
  (*result)->Print(std::cout);
  return 0;
}
