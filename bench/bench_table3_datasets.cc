// Reproduces the paper's Table 3 (dataset characteristics) and Figure 6a/6b
// (#observations and #triples per dataset).
//
// Paper reference values (real dumps; ours are synthetic + scaled):
//   Table 3:  Eurostat   |D|=4 |M|=1 |H|=8  |L|=9  |N_D|=373    VGraph 72MB
//             Production |D|=7 |M|=1 |H|=5  |L|=9  |N_D|=6444   VGraph 73MB
//             DBpedia    |D|=5 |M|=1 |H|=14 |L|=23 |N_D|=87160  VGraph 79MB
//   Fig 6a/b: Eurostat ~15M obs/160M triples, Production ~15M/90M,
//             DBpedia 541k/20M. Shape to preserve: Eurostat has the most
//             triples per observation; DBpedia the fewest observations but
//             a far richer schema.

#include <iostream>

#include "bench/bench_common.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  std::cout << "=== Table 3: dataset characteristics (synthetic, scaled) "
               "===\n\n";
  util::TablePrinter table(
      {"Dataset", "|D|", "|M|", "|H|", "|L|", "|N_D|", "Store (MB)",
       "Dict (MB)", "VGraph (MB)"});
  util::TablePrinter fig6(
      {"Dataset", "#Observations (Fig 6a)", "#Triples (Fig 6b)",
       "Triples/obs"});

  for (const std::string& name : AllDatasets()) {
    uint64_t obs = DefaultObservations(name);
    BenchEnv env = MakeEnv(name, obs);
    const core::VirtualSchemaGraph& vsg = *env.vsg;
    table.AddRow({name, std::to_string(vsg.dimension_count()),
                  std::to_string(vsg.measure_count()),
                  std::to_string(vsg.hierarchy_count()),
                  std::to_string(vsg.level_count()),
                  std::to_string(vsg.total_members()),
                  Mb(env.store().MemoryUsage()),
                  Mb(env.store().dictionary().MemoryUsage()),
                  Mb(vsg.MemoryUsage())});
    fig6.AddRow({name, std::to_string(obs),
                 std::to_string(env.store().size()),
                 Ms(static_cast<double>(env.store().size()) /
                    static_cast<double>(obs))});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference (real dumps): Eurostat 4/1/8/9/373, "
               "Production 7/1/5/9/6444, DBpedia 5/1/14/23/87160.\n";
  std::cout << "\n=== Figure 6a/6b: dataset sizes ===\n\n";
  fig6.Print(std::cout);
  std::cout << "\nShape check: Eurostat has the most triples/observation "
               "(richer attributes), DBpedia the fewest observations but "
               "the largest schema (|L|, |N_D|).\n";
  return 0;
}
