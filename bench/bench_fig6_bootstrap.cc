// Reproduces the paper's Figure 6c: system bootstrap time (building the
// Virtual Schema Graph + text index) per dataset, plus an observation-count
// sweep demonstrating the paper's claim that bootstrap cost is driven by
// schema complexity (members/attributes), with the store's data-serving
// cost as the dominating factor — not by the raw observation count alone.
//
// Paper reference: bootstrap takes ~25 min (DBpedia) to ~60 min (Eurostat)
// against Virtuoso over the full dumps; here the store is in-process and
// datasets are scaled, so absolute numbers are smaller. The shape that must
// hold: the schema crawl's scans follow the schema (one per predicate and
// per level member), not the observation count — the program exits
// non-zero when they differ across the Eurostat sweep — and per-dataset
// ordering follows schema/member complexity. Each phase also reports its
// minor page faults (getrusage ru_minflt deltas), so a set-up change shows
// how much of its cost is first touches of freshly allocated memory, and
// Generate's TripleStore::Freeze gets columns of its own (from its
// store.freeze span), so the load loop and the index build can be told
// apart.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "rdf/ntriples.h"
#include "storage/snapshot.h"
#include "util/thread_pool.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  JsonBenchLog log("fig6_bootstrap");

  std::cout << "=== Figure 6c: bootstrap time per dataset ===\n\n";
  // Generate includes its Freeze, which is also shown on its own.
  util::TablePrinter t({"Dataset", "#Obs", "Generate (ms)", "Freeze (ms)",
                        "VGraph (ms)", "TextIndex (ms)",
                        "Bootstrap total (ms)", "Store scans",
                        "Members visited", "Generate faults",
                        "Freeze faults", "VGraph faults",
                        "TextIndex faults"});
  for (const std::string& name : AllDatasets()) {
    uint64_t obs = DefaultObservations(name);
    BenchEnv env = MakeEnv(name, obs);
    t.AddRow({name, std::to_string(obs), Ms(env.generate_millis),
              Ms(env.freeze_millis), Ms(env.vsg_millis), Ms(env.text_millis),
              Ms(env.vsg_millis + env.text_millis),
              std::to_string(env.vsg_stats.store_scans),
              std::to_string(env.vsg_stats.members_visited),
              std::to_string(env.generate_faults),
              std::to_string(env.freeze_faults),
              std::to_string(env.vsg_faults),
              std::to_string(env.text_faults)});
  }
  t.Print(std::cout);

  std::cout << "\n=== Sweep: Eurostat bootstrap vs observation count ===\n"
               "(the schema crawl issues one scan per predicate and per level "
               "member; only the sequential sweep's length grows with "
               "#obs)\n\n";
  util::TablePrinter sweep({"#Obs", "VGraph (ms)", "Schema crawl scans",
                            "Levels", "Members"});
  std::vector<uint64_t> sweep_scans;
  for (uint64_t obs : {10000u, 40000u, 160000u}) {
    BenchEnv env = MakeEnv("Eurostat", obs);
    sweep_scans.push_back(env.vsg_stats.store_scans);
    sweep.AddRow({std::to_string(obs), Ms(env.vsg_millis),
                  std::to_string(env.vsg_stats.store_scans),
                  std::to_string(env.vsg->level_count()),
                  std::to_string(env.vsg->total_members())});
  }
  sweep.Print(std::cout);
  std::cout << "\nShape check: levels/members saturate once every member is "
               "referenced, and so do the crawl's scans (1 + predicates + "
               "level members); VGraph time grows only with the length of "
               "the sequential observation sweep.\n";
  if (std::adjacent_find(sweep_scans.begin(), sweep_scans.end(),
                         std::not_equal_to<>()) != sweep_scans.end()) {
    std::cerr << "shape check failed: schema crawl scans vary with the "
                 "observation count\n";
    return 1;
  }

  // --- Ablation: cold bootstrap vs snapshot restore -------------------------
  //
  // The cold path is the full journey a fresh process takes: parse the
  // N-Triples dump, Freeze (build the SPO and POS permutations + stats),
  // build the text index, build the virtual schema graph. The warm path
  // loads a snapshot image saved by a previous run (both copy and
  // zero-copy mmap modes) and reconstructs the schema graph from its
  // serialized parts.
  std::cout << "\n=== Ablation: cold parse+freeze+bootstrap vs snapshot "
               "load ===\n\n";
  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  util::TablePrinter ab({"Dataset", "Cold (ms)", "Save (ms)", "Image (MB)",
                         "Load copy (ms)", "Load mmap (ms)", "Speedup copy",
                         "Speedup mmap"});
  for (const std::string& name : AllDatasets()) {
    uint64_t obs = DefaultObservations(name);
    BenchEnv env = MakeEnv(name, obs);

    std::ostringstream nt;
    rdf::WriteNTriples(env.store(), nt);
    const std::string dump = nt.str();

    util::WallTimer timer;
    rdf::TripleStore cold_store;
    if (auto st = rdf::ParseNTriples(dump, &cold_store); !st.ok()) {
      std::cerr << "reparse failed: " << st << "\n";
      return 1;
    }
    cold_store.Freeze();
    rdf::TextIndex cold_text(cold_store);
    auto cold_vsg = core::VirtualSchemaGraph::Build(
        cold_store, env.dataset.spec.observation_class);
    if (!cold_vsg.ok()) {
      std::cerr << "cold bootstrap failed: " << cold_vsg.status() << "\n";
      return 1;
    }
    double cold_millis = timer.ElapsedMillis();

    const std::string path = "/tmp/bench_fig6_" + name + ".snap";
    storage::SnapshotWriteOptions write_options;
    write_options.pool = &pool;
    storage::VsgImage image = storage::MakeVsgImage(*env.vsg);
    timer.Restart();
    if (auto st = storage::SaveSnapshot(path, env.store(), env.text.get(),
                                        &image, write_options);
        !st.ok()) {
      std::cerr << "save failed: " << st << "\n";
      return 1;
    }
    double save_millis = timer.ElapsedMillis();
    auto info = storage::InspectSnapshot(path);
    uint64_t image_bytes = info.ok() ? info->file_bytes : 0;

    // Warm restore includes schema-graph reconstruction so both paths end
    // at the same ready-to-query state.
    auto restore = [&](bool use_mmap) -> double {
      storage::SnapshotLoadOptions load_options;
      load_options.pool = &pool;
      load_options.use_mmap = use_mmap;
      util::WallTimer t2;
      auto loaded = storage::LoadSnapshot(path, load_options);
      if (!loaded.ok()) {
        std::cerr << "load failed: " << loaded.status() << "\n";
        std::exit(1);
      }
      auto graph = core::VirtualSchemaGraph::FromParts(
          std::move(loaded->vsg->nodes), std::move(loaded->vsg->edges),
          std::move(loaded->vsg->measures),
          std::move(loaded->vsg->observation_attrs));
      if (!graph.ok()) {
        std::cerr << "vsg restore failed: " << graph.status() << "\n";
        std::exit(1);
      }
      return t2.ElapsedMillis();
    };
    double load_copy_millis = restore(false);
    double load_mmap_millis = restore(true);
    std::remove(path.c_str());

    double speedup_copy = cold_millis / load_copy_millis;
    double speedup_mmap = cold_millis / load_mmap_millis;
    ab.AddRow({name, Ms(cold_millis), Ms(save_millis),
               Mb(image_bytes), Ms(load_copy_millis), Ms(load_mmap_millis),
               Ms(speedup_copy) + "x", Ms(speedup_mmap) + "x"});

    log.AddRecord()
        .Str("dataset", name)
        .Int("observations", static_cast<long long>(obs))
        .Int("triples", static_cast<long long>(env.store().size()))
        .Num("cold_bootstrap_millis", cold_millis)
        .Num("snapshot_save_millis", save_millis)
        .Int("snapshot_bytes", static_cast<long long>(image_bytes))
        .Num("snapshot_load_copy_millis", load_copy_millis)
        .Num("snapshot_load_mmap_millis", load_mmap_millis)
        .Num("speedup_copy", speedup_copy)
        .Num("speedup_mmap", speedup_mmap)
        .Num("vsg_build_millis", env.vsg_millis)
        .Num("text_index_millis", env.text_millis)
        .Num("generate_millis", env.generate_millis)
        .Num("freeze_millis", env.freeze_millis)
        .Int("generate_minor_faults", env.generate_faults)
        .Int("freeze_minor_faults", env.freeze_faults)
        .Int("vsg_build_minor_faults", env.vsg_faults)
        .Int("text_index_minor_faults", env.text_faults);
  }
  ab.Print(std::cout);
  std::cout << "\nShape check: snapshot restore skips parsing, permutation "
               "sorts, stats, text tokenization, and the schema crawl — the "
               "warm path is I/O plus validation, so the speedup grows with "
               "dataset size (mmap mode additionally defers index reads to "
               "first touch).\n";

  log.Write("BENCH_fig6.json");
  return 0;
}
