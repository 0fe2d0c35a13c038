// Ablation for the index representation: raw sorted EncodedTriple arrays
// (12 bytes/triple/permutation, zero-copy spans) vs the compressed block
// format (1024-triple blocks, delta/vbyte payload + skip table, decoded
// through IndexCursor scratch). Measures per-dataset:
//   (a) index bytes — three raw permutations vs the three block sections,
//       plus end-to-end snapshot file bytes for both formats;
//   (b) query throughput — the executor-core micro shapes (full scan,
//       type scan, star join, chain join) under the vectorized core on a
//       raw and a compressed clone of the same store (identical term ids,
//       so results and scan counters must match exactly).
// Acceptance targets (ISSUE 8): compressed index bytes <= 0.5x raw, query
// time within 15% of the raw store. Records land in
// BENCH_index_compression.json.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "rdf/compressed_index.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "storage/snapshot.h"

namespace {

using re2xolap::sparql::ExecOptions;
using re2xolap::sparql::ExecStats;

/// Rebuilds `src` under `format` with identical term ids (interned in id
/// order), so both clones answer queries bit-identically.
std::unique_ptr<re2xolap::rdf::TripleStore> CloneWithFormat(
    const re2xolap::rdf::TripleStore& src, re2xolap::rdf::IndexFormat format) {
  namespace rdf = re2xolap::rdf;
  auto out = std::make_unique<rdf::TripleStore>();
  out->set_index_format(format);
  for (rdf::TermId id = 1; id <= src.dictionary().size(); ++id) {
    out->dictionary().Intern(src.term(id));
  }
  for (const rdf::EncodedTriple& t : src.Match(rdf::TriplePattern{})) {
    out->AddEncoded(t);
  }
  out->Freeze();
  return out;
}

struct Timed {
  double best_ms = 0;
  size_t rows = 0;
  uint64_t scanned = 0;
  bool ok = false;
};

void RunOnce(const re2xolap::rdf::TripleStore& store,
             const re2xolap::sparql::SelectQuery& query, Timed* out) {
  ExecOptions options;
  options.timeout_millis = 60000;
  ExecStats stats;
  re2xolap::util::WallTimer timer;
  auto r = re2xolap::sparql::Execute(store, query, options, &stats);
  double ms = timer.ElapsedMillis();
  if (!r.ok()) {
    out->ok = false;
    return;
  }
  out->best_ms = std::min(out->best_ms, ms);
  out->rows = r->row_count();
  out->scanned = stats.triples_scanned;
}

/// Times `query` on both stores with the reps interleaved (raw, compressed,
/// raw, ...) so machine-load drift hits both sides equally instead of
/// skewing whichever batch ran second.
void RunPair(const re2xolap::rdf::TripleStore& raw,
             const re2xolap::rdf::TripleStore& compressed,
             const re2xolap::sparql::SelectQuery& query, int reps, Timed* r,
             Timed* c) {
  r->best_ms = c->best_ms = 1e18;
  r->ok = c->ok = true;
  for (int i = 0; i < reps && r->ok && c->ok; ++i) {
    RunOnce(raw, query, r);
    RunOnce(compressed, query, c);
  }
}

/// Snapshot file size for `store`, written to and removed from the CWD.
uint64_t SnapshotBytes(const re2xolap::rdf::TripleStore& store,
                       const std::string& path) {
  namespace storage = re2xolap::storage;
  auto st = storage::SaveSnapshot(path, store, nullptr, nullptr, {});
  if (!st.ok()) {
    std::cerr << "snapshot " << path << " failed: " << st << "\n";
    return 0;
  }
  auto info = storage::InspectSnapshot(path);
  std::remove(path.c_str());
  return info.ok() ? info->file_bytes : 0;
}

}  // namespace

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  constexpr int kReps = 9;
  std::cout << "=== Ablation: raw vs compressed block index ===\n\n";
  util::TablePrinter sizes({"Dataset", "Triples", "Raw idx (MB)",
                            "Compressed idx (MB)", "Ratio", "Snap raw (MB)",
                            "Snap compressed (MB)"});
  util::TablePrinter perf({"Dataset", "Query", "Raw (ms)", "Compressed (ms)",
                           "Rel", "Rows"});
  JsonBenchLog log("index_compression");

  for (const std::string& name : AllDatasets()) {
    auto ds = qb::Generate(SpecByName(name, DefaultObservations(name)));
    if (!ds.ok()) {
      std::cerr << "generate " << name << " failed: " << ds.status() << "\n";
      return 1;
    }
    const std::string& obs_class = ds->spec.observation_class;
    auto raw = CloneWithFormat(*ds->store, rdf::IndexFormat::kRaw);
    auto compressed =
        CloneWithFormat(*ds->store, rdf::IndexFormat::kCompressed);

    // (a) Bytes: three sorted permutations at 12 bytes/triple vs the three
    // block sections (skip table + payload).
    const uint64_t triples = raw->size();
    const uint64_t raw_bytes = 3 * triples * sizeof(rdf::EncodedTriple);
    const uint64_t comp_bytes = compressed->spo_blocks()->byte_size() +
                                compressed->pos_blocks()->byte_size() +
                                compressed->osp_blocks()->byte_size();
    const double ratio =
        raw_bytes > 0 ? static_cast<double>(comp_bytes) / raw_bytes : 0.0;
    const uint64_t snap_raw = SnapshotBytes(*raw, "bench_idx_raw.snap");
    const uint64_t snap_comp =
        SnapshotBytes(*compressed, "bench_idx_compressed.snap");
    char ratio_str[32];
    std::snprintf(ratio_str, sizeof(ratio_str), "%.3f", ratio);
    sizes.AddRow({name, std::to_string(triples), Mb(raw_bytes),
                  Mb(comp_bytes), ratio_str, Mb(snap_raw), Mb(snap_comp)});
    log.AddRecord()
        .Str("dataset", name)
        .Str("kind", "bytes")
        .Int("triples", static_cast<long long>(triples))
        .Int("raw_index_bytes", static_cast<long long>(raw_bytes))
        .Int("compressed_index_bytes", static_cast<long long>(comp_bytes))
        .Num("compression_ratio", ratio)
        .Int("spo_block_bytes",
             static_cast<long long>(compressed->spo_blocks()->byte_size()))
        .Int("pos_block_bytes",
             static_cast<long long>(compressed->pos_blocks()->byte_size()))
        .Int("osp_block_bytes",
             static_cast<long long>(compressed->osp_blocks()->byte_size()))
        .Int("snapshot_raw_bytes", static_cast<long long>(snap_raw))
        .Int("snapshot_compressed_bytes", static_cast<long long>(snap_comp))
        .Bool("meets_half_raw_target", ratio <= 0.5);

    // (b) Throughput on the executor-core micro shapes.
    struct Micro {
      const char* label;
      std::string text;
    };
    const Micro micros[] = {
        {"full-scan", "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"},
        {"type-scan",
         "SELECT (COUNT(*) AS ?n) WHERE { ?o a <" + obs_class + "> }"},
        {"star-join",
         "SELECT (COUNT(*) AS ?n) WHERE { ?o a <" + obs_class +
             "> . ?o ?p ?v }"},
        {"chain-join",
         "SELECT (COUNT(*) AS ?n) WHERE { ?o a <" + obs_class +
             "> . ?o ?p ?m . ?m ?q ?up }"},
    };
    for (const Micro& m : micros) {
      auto q = sparql::ParseQuery(m.text);
      if (!q.ok()) {
        std::cerr << "parse " << m.label << " failed: " << q.status() << "\n";
        return 1;
      }
      Timed r, c;
      RunPair(*raw, *compressed, *q, kReps, &r, &c);
      if (!r.ok || !c.ok) continue;
      std::string rows = std::to_string(c.rows);
      if (r.rows != c.rows || r.scanned != c.scanned) rows += " (MISMATCH!)";
      const double rel = r.best_ms > 0 ? c.best_ms / r.best_ms : 0.0;
      char rel_str[32];
      std::snprintf(rel_str, sizeof(rel_str), "%.2fx", rel);
      perf.AddRow({name, m.label, Ms(r.best_ms), Ms(c.best_ms), rel_str,
                   rows});
      log.AddRecord()
          .Str("dataset", name)
          .Str("kind", "query")
          .Str("query", m.label)
          .Num("raw_ms", r.best_ms)
          .Num("compressed_ms", c.best_ms)
          .Num("compressed_over_raw", rel)
          .Int("rows", static_cast<long long>(c.rows))
          .Int("triples_scanned", static_cast<long long>(c.scanned))
          .Bool("identical_results",
                r.rows == c.rows && r.scanned == c.scanned)
          .Bool("within_15pct", rel <= 1.15);
    }
  }
  sizes.Print(std::cout);
  std::cout << "\n";
  perf.Print(std::cout);
  std::cout << "\nShape check: dictionary-dense ids delta-encode well, so "
               "the block sections should land far under the 0.5x raw "
               "target; scan-heavy shapes pay the per-block decode once "
               "per 1024 triples and stay within ~15% of the zero-copy "
               "raw spans, with gallops skipping whole blocks via the "
               "skip table on probe-dominated joins.\n";
  log.Write("BENCH_index_compression.json");
  return 0;
}
