#ifndef RE2XOLAP_BENCH_BENCH_COMMON_H_
#define RE2XOLAP_BENCH_BENCH_COMMON_H_

// Shared infrastructure for the experiment harnesses in bench/: dataset
// construction (cached per process), bootstrap, and example-tuple sampling
// mirroring the paper's workload generation (Section 7.1: "we randomly
// selected dimension members from each dimension and combined them").
//
// Observation counts are scaled down from the paper's 15M (Eurostat/
// Production) and 541k (DBpedia): the machine budget is a single core, and
// the paper's own claim — which bench_fig6/7 demonstrate explicitly — is
// that synthesis cost depends on schema complexity, not observation count.
// Override the default scale with the RE2X_BENCH_OBS environment variable.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/reolap.h"
#include "core/session.h"
#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/text_index.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace re2xolap::bench {

/// A fully bootstrapped dataset: store + virtual schema graph + text index.
struct BenchEnv {
  qb::GeneratedDataset dataset;
  std::unique_ptr<core::VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
  double generate_millis = 0;
  double vsg_millis = 0;
  double text_millis = 0;
  // Minor page faults taken by each phase: a fresh array's first touch
  // costs one per page, so they show what a phase allocates.
  long generate_faults = 0;
  long vsg_faults = 0;
  long text_faults = 0;
  // The part of Generate that is TripleStore::Freeze (the index build and
  // stats), from its store.freeze span; the rest is the load loop.
  double freeze_millis = 0;
  long freeze_faults = 0;
  core::VsgBuildStats vsg_stats;

  const rdf::TripleStore& store() const { return *dataset.store; }
};

/// Engine settings with both caches off: every Execute plans and runs
/// afresh, so a timed run never measures a cache hit.
inline constexpr engine::EngineConfig kUncached{.plan_cache_capacity = 0,
                                                .result_cache_bytes = 0};

inline uint64_t DefaultObservations(const std::string& dataset_name) {
  if (const char* env = std::getenv("RE2X_BENCH_OBS")) {
    return std::strtoull(env, nullptr, 10);
  }
  // DBpedia is the smallest in the paper too (541k vs 15M).
  return dataset_name == "DBpedia" ? 60000 : 120000;
}

inline qb::DatasetSpec SpecByName(const std::string& name, uint64_t obs) {
  if (name == "Eurostat") return qb::EurostatSpec(obs);
  if (name == "Production") return qb::ProductionSpec(obs);
  if (name == "DBpedia") return qb::DbpediaSpec(obs);
  std::cerr << "unknown dataset " << name << "\n";
  std::exit(1);
}

using util::MinorFaults;

/// Generates and bootstraps a dataset (no caching; callers keep the env
/// alive for the binary's lifetime).
inline BenchEnv MakeEnv(const std::string& name, uint64_t observations) {
  BenchEnv env;
  util::WallTimer timer;
  long faults = MinorFaults();
  // Trace Generate to read its Freeze span (the tracer is left as found).
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool tracing = tracer.enabled();
  tracer.SetEnabled(true);
  auto ds = qb::Generate(SpecByName(name, observations));
  tracer.SetEnabled(tracing);
  if (!ds.ok()) {
    std::cerr << "generate " << name << " failed: " << ds.status() << "\n";
    std::exit(1);
  }
  env.dataset = std::move(ds).value();
  env.generate_millis = timer.ElapsedMillis();
  env.generate_faults = MinorFaults() - faults;
  for (const obs::SpanEvent& span : tracer.Snapshot()) {
    if (span.name != "store.freeze") continue;  // the last one wins
    env.freeze_millis = span.dur_micros / 1000;
    for (const obs::SpanAttr& attr : span.attrs) {
      if (attr.key == "minor_faults") {
        env.freeze_faults = std::strtol(attr.value.c_str(), nullptr, 10);
      }
    }
  }
  if (!tracing) tracer.Clear();

  timer.Restart();
  faults = MinorFaults();
  auto vsg = core::VirtualSchemaGraph::Build(
      env.store(), env.dataset.spec.observation_class, {}, &env.vsg_stats);
  if (!vsg.ok()) {
    std::cerr << "bootstrap " << name << " failed: " << vsg.status() << "\n";
    std::exit(1);
  }
  env.vsg = std::make_unique<core::VirtualSchemaGraph>(std::move(vsg).value());
  env.vsg_millis = timer.ElapsedMillis();
  env.vsg_faults = MinorFaults() - faults;

  timer.Restart();
  faults = MinorFaults();
  env.text = std::make_unique<rdf::TextIndex>(env.store());
  env.text_millis = timer.ElapsedMillis();
  env.text_faults = MinorFaults() - faults;
  return env;
}

/// Samples an example tuple of `k` values. To mirror the paper (whose
/// random member combinations always admit non-empty queries on the dense
/// real KGs), values are drawn from a randomly chosen observation: for each
/// of k distinct dimensions we take the observation's base member or,
/// with probability 1/2, a hierarchy ancestor — then use its label.
inline std::vector<std::string> SampleExampleTuple(const BenchEnv& env,
                                                   size_t k,
                                                   util::Rng& rng) {
  const rdf::TripleStore& store = env.store();
  const core::VirtualSchemaGraph& vsg = *env.vsg;
  rdf::TermId type = store.Lookup(rdf::Term::Iri(
      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"));
  rdf::TermId cls =
      store.Lookup(rdf::Term::Iri(env.dataset.spec.observation_class));
  auto typings = store.Match({rdf::kInvalidTermId, type, cls});
  if (typings.empty() || k == 0) return {};

  rdf::TermId label_pred = store.Lookup(rdf::Term::Iri(qb::kHasLabel));

  for (int attempt = 0; attempt < 64; ++attempt) {
    rdf::TermId obs = typings[rng.Uniform(typings.size())].s;
    // Collect the observation's (dimension predicate, member) pairs.
    std::vector<rdf::EncodedTriple> dims;
    for (const rdf::EncodedTriple& t :
         store.Match({obs, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
      if (t.p == type) continue;
      if (!store.term(t.o).is_iri()) continue;
      dims.push_back(t);
    }
    if (dims.size() < k) continue;
    // Choose k distinct dimensions.
    for (size_t i = 0; i < dims.size(); ++i) {
      std::swap(dims[i], dims[i + rng.Uniform(dims.size() - i)]);
    }
    std::vector<std::string> tuple;
    for (size_t i = 0; i < k; ++i) {
      rdf::TermId member = dims[i].o;
      // Optionally climb the hierarchy: follow a random IRI-valued edge.
      for (int hop = 0; hop < 2 && rng.Bernoulli(0.5); ++hop) {
        std::vector<rdf::TermId> ups;
        for (const rdf::EncodedTriple& t :
             store.Match({member, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
          if (store.term(t.o).is_iri() && !vsg.NodesOfMember(t.o).empty()) {
            ups.push_back(t.o);
          }
        }
        if (ups.empty()) break;
        member = ups[rng.Uniform(ups.size())];
      }
      // Label of the member.
      std::string label;
      for (const rdf::EncodedTriple& t :
           store.Match({member, label_pred, rdf::kInvalidTermId})) {
        if (store.term(t.o).is_literal()) {
          label = store.term(t.o).value;
          break;
        }
      }
      if (label.empty()) break;
      tuple.push_back(label);
    }
    if (tuple.size() == k) return tuple;
  }
  return {};
}

/// Nearest-rank percentile: the smallest sample with at least a fraction
/// `p` of all samples at or below it (0 for no samples).
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Formats milliseconds with 1 decimal.
inline std::string Ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

inline std::string Mb(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / 1e6);
  return buf;
}

inline const std::vector<std::string>& AllDatasets() {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"Eurostat", "Production", "DBpedia"};
  return *kNames;
}

/// Minimal machine-readable perf snapshot writer: accumulates flat JSON
/// records and writes `{"bench": <name>, "records": [...]}` to a file, so
/// the perf trajectory is diffable across PRs without parsing tables.
class JsonBenchLog {
 public:
  explicit JsonBenchLog(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  class Record {
   public:
    Record& Str(const std::string& key, const std::string& value) {
      Add(key, "\"" + obs::JsonEscape(value) + "\"");
      return *this;
    }
    Record& Num(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", value);
      Add(key, buf);
      return *this;
    }
    Record& Int(const std::string& key, long long value) {
      Add(key, std::to_string(value));
      return *this;
    }
    Record& Bool(const std::string& key, bool value) {
      Add(key, value ? "true" : "false");
      return *this;
    }

   private:
    friend class JsonBenchLog;
    void Add(const std::string& key, const std::string& raw) {
      if (!fields_.empty()) fields_ += ", ";
      fields_ += "\"" + key + "\": " + raw;
    }
    std::string fields_;
  };

  Record& AddRecord() {
    records_.emplace_back();
    return records_.back();
  }

  /// Writes the log to `path`; prints a one-line confirmation. Besides
  /// the records, the file carries a snapshot of the process-wide metrics
  /// registry (counters / gauges / latency histograms) under a "metrics"
  /// key, so every BENCH_*.json records what the run actually did —
  /// existing consumers that only read "bench"/"records" are unaffected.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"bench\": \"" << bench_name_ << "\", \"records\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << "  {" << records_[i].fields_ << "}"
          << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "],\n\"metrics\": " << obs::MetricsRegistry::Global().ToJson()
        << "}\n";
    std::cout << "wrote " << path << " (" << records_.size()
              << " records)\n";
  }

 private:
  std::string bench_name_;
  std::vector<Record> records_;
};

}  // namespace re2xolap::bench

#endif  // RE2XOLAP_BENCH_BENCH_COMMON_H_
