#include "core/exref.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "core/describe.h"
#include "obs/trace.h"
#include "util/string_utils.h"

namespace re2xolap::core {

namespace {

std::string IriLocalName(std::string_view iri) {
  size_t cut = iri.find_last_of("/#");
  return std::string(cut == std::string::npos ? iri : iri.substr(cut + 1));
}

std::string PathDescription(const rdf::TripleStore& store,
                            const LevelPath& path) {
  return DescribePath(store, path);
}

/// True when `candidate` strictly extends `present` (same prefix, longer):
/// adding it would aggregate the present level upward instead of
/// disaggregating.
bool ExtendsUpward(const LevelPath& present, const LevelPath& candidate) {
  if (candidate.predicates.size() <= present.predicates.size()) return false;
  return std::equal(present.predicates.begin(), present.predicates.end(),
                    candidate.predicates.begin());
}

bool SamePath(const LevelPath& a, const LevelPath& b) {
  return a.predicates == b.predicates;
}

}  // namespace

ExploreState InitialState(const CandidateQuery& candidate) {
  ExploreState st;
  st.query = candidate.query;
  st.example = candidate.interpretations;
  st.extra_examples = candidate.extra_rows;
  st.example_columns = candidate.group_columns;
  st.measure_columns = candidate.measure_columns;
  for (const Interpretation& in : candidate.interpretations) {
    st.paths.push_back(in.path);
  }
  st.description = candidate.description;
  st.trail = {"ReOLAP"};
  // Count existing internal variables so fresh names never clash.
  st.fresh_vars = 1000;
  return st;
}

std::vector<size_t> ExampleRowIndexes(const ExploreState& state,
                                      const sparql::ResultTable& results) {
  std::vector<size_t> out;
  std::vector<int> cols;
  cols.reserve(state.example_columns.size());
  for (const std::string& c : state.example_columns) {
    cols.push_back(results.ColumnIndex(c));
  }
  auto row_matches = [&](size_t r, const std::vector<Interpretation>& row) {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] < 0) return false;
      const sparql::Cell cell = results.at(r, cols[i]);
      if (!cell.is_term() || cell.term != row[i].member) return false;
    }
    return true;
  };
  for (size_t r = 0; r < results.row_count(); ++r) {
    bool match = row_matches(r, state.example);
    for (size_t e = 0; !match && e < state.extra_examples.size(); ++e) {
      match = row_matches(r, state.extra_examples[e]);
    }
    if (match) out.push_back(r);
  }
  return out;
}

// --- Disaggregate ------------------------------------------------------------

namespace {

/// Builds the one refined state Disaggregate derives for `candidate`.
ExploreState DisaggregateOne(const rdf::TripleStore& store,
                             const ExploreState& state,
                             const LevelPath& candidate) {
  ExploreState next = state;
  std::string var =
      "d" + std::to_string(next.extra_columns.size()) + "_" +
      IriLocalName(store.term(candidate.predicates.front()).value);
  if (candidate.predicates.size() > 1) {
    var += "_" + IriLocalName(store.term(candidate.predicates.back()).value);
  }
  sparql::TermOrVar current = sparql::Variable{"obs"};
  for (size_t s = 0; s < candidate.predicates.size(); ++s) {
    sparql::TermOrVar nxt =
        (s + 1 == candidate.predicates.size())
            ? sparql::TermOrVar(sparql::Variable{var})
            : sparql::TermOrVar(
                  sparql::Variable{"h" + std::to_string(next.fresh_vars++)});
    next.query.patterns.push_back(sparql::TriplePatternAst{
        current, store.term(candidate.predicates[s]).ToTerm(), nxt});
    current = nxt;
  }
  next.query.group_by.push_back(sparql::Variable{var});
  sparql::SelectItem item;
  item.var = sparql::Variable{var};
  // Insert the new group column before the aggregate columns, keeping
  // the conventional dims-then-measures order.
  size_t insert_at = 0;
  while (insert_at < next.query.items.size() &&
         !next.query.items[insert_at].is_aggregate) {
    ++insert_at;
  }
  next.query.items.insert(
      next.query.items.begin() + static_cast<long>(insert_at), item);
  next.extra_columns.push_back(var);
  next.paths.push_back(&candidate);
  std::string what = PathDescription(store, candidate);
  next.description = "Disaggregate by \"" + what + "\"";
  next.trail.push_back("Disaggregate(" + what + ")");
  return next;
}

}  // namespace

std::vector<ExploreState> Disaggregate(const VirtualSchemaGraph& vsg,
                                       const rdf::TripleStore& store,
                                       const ExploreState& state,
                                       util::ThreadPool* pool) {
  obs::Span span("exref.disaggregate");
  // Filter the valid candidate paths first (cheap pointer checks), then
  // derive the refined states — each from `state` alone, so the per-path
  // constructions are independent and land in order-preserving slots.
  std::vector<const LevelPath*> valid;
  for (const LevelPath& candidate : vsg.level_paths()) {
    bool invalid = false;
    for (const LevelPath* present : state.paths) {
      if (SamePath(*present, candidate) ||
          ExtendsUpward(*present, candidate)) {
        invalid = true;
        break;
      }
    }
    if (!invalid) valid.push_back(&candidate);
  }
  std::vector<ExploreState> out(valid.size());
  auto build_one = [&](size_t i) {
    out[i] = DisaggregateOne(store, state, *valid[i]);
  };
  if (pool != nullptr && valid.size() > 1) {
    pool->ParallelFor(valid.size(), build_one);
  } else {
    for (size_t i = 0; i < valid.size(); ++i) build_one(i);
  }
  return out;
}

namespace {

/// Folds the per-index skip markers into a Degradation report — called
/// once on the calling thread after the fan-out, so it is race-free.
void ReportSkipped(const std::vector<uint8_t>& skipped, size_t n_states,
                   util::Degradation* degradation) {
  if (degradation == nullptr) return;
  size_t n_skipped = 0;
  for (uint8_t s : skipped) n_skipped += s;
  if (n_skipped == 0) return;
  degradation->truncated = true;
  degradation->degraded_reason =
      std::to_string(n_skipped) + " of " + std::to_string(n_states) +
      " preview evaluations skipped: deadline/budget exhausted";
}

}  // namespace

std::vector<util::Result<engine::TableHandle>> EvaluateStates(
    engine::QueryEngine& engine, const std::vector<ExploreState>& states,
    const sparql::ExecOptions& exec, util::ThreadPool* pool,
    std::vector<sparql::ExecStats>* stats, const util::ExecGuard* guard,
    util::Degradation* degradation) {
  obs::Span span("exref.evaluate_states");
  span.SetAttr("states", static_cast<uint64_t>(states.size()));
  std::vector<util::Result<engine::TableHandle>> out;
  out.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    out.emplace_back(util::Status::Internal("not evaluated"));
  }
  if (stats != nullptr) stats->assign(states.size(), sparql::ExecStats{});
  std::vector<uint8_t> skipped(states.size(), 0);
  auto eval_one = [&](size_t i) {
    // Min-progress: state 0 always runs, so even an expired deadline
    // yields one real preview; later states degrade to skipped slots.
    if (guard != nullptr && i > 0) {
      util::Status g = guard->Check();
      if (!g.ok()) {
        skipped[i] = 1;
        out[i] = std::move(g);
        return;
      }
    }
    out[i] = engine.Execute(states[i].query, exec,
                            stats != nullptr ? &(*stats)[i] : nullptr);
  };
  if (pool != nullptr && states.size() > 1) {
    pool->ParallelFor(states.size(), eval_one);
  } else {
    for (size_t i = 0; i < states.size(); ++i) eval_one(i);
  }
  ReportSkipped(skipped, states.size(), degradation);
  return out;
}

// --- Subset: Top-K -------------------------------------------------------------

util::Result<std::vector<ExploreState>> SubsetTopK(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results) {
  (void)store;
  std::vector<ExploreState> out;
  std::vector<size_t> example_rows = ExampleRowIndexes(state, results);
  if (example_rows.empty()) {
    return out;  // nothing anchors the cut; no refinements
  }
  std::set<size_t> example_set(example_rows.begin(), example_rows.end());

  for (const std::string& mc : state.measure_columns) {
    int col = results.ColumnIndex(mc);
    if (col < 0) continue;
    const std::vector<double> values = results.NumericColumn(col);
    std::vector<size_t> order(results.row_count());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return values[a] > values[b];
    });

    for (bool descending : {true, false}) {
      const std::vector<size_t>& seq = order;
      auto row_at = [&](size_t i) {
        return descending ? seq[i] : seq[seq.size() - 1 - i];
      };
      // Find the first position where an example row is followed by a
      // non-example row (paper Section 6.2). A cut between tied measure
      // values cannot be expressed as a HAVING threshold (it would keep
      // both sides), so such positions are skipped.
      size_t cut = results.row_count();  // exclusive prefix length
      for (size_t i = 0; i + 1 < results.row_count(); ++i) {
        if (example_set.count(row_at(i)) &&
            !example_set.count(row_at(i + 1)) &&
            values[row_at(i)] != values[row_at(i + 1)]) {
          cut = i + 1;
          break;
        }
      }
      if (cut >= results.row_count()) continue;  // no strict subset
      double threshold = values[row_at(cut - 1)];
      ExploreState next = state;
      sparql::CompareOp op =
          descending ? sparql::CompareOp::kGe : sparql::CompareOp::kLe;
      next.query.having.push_back(sparql::Expr::Compare(
          op, sparql::Expr::Var(mc),
          sparql::Expr::Constant(rdf::Term::DoubleLiteral(threshold))));
      std::string what = "top-" + std::to_string(cut) + " by " + mc + " (" +
                         (descending ? "descending" : "ascending") + ")";
      next.description = "Keep only the " + what;
      next.trail.push_back("TopK(" + what + ")");
      out.push_back(std::move(next));
    }
  }
  return out;
}

// --- Subset: Percentile ----------------------------------------------------------

util::Result<std::vector<ExploreState>> SubsetPercentile(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results, const PercentileOptions& options) {
  (void)store;
  std::vector<ExploreState> out;
  std::vector<size_t> example_rows = ExampleRowIndexes(state, results);
  if (example_rows.empty() || results.row_count() < 2) return out;

  for (const std::string& mc : state.measure_columns) {
    int col = results.ColumnIndex(mc);
    if (col < 0) continue;
    std::vector<double> values = results.NumericColumn(col);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    // Band boundaries (fractions -> values).
    std::vector<std::pair<double, double>> fractions;
    double prev = 0.0;
    for (double c : options.cut_points) {
      fractions.emplace_back(prev, c);
      prev = c;
    }
    fractions.emplace_back(prev, 1.0);
    auto value_at = [&](double frac) {
      size_t idx = static_cast<size_t>(frac * static_cast<double>(sorted.size()));
      if (idx >= sorted.size()) idx = sorted.size() - 1;
      return sorted[idx];
    };
    for (auto [flo, fhi] : fractions) {
      double lo = value_at(flo);
      double hi = value_at(fhi);
      if (fhi >= 1.0) hi = sorted.back();
      // Does an example tuple fall inside [lo, hi]?
      bool anchored = false;
      for (size_t r : example_rows) {
        if (values[r] >= lo && values[r] <= hi) {
          anchored = true;
          break;
        }
      }
      if (!anchored) continue;
      // Strict subset check.
      size_t inside = 0;
      for (double v : values) inside += (v >= lo && v <= hi) ? 1 : 0;
      if (inside == values.size() || inside == 0) continue;

      ExploreState next = state;
      next.query.having.push_back(sparql::Expr::And(
          sparql::Expr::Compare(
              sparql::CompareOp::kGe, sparql::Expr::Var(mc),
              sparql::Expr::Constant(rdf::Term::DoubleLiteral(lo))),
          sparql::Expr::Compare(
              sparql::CompareOp::kLe, sparql::Expr::Var(mc),
              sparql::Expr::Constant(rdf::Term::DoubleLiteral(hi)))));
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%d-%dth percentile",
                    static_cast<int>(flo * 100), static_cast<int>(fhi * 100));
      next.description = "Keep tuples whose " + mc + " lies in the " +
                         std::string(buf) + " (" + util::FormatDouble(lo) +
                         " to " + util::FormatDouble(hi) + ")";
      next.trail.push_back("Percentile(" + mc + " " + buf + ")");
      out.push_back(std::move(next));
    }
  }
  return out;
}

// --- Similarity Search ------------------------------------------------------------

util::Result<std::vector<ExploreState>> SimilaritySearch(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results, const SimilarityOptions& options) {
  std::vector<ExploreState> out;
  if (state.example_columns.empty()) return out;

  std::vector<int> item_cols;
  for (const std::string& c : state.example_columns) {
    int idx = results.ColumnIndex(c);
    if (idx < 0) {
      return util::Status::Internal("example column " + c +
                                    " missing from results");
    }
    item_cols.push_back(idx);
  }
  std::vector<int> feature_cols;
  for (const std::string& c : state.extra_columns) {
    int idx = results.ColumnIndex(c);
    if (idx >= 0) feature_cols.push_back(idx);
  }

  using Key = std::vector<rdf::TermId>;
  Key example_key;
  for (const Interpretation& in : state.example) {
    example_key.push_back(in.member);
  }

  // Pick the "sum" measure columns (one per measure) as similarity targets;
  // fall back to all measure columns when none is a sum.
  std::vector<std::string> targets;
  for (const std::string& mc : state.measure_columns) {
    if (mc.rfind("sum_", 0) == 0) targets.push_back(mc);
  }
  if (targets.empty()) targets = state.measure_columns;

  for (const std::string& mc : targets) {
    int mcol = results.ColumnIndex(mc);
    if (mcol < 0) continue;

    // item key -> (feature key -> measure value)
    std::map<Key, std::map<Key, double>> vectors;
    for (size_t r = 0; r < results.row_count(); ++r) {
      Key item;
      bool ok = true;
      for (int c : item_cols) {
        const sparql::Cell cell = results.at(r, c);
        if (!cell.is_term()) {
          ok = false;
          break;
        }
        item.push_back(cell.term);
      }
      if (!ok) continue;
      Key feat;
      for (int c : feature_cols) {
        const sparql::Cell cell = results.at(r, c);
        feat.push_back(cell.is_term() ? cell.term : rdf::kInvalidTermId);
      }
      vectors[item][feat] += results.NumericValue(results.at(r, mcol));
    }
    auto example_it = vectors.find(example_key);
    if (example_it == vectors.end()) continue;  // example not in results
    const std::map<Key, double>& ev = example_it->second;

    // Similarity over the sparse feature maps (absent features are 0).
    auto sigma = [&options](const std::map<Key, double>& a,
                            const std::map<Key, double>& b) {
      switch (options.measure) {
        case SimilarityMeasure::kCosine: {
          double dot = 0, na = 0, nb = 0;
          for (const auto& [k, v] : a) {
            na += v * v;
            auto it = b.find(k);
            if (it != b.end()) dot += v * it->second;
          }
          for (const auto& [k, v] : b) nb += v * v;
          if (na == 0 || nb == 0) return 0.0;
          return dot / (std::sqrt(na) * std::sqrt(nb));
        }
        case SimilarityMeasure::kEuclidean: {
          double d2 = 0;
          for (const auto& [k, v] : a) {
            auto it = b.find(k);
            double diff = v - (it == b.end() ? 0.0 : it->second);
            d2 += diff * diff;
          }
          for (const auto& [k, v] : b) {
            if (!a.count(k)) d2 += v * v;
          }
          return -std::sqrt(d2);
        }
        case SimilarityMeasure::kPearson: {
          // Union of feature keys; correlation of the two value vectors.
          std::set<Key> keys;
          for (const auto& [k, v] : a) keys.insert(k);
          for (const auto& [k, v] : b) keys.insert(k);
          const double n = static_cast<double>(keys.size());
          if (n < 2) return 0.0;
          double sa = 0, sb = 0;
          for (const Key& k : keys) {
            auto ia = a.find(k);
            auto ib = b.find(k);
            sa += ia == a.end() ? 0.0 : ia->second;
            sb += ib == b.end() ? 0.0 : ib->second;
          }
          double ma = sa / n, mb = sb / n;
          double cov = 0, va = 0, vb = 0;
          for (const Key& k : keys) {
            auto ia = a.find(k);
            auto ib = b.find(k);
            double da = (ia == a.end() ? 0.0 : ia->second) - ma;
            double db = (ib == b.end() ? 0.0 : ib->second) - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
          }
          if (va == 0 || vb == 0) return 0.0;
          return cov / (std::sqrt(va) * std::sqrt(vb));
        }
      }
      return 0.0;
    };
    // With no extra dimensions every vector has one feature; cosine would
    // be constant 1, so fall back to measure-value closeness.
    const bool degenerate = feature_cols.empty();
    double ev_value = degenerate && !ev.empty() ? ev.begin()->second : 0.0;

    std::vector<std::pair<double, const Key*>> scored;
    for (const auto& [item, vec] : vectors) {
      if (item == example_key) continue;
      double score =
          degenerate
              ? -std::fabs((vec.empty() ? 0.0 : vec.begin()->second) - ev_value)
              : sigma(ev, vec);
      scored.emplace_back(score, &item);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    if (scored.size() > options.k) scored.resize(options.k);
    if (scored.empty()) continue;

    // Refined query: restrict the example dimensions to the example plus
    // the selected combinations (an OR of per-dimension equalities).
    ExploreState next = state;
    sparql::ExprPtr disjunction;
    auto combo_expr = [&](const Key& key) {
      sparql::ExprPtr conj;
      for (size_t i = 0; i < key.size(); ++i) {
        sparql::ExprPtr eq = sparql::Expr::Compare(
            sparql::CompareOp::kEq,
            sparql::Expr::Var(state.example_columns[i]),
            sparql::Expr::Constant(store.term(key[i]).ToTerm()));
        conj = conj ? sparql::Expr::And(std::move(conj), std::move(eq))
                    : std::move(eq);
      }
      return conj;
    };
    disjunction = combo_expr(example_key);
    std::string names;
    for (const auto& [score, key] : scored) {
      disjunction =
          sparql::Expr::Or(std::move(disjunction), combo_expr(*key));
      if (!names.empty()) names += ", ";
      // Describe using the first dimension's member label-ish rendering.
      names += store.term((*key)[0]).value;
    }
    next.query.filters.push_back(std::move(disjunction));
    next.description = "Keep the " + std::to_string(scored.size()) +
                       " combinations most similar to the example on " + mc;
    next.trail.push_back("Similarity(" + mc + ", k=" +
                         std::to_string(scored.size()) + ")");
    out.push_back(std::move(next));
  }
  return out;
}

// --- Roll-up and Slice (classic OLAP counterparts, Section 4.2) ----------------

namespace {

/// Removes a group-by variable and its select item from `query`.
/// (The BGP patterns that bound the variable are left in place; they only
/// constrain observations to ones that have the dimension, which every
/// well-formed observation does.)
void DropGroupColumn(sparql::SelectQuery* query, const std::string& var) {
  auto& gb = query->group_by;
  gb.erase(std::remove_if(gb.begin(), gb.end(),
                          [&](const sparql::Variable& v) {
                            return v.name == var;
                          }),
           gb.end());
  auto& items = query->items;
  items.erase(std::remove_if(items.begin(), items.end(),
                             [&](const sparql::SelectItem& it) {
                               return !it.is_aggregate && it.var.name == var;
                             }),
              items.end());
}

}  // namespace

std::vector<ExploreState> RollUp(const VirtualSchemaGraph& vsg,
                                 const rdf::TripleStore& store,
                                 const ExploreState& state) {
  std::vector<ExploreState> out;
  const size_t n_example = state.example_columns.size();
  for (size_t i = 0; i < state.extra_columns.size(); ++i) {
    const std::string& column = state.extra_columns[i];
    const LevelPath* path = state.paths[n_example + i];

    // (a) Remove the dimension entirely.
    {
      ExploreState next = state;
      DropGroupColumn(&next.query, column);
      next.extra_columns.erase(next.extra_columns.begin() +
                               static_cast<long>(i));
      next.paths.erase(next.paths.begin() +
                       static_cast<long>(n_example + i));
      std::string what = DescribePath(store, *path);
      next.description = "Roll up: remove \"" + what + "\"";
      next.trail.push_back("RollUp(remove " + what + ")");
      out.push_back(std::move(next));
    }

    // (b) Re-aggregate at every coarser level (paths extending this one).
    for (const LevelPath& coarser : vsg.level_paths()) {
      if (!ExtendsUpward(*path, coarser)) continue;
      bool already_present = false;
      for (const LevelPath* p : state.paths) {
        if (SamePath(*p, coarser)) {
          already_present = true;
          break;
        }
      }
      if (already_present) continue;
      // Replace: drop the fine column, add the coarse path like
      // Disaggregate does.
      ExploreState next = state;
      DropGroupColumn(&next.query, column);
      next.extra_columns.erase(next.extra_columns.begin() +
                               static_cast<long>(i));
      next.paths.erase(next.paths.begin() +
                       static_cast<long>(n_example + i));
      std::string var =
          "r" + std::to_string(next.fresh_vars++) + "_" +
          IriLocalName(store.term(coarser.predicates.back()).value);
      sparql::TermOrVar current = sparql::Variable{"obs"};
      for (size_t s = 0; s < coarser.predicates.size(); ++s) {
        sparql::TermOrVar nxt =
            (s + 1 == coarser.predicates.size())
                ? sparql::TermOrVar(sparql::Variable{var})
                : sparql::TermOrVar(sparql::Variable{
                      "h" + std::to_string(next.fresh_vars++)});
        next.query.patterns.push_back(sparql::TriplePatternAst{
            current, store.term(coarser.predicates[s]).ToTerm(), nxt});
        current = nxt;
      }
      next.query.group_by.push_back(sparql::Variable{var});
      sparql::SelectItem item;
      item.var = sparql::Variable{var};
      size_t insert_at = 0;
      while (insert_at < next.query.items.size() &&
             !next.query.items[insert_at].is_aggregate) {
        ++insert_at;
      }
      next.query.items.insert(
          next.query.items.begin() + static_cast<long>(insert_at), item);
      next.extra_columns.push_back(var);
      next.paths.push_back(&coarser);
      std::string from = DescribePath(store, *path);
      std::string to = DescribePath(store, coarser);
      next.description = "Roll up \"" + from + "\" to \"" + to + "\"";
      next.trail.push_back("RollUp(" + from + " -> " + to + ")");
      out.push_back(std::move(next));
    }
  }
  return out;
}

util::Result<ExploreState> SliceToExample(const rdf::TripleStore& store,
                                          const ExploreState& state,
                                          size_t example_index) {
  if (example_index >= state.example_columns.size()) {
    return util::Status::InvalidArgument("example index out of range");
  }
  if (state.example_columns.size() <= 1) {
    return util::Status::InvalidArgument(
        "cannot slice away the only example dimension");
  }
  ExploreState next = state;
  const std::string column = state.example_columns[example_index];
  rdf::TermId member = state.example[example_index].member;

  // Pin the variable to the example member(s) — all example rows' values
  // at this column — and drop it from the output.
  std::vector<rdf::Term> members = {store.term(member).ToTerm()};
  for (const auto& row : state.extra_examples) {
    const rdf::TermView t = store.term(row[example_index].member);
    if (std::find(members.begin(), members.end(), t) == members.end()) {
      members.push_back(t.ToTerm());
    }
  }
  if (members.size() == 1) {
    next.query.filters.push_back(sparql::Expr::Compare(
        sparql::CompareOp::kEq, sparql::Expr::Var(column),
        sparql::Expr::Constant(members[0])));
  } else {
    next.query.filters.push_back(
        sparql::Expr::In(column, std::move(members)));
  }
  DropGroupColumn(&next.query, column);
  next.example_columns.erase(next.example_columns.begin() +
                             static_cast<long>(example_index));
  next.example.erase(next.example.begin() +
                     static_cast<long>(example_index));
  for (auto& row : next.extra_examples) {
    row.erase(row.begin() + static_cast<long>(example_index));
  }
  next.paths.erase(next.paths.begin() + static_cast<long>(example_index));
  std::string name = DisplayName(store, member);
  next.description = "Slice: fix " + column + " to \"" + name + "\"";
  next.trail.push_back("Slice(" + name + ")");
  return next;
}

// --- Clustering-based subset (user-study prototype feature) -------------------

util::Result<std::vector<ExploreState>> SubsetCluster(
    const rdf::TripleStore& store, const ExploreState& state,
    const sparql::ResultTable& results, const ClusterOptions& options) {
  (void)store;
  std::vector<ExploreState> out;
  if (options.k < 2 || results.row_count() < options.k) return out;
  std::vector<size_t> example_rows = ExampleRowIndexes(state, results);
  if (example_rows.empty()) return out;

  for (const std::string& mc : state.measure_columns) {
    int col = results.ColumnIndex(mc);
    if (col < 0) continue;
    std::vector<double> values = results.NumericColumn(col);
    // 1-D k-means seeded by quantiles of the sorted values.
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> centers(options.k);
    for (size_t c = 0; c < options.k; ++c) {
      centers[c] = sorted[(2 * c + 1) * sorted.size() / (2 * options.k)];
    }
    std::vector<size_t> assign(values.size(), 0);
    for (size_t iter = 0; iter < options.max_iters; ++iter) {
      bool changed = false;
      for (size_t i = 0; i < values.size(); ++i) {
        size_t best = 0;
        double best_d = std::fabs(values[i] - centers[0]);
        for (size_t c = 1; c < options.k; ++c) {
          double d = std::fabs(values[i] - centers[c]);
          if (d < best_d) {
            best_d = d;
            best = c;
          }
        }
        if (assign[i] != best) {
          assign[i] = best;
          changed = true;
        }
      }
      for (size_t c = 0; c < options.k; ++c) {
        double sum = 0;
        size_t n = 0;
        for (size_t i = 0; i < values.size(); ++i) {
          if (assign[i] == c) {
            sum += values[i];
            ++n;
          }
        }
        if (n > 0) centers[c] = sum / static_cast<double>(n);
      }
      if (!changed) break;
    }
    // The cluster holding the first example row anchors the refinement.
    size_t cluster = assign[example_rows[0]];
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    size_t inside = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (assign[i] == cluster) {
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
        ++inside;
      }
    }
    // Ensure a strict subset expressible as a value range: members of
    // other clusters must not fall inside [lo, hi] (1-D k-means yields
    // contiguous clusters, so this holds by construction).
    if (inside == 0 || inside == values.size()) continue;

    ExploreState next = state;
    next.query.having.push_back(sparql::Expr::And(
        sparql::Expr::Compare(
            sparql::CompareOp::kGe, sparql::Expr::Var(mc),
            sparql::Expr::Constant(rdf::Term::DoubleLiteral(lo))),
        sparql::Expr::Compare(
            sparql::CompareOp::kLe, sparql::Expr::Var(mc),
            sparql::Expr::Constant(rdf::Term::DoubleLiteral(hi)))));
    next.description = "Keep the value cluster around the example on " + mc +
                       " (" + util::FormatDouble(lo) + " to " +
                       util::FormatDouble(hi) + ", " +
                       std::to_string(inside) + " tuples)";
    next.trail.push_back("Cluster(" + mc + ")");
    out.push_back(std::move(next));
  }
  return out;
}

// --- Negative examples (Section 8 future work) ----------------------------------

util::Result<NegativeResult> ExcludeNegativeExamples(
    const Reolap& reolap, const ExploreState& state,
    const std::vector<std::string>& negative_values) {
  if (negative_values.empty()) {
    return util::Status::InvalidArgument("no negative examples given");
  }
  const rdf::TripleStore& store = reolap.store();
  NegativeResult result;
  result.state = state;

  // Columns and their level nodes currently in the query (example columns
  // first, then disaggregated extras), aligned with state.paths.
  std::vector<std::string> columns = state.example_columns;
  columns.insert(columns.end(), state.extra_columns.begin(),
                 state.extra_columns.end());

  // Per column: negative members to exclude.
  std::map<std::string, std::vector<rdf::Term>> exclusions;
  for (const std::string& value : negative_values) {
    std::vector<Interpretation> interps = reolap.MatchValue(value);
    bool matched = false;
    for (const Interpretation& in : interps) {
      for (size_t i = 0; i < state.paths.size() && i < columns.size(); ++i) {
        if (state.paths[i] == in.path) {
          exclusions[columns[i]].push_back(store.term(in.member).ToTerm());
          matched = true;
        }
      }
    }
    if (!matched) result.unmatched_values.push_back(value);
  }
  if (exclusions.empty()) {
    return util::Status::NotFound(
        "no negative example matches a dimension level of the query");
  }
  std::string excluded_desc;
  for (auto& [column, terms] : exclusions) {
    result.state.query.filters.push_back(sparql::Expr::Not(
        sparql::Expr::In(column, std::move(terms))));
    if (!excluded_desc.empty()) excluded_desc += ", ";
    excluded_desc += column;
  }
  result.state.description =
      "Exclude the negative examples on " + excluded_desc;
  result.state.trail.push_back("ExcludeNegative(" + excluded_desc + ")");
  return result;
}

// --- Contrast queries (Section 8 future work) ------------------------------------

util::Result<ExploreState> ContrastWith(
    const Reolap& reolap, const ExploreState& state,
    const std::vector<std::string>& other_values) {
  const rdf::TripleStore& store = reolap.store();
  if (other_values.size() != state.example.size()) {
    return util::Status::InvalidArgument(
        "the contrast set must have one value per example dimension");
  }
  // Map each value onto the corresponding example column's level path.
  std::vector<Interpretation> other(state.example.size());
  for (size_t i = 0; i < other_values.size(); ++i) {
    bool found = false;
    for (const Interpretation& in : reolap.MatchValue(other_values[i])) {
      if (in.path == state.example[i].path) {
        other[i] = in;
        found = true;
        break;
      }
    }
    if (!found) {
      return util::Status::NotFound(
          "\"" + other_values[i] + "\" has no member at the level of " +
          state.example_columns[i]);
    }
  }
  if (!reolap.ValidateCombo(other, 10000)) {
    return util::Status::NotFound(
        "no observation matches the contrast combination");
  }

  ExploreState next = state;
  // Restrict the example dimensions to the two combinations.
  auto combo_expr = [&](const std::vector<Interpretation>& row) {
    sparql::ExprPtr conj;
    for (size_t i = 0; i < row.size(); ++i) {
      sparql::ExprPtr eq = sparql::Expr::Compare(
          sparql::CompareOp::kEq,
          sparql::Expr::Var(state.example_columns[i]),
          sparql::Expr::Constant(store.term(row[i].member).ToTerm()));
      conj = conj ? sparql::Expr::And(std::move(conj), std::move(eq))
                  : std::move(eq);
    }
    return conj;
  };
  next.query.filters.push_back(
      sparql::Expr::Or(combo_expr(state.example), combo_expr(other)));
  next.extra_examples.push_back(other);
  std::string a = DisplayName(store, state.example[0].member);
  std::string b = DisplayName(store, other[0].member);
  next.description = "Contrast \"" + a + "\" against \"" + b + "\"";
  next.trail.push_back("Contrast(" + a + " vs " + b + ")");
  return next;
}

ContrastReport BuildContrastReport(const ExploreState& state,
                                   const sparql::ResultTable& results) {
  ContrastReport report;
  report.measure_columns = state.measure_columns;
  report.primary.assign(state.measure_columns.size(), 0.0);
  report.others.assign(state.extra_examples.size(),
                       std::vector<double>(state.measure_columns.size(), 0.0));

  std::vector<int> example_cols;
  for (const std::string& c : state.example_columns) {
    example_cols.push_back(results.ColumnIndex(c));
  }
  std::vector<int> measure_cols;
  for (const std::string& c : state.measure_columns) {
    measure_cols.push_back(results.ColumnIndex(c));
  }
  auto row_matches = [&](size_t r, const std::vector<Interpretation>& row) {
    for (size_t i = 0; i < example_cols.size(); ++i) {
      if (example_cols[i] < 0) return false;
      const sparql::Cell cell = results.at(r, example_cols[i]);
      if (!cell.is_term() || cell.term != row[i].member) return false;
    }
    return true;
  };
  for (size_t r = 0; r < results.row_count(); ++r) {
    std::vector<double>* target = nullptr;
    if (row_matches(r, state.example)) {
      target = &report.primary;
    } else {
      for (size_t e = 0; e < state.extra_examples.size(); ++e) {
        if (row_matches(r, state.extra_examples[e])) {
          target = &report.others[e];
          break;
        }
      }
    }
    if (!target) continue;
    for (size_t m = 0; m < measure_cols.size(); ++m) {
      if (measure_cols[m] >= 0) {
        (*target)[m] += results.NumericValue(results.at(r, measure_cols[m]));
      }
    }
  }
  return report;
}

}  // namespace re2xolap::core
