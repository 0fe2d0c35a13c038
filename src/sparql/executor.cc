// Orchestration of the execute step for one planned query. The
// heavy lifting lives in dedicated translation units: filter evaluation
// in ebv.cc, the join in vectorized_runner.cc, aggregation
// and the post-join operator pipeline in post_ops.cc. This file only
// sequences them and assembles the profile tree.
#include "sparql/executor.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparql/post_ops.h"
#include "sparql/vectorized_runner.h"
#include "util/timer.h"

namespace re2xolap::sparql {

namespace {

util::Result<ResultTable> ExecutePlanImpl(const rdf::TripleStore& store,
                                          const SelectQuery& query,
                                          const Plan& plan,
                                          const ExecOptions& options,
                                          ExecStats* stats);

/// ASK: rewrite into an early-exiting LIMIT-1 existence probe and wrap
/// the answer as a one-cell boolean table (column "ask", 1 or 0). The
/// probe is the one execution that counts and traces the ASK.
util::Result<ResultTable> ExecuteAsk(const rdf::TripleStore& store,
                                     const SelectQuery& query,
                                     const ExecOptions& options,
                                     ExecStats* stats) {
  util::WallTimer total_timer;
  SelectQuery probe = query;
  probe.is_ask = false;
  probe.distinct = false;
  probe.select_all = false;
  probe.items.clear();
  probe.group_by.clear();
  probe.having.clear();
  probe.order_by.clear();
  probe.limit = 1;
  probe.offset = 0;
  // Project the first variable mentioned in the BGP; a fully constant
  // BGP degenerates to counting matches.
  for (const TriplePatternAst& tp : query.patterns) {
    for (const TermOrVar* pos : {&tp.s, &tp.p, &tp.o}) {
      if (IsVar(*pos)) {
        SelectItem item;
        item.var = AsVar(*pos);
        probe.items.push_back(std::move(item));
        break;
      }
    }
    if (!probe.items.empty()) break;
  }
  if (probe.items.empty()) {
    SelectItem item;
    item.is_aggregate = true;
    item.func = AggFunc::kCount;
    item.count_star = true;
    item.alias = "n";
    probe.items.push_back(std::move(item));
    probe.limit.reset();
  }
  util::WallTimer plan_timer;
  RE2X_ASSIGN_OR_RETURN(Plan plan, PlanQuery(store, probe, options.plan));
  if (stats) stats->plan_millis = plan_timer.ElapsedMillis();
  RE2X_ASSIGN_OR_RETURN(ResultTable sub,
                        ExecutePlanImpl(store, probe, plan, options, stats));
  bool answer = false;
  if (sub.row_count() > 0) {
    answer =
        sub.columns()[0] == "n" ? sub.NumericValue(sub.at(0, 0)) > 0 : true;
  }
  ResultTable out(&store, {"ask"});
  out.AppendRow({Cell::OfNumber(answer ? 1.0 : 0.0)});
  if (stats) {
    // Wrap the probe's operator tree under an "ask" root.
    const double ask_millis = total_timer.ElapsedMillis();
    obs::ProfileNode root("ask");
    root.rows_out = 1;
    root.millis = ask_millis;
    root.timed = true;
    root.children.push_back(std::move(stats->profile));
    stats->profile = std::move(root);
    stats->exec_millis = ask_millis;
  }
  return out;
}

/// Derives the effective projection list: SELECT * expansion (all user
/// variables, ordered by slot) and aggregation validity checks.
util::Status DeriveItems(const SelectQuery& query, const Plan& plan,
                         bool aggregating, std::vector<SelectItem>* items) {
  if (query.select_all) {
    if (aggregating) {
      return util::Status::InvalidArgument(
          "SELECT * cannot be combined with aggregation");
    }
    // All user variables (skip internal `__` path vars), ordered by slot.
    std::vector<std::pair<int, std::string>> vars;
    for (const auto& [name, slot] : plan.var_slots) {
      if (name.rfind("__", 0) == 0) continue;
      vars.emplace_back(slot, name);
    }
    std::sort(vars.begin(), vars.end());
    items->clear();
    for (auto& [slot, name] : vars) {
      SelectItem it;
      it.var = Variable{name};
      items->push_back(std::move(it));
    }
  }
  if (items->empty()) {
    return util::Status::InvalidArgument("query projects no columns");
  }
  if (aggregating) {
    for (const SelectItem& it : *items) {
      if (it.is_aggregate) continue;
      bool in_group = false;
      for (const Variable& g : query.group_by) {
        if (g.name == it.var.name) {
          in_group = true;
          break;
        }
      }
      if (!in_group) {
        return util::Status::InvalidArgument(
            "projected variable ?" + it.var.name +
            " must appear in GROUP BY when aggregating");
      }
    }
  }
  return util::Status::OK();
}

/// Assembles the per-operator profile tree for one run. The join renders
/// as a chain: each mandatory step nests under the previous one, then the
/// OPTIONAL blocks, innermost last — mirroring the pipeline order at
/// execution time.
void BuildProfileTree(const rdf::TripleStore& store, const SelectQuery& query,
                      const Plan& plan, const VectorizedRunner& runner,
                      bool aggregating, double join_ms, double agg_ms,
                      size_t group_count,
                      const std::vector<PostOpProf>& post_ops,
                      const ResultTable& table, ExecStats* stats) {
  std::vector<std::string> slot_names(plan.slot_count);
  for (const auto& [name, slot] : plan.var_slots) {
    if (slot >= 0 && static_cast<size_t>(slot) < slot_names.size()) {
      slot_names[slot] = name;
    }
  }

  obs::ProfileNode root("select");
  root.rows_out = table.row_count();
  root.millis = stats->exec_millis;
  root.timed = true;
  {
    obs::ProfileNode& pn = root.AddChild("plan");
    pn.millis = stats->plan_millis;
    pn.timed = true;
  }

  obs::ProfileNode join("join (vectorized)");
  join.rows_out = runner.emitted();
  join.millis = join_ms;
  join.timed = true;
  const bool timed_steps = runner.timing();
  obs::ProfileNode* cur = &join;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    obs::ProfileNode& child =
        cur->AddChild(PatternLabel(store, slot_names, plan.steps[i], "scan"));
    const StepProf& sp = runner.step_prof()[i];
    child.rows_in = sp.rows_in;
    child.rows_out = sp.rows_out;
    child.scanned = sp.scanned;
    child.millis = sp.micros / 1000.0;
    child.timed = timed_steps;
    cur = &child;
  }
  for (size_t b = 0; b < plan.optionals.size(); ++b) {
    const PlannedOptional& po = plan.optionals[b];
    std::string label =
        po.steps.empty()
            ? "optional (empty)"
            : PatternLabel(store, slot_names, po.steps[0], "optional");
    if (po.steps.size() > 1) {
      label += " +" + std::to_string(po.steps.size() - 1);
    }
    obs::ProfileNode& child = cur->AddChild(std::move(label));
    const StepProf& op = runner.opt_prof()[b];
    child.rows_in = op.rows_in;
    child.rows_out = op.rows_out;
    child.scanned = op.scanned;
    child.millis = op.micros / 1000.0;
    child.timed = timed_steps;
    cur = &child;
  }
  root.children.push_back(std::move(join));

  if (aggregating) {
    std::string label = "aggregate";
    if (!query.group_by.empty()) {
      label += " (group by";
      for (const Variable& g : query.group_by) label += " ?" + g.name;
      label += ")";
    }
    obs::ProfileNode& agg = root.AddChild(std::move(label));
    agg.rows_in = runner.emitted();
    agg.rows_out = group_count;
    agg.millis = agg_ms;
    agg.timed = true;
  }
  for (const PostOpProf& op : post_ops) {
    obs::ProfileNode& n = root.AddChild(op.label);
    n.rows_in = op.rows_in;
    n.rows_out = op.rows_out;
    n.millis = op.millis;
    n.timed = true;
  }
  stats->profile = std::move(root);
}

util::Result<ResultTable> ExecutePlanImpl(const rdf::TripleStore& store,
                                          const SelectQuery& query,
                                          const Plan& plan,
                                          const ExecOptions& options,
                                          ExecStats* stats) {
  util::WallTimer total_timer;
  obs::Span exec_span("sparql.execute");
  exec_span.SetAttr("patterns", static_cast<uint64_t>(query.patterns.size()));
  static obs::Counter& queries_total =
      obs::MetricsRegistry::Global().GetCounter("sparql.queries");
  static obs::Histogram& exec_hist =
      obs::MetricsRegistry::Global().GetHistogram("sparql.exec.millis");
  queries_total.Inc();

  const bool aggregating = query.has_aggregates() || !query.group_by.empty();
  std::vector<SelectItem> items = query.items;
  RE2X_RETURN_IF_ERROR(DeriveItems(query, plan, aggregating, &items));

  std::vector<std::string> columns;
  columns.reserve(items.size());
  for (const SelectItem& it : items) columns.push_back(it.OutputName());
  ResultTable table(&store, columns);

  if (plan.impossible) {
    if (stats) {
      stats->exec_millis = total_timer.ElapsedMillis();
      obs::ProfileNode root("select");
      root.millis = stats->exec_millis;
      root.timed = true;
      obs::ProfileNode& pn =
          root.AddChild("plan (impossible: constant term absent)");
      pn.millis = stats->plan_millis;
      pn.timed = true;
      stats->profile = std::move(root);
    }
    exec_hist.Observe(total_timer.ElapsedMillis());
    return table;  // provably empty
  }

  // Slots needed for projection.
  std::vector<int> item_slots(items.size(), -1);
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].is_aggregate || !items[i].count_star) {
      item_slots[i] = plan.SlotOf(items[i].var.name);
    }
  }

  VectorizedRunner runner(store, plan, options, stats);

  // Coarse per-operator observations for the profile tree: two clock
  // reads per operator per query, collected whenever a stats sink is
  // present (per-*binding* timing stays behind ExecOptions::profile).
  double join_ms = 0;
  double agg_ms = 0;
  size_t group_count = 0;
  std::vector<PostOpProf> post_ops;

  // The join + post-op pipeline runs inside a lambda so the profile tree
  // below is assembled on success AND error returns alike — a query the
  // guard kills mid-join still surfaces its partial operator tree in the
  // slow-query log.
  auto run = [&]() -> util::Status {
    if (!aggregating) {
      // LIMIT can stop the join early when no later operator needs the
      // full row set (this is what makes ReOLAP's LIMIT-1 validation
      // probes cheap).
      uint64_t row_cap = 0;
      if (query.limit.has_value() && !query.distinct &&
          query.order_by.empty() && query.having.empty()) {
        row_cap = query.offset + *query.limit;
      }
      // Every projected column is a term column: one id per row, so a
      // row appends (and is charged) items.size() ids.
      const uint64_t row_bytes = items.size() * sizeof(rdf::TermId);
      util::WallTimer join_timer;
      util::Status st = runner.Run(
          [&](const std::vector<rdf::TermId>& bindings) {
            for (size_t i = 0; i < items.size(); ++i) {
              const int slot = item_slots[i];
              table.mutable_column(i).AppendTerm(
                  slot >= 0 ? bindings[slot] : rdf::kInvalidTermId);
            }
            if (options.guard != nullptr) {
              options.guard->ChargeBytes(row_bytes);
            }
          },
          row_cap);
      join_ms = join_timer.ElapsedMillis();
      RE2X_RETURN_IF_ERROR(st);
    } else {
      // Group keys = group_by slots (in declared order).
      std::vector<int> group_slots;
      group_slots.reserve(query.group_by.size());
      for (const Variable& g : query.group_by) {
        group_slots.push_back(plan.SlotOf(g.name));
      }
      GroupAggregator agg(store, items, item_slots, std::move(group_slots),
                          options.guard);
      util::WallTimer join_timer;
      util::Status st = runner.Run(
          [&](const std::vector<rdf::TermId>& bindings) {
            agg.Accumulate(bindings);
          },
          /*row_cap=*/0);
      join_ms = join_timer.ElapsedMillis();
      RE2X_RETURN_IF_ERROR(st);

      util::WallTimer agg_timer;
      RE2X_ASSIGN_OR_RETURN(group_count, agg.Emit(query.group_by, &table));
      agg_ms = agg_timer.ElapsedMillis();
    }

    RE2X_RETURN_IF_ERROR(
        ApplyHaving(store, query, &table, &post_ops, options.guard));
    if (query.distinct) {
      RE2X_RETURN_IF_ERROR(
          ApplyDistinct(store, &table, &post_ops, options.guard));
    }
    if (!query.order_by.empty()) {
      RE2X_RETURN_IF_ERROR(
          ApplyOrderBy(store, query, &table, &post_ops, options.guard));
    }
    if (query.offset > 0 || query.limit.has_value()) {
      RE2X_RETURN_IF_ERROR(
          ApplyLimitOffset(query, &table, &post_ops, options.guard));
    }
    return util::Status::OK();
  };

  util::Status run_status = run();
  if (stats) {
    stats->exec_millis = total_timer.ElapsedMillis();
    BuildProfileTree(store, query, plan, runner, aggregating, join_ms, agg_ms,
                     group_count, post_ops, table, stats);
  }
  exec_hist.Observe(total_timer.ElapsedMillis());
  RE2X_RETURN_IF_ERROR(run_status);
  exec_span.SetAttr("rows", static_cast<uint64_t>(table.row_count()));
  return table;
}

}  // namespace

util::Result<ResultTable> Execute(const rdf::TripleStore& store,
                                  const SelectQuery& query, const Plan* plan,
                                  const ExecOptions& options,
                                  ExecStats* stats) {
  if (query.is_ask) return ExecuteAsk(store, query, options, stats);
  return ExecutePlanImpl(store, query, *plan, options, stats);
}

}  // namespace re2xolap::sparql
