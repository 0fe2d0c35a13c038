#include "tests/reference_eval.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rdf/ntriples.h"
#include "sparql/ebv.h"
#include "sparql/parser.h"
#include "tests/uncached_engine.h"

namespace re2xolap::testing {
namespace {

using sparql::Cell;
using sparql::SelectItem;
using sparql::SelectQuery;
using sparql::TriplePatternAst;

/// One solution of the WHERE clause: a term per variable, indexed by the
/// variable's first textual appearance; kInvalidTermId = unbound.
using Solution = std::vector<rdf::TermId>;

/// The WHERE clause's variables, numbered by first textual appearance.
class Vars {
 public:
  void Add(const sparql::TermOrVar& tv) {
    if (!sparql::IsVar(tv)) return;
    const std::string& name = sparql::AsVar(tv).name;
    if (Find(name) < 0) names_.push_back(name);
  }
  int Find(const std::string& name) const {
    auto it = std::find(names_.begin(), names_.end(), name);
    return it == names_.end() ? -1 : static_cast<int>(it - names_.begin());
  }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

Cell CellOf(const Vars& vars, const Solution& row, const std::string& name) {
  const int v = vars.Find(name);
  return v < 0 || row[v] == rdf::kInvalidTermId ? Cell::Null()
                                                 : Cell::OfTerm(row[v]);
}

/// Extends `row` by every match of patterns[i..], one Match() per pattern
/// in textual order, and appends each complete extension to `out`.
void MatchFrom(const rdf::TripleStore& store, const Vars& vars,
               const std::vector<TriplePatternAst>& patterns, size_t i,
               const Solution& row, std::vector<Solution>* out) {
  if (i == patterns.size()) {
    out->push_back(row);
    return;
  }
  const TriplePatternAst& tp = patterns[i];
  const sparql::TermOrVar* pos[3] = {&tp.s, &tp.p, &tp.o};
  rdf::TermId key[3];
  int var[3];
  for (int k = 0; k < 3; ++k) {
    if (sparql::IsVar(*pos[k])) {
      var[k] = vars.Find(sparql::AsVar(*pos[k]).name);
      key[k] = row[var[k]];  // unbound: a wildcard
    } else {
      var[k] = -1;
      key[k] = store.Lookup(sparql::AsTerm(*pos[k]));
      if (key[k] == rdf::kInvalidTermId) return;  // absent term: no match
    }
  }
  for (const rdf::EncodedTriple& t :
       store.Match(rdf::TriplePattern{key[0], key[1], key[2]})) {
    const rdf::TermId value[3] = {t.s, t.p, t.o};
    Solution next = row;
    bool consistent = true;
    for (int k = 0; k < 3 && consistent; ++k) {
      if (var[k] < 0) {
        consistent = value[k] == key[k];
      } else if (next[var[k]] == rdf::kInvalidTermId) {
        next[var[k]] = value[k];
      } else {
        consistent = next[var[k]] == value[k];
      }
    }
    if (consistent) MatchFrom(store, vars, patterns, i + 1, next, out);
  }
}

/// Solutions of the WHERE clause: the mandatory patterns, each OPTIONAL
/// block left-joined in order, then every FILTER.
std::vector<Solution> Solve(const rdf::TripleStore& store, const Vars& vars,
                            const SelectQuery& query) {
  std::vector<Solution> rows;
  MatchFrom(store, vars, query.patterns, 0,
            Solution(vars.names().size(), rdf::kInvalidTermId), &rows);
  for (const std::vector<TriplePatternAst>& block : query.optional_blocks) {
    std::vector<Solution> joined;
    for (const Solution& row : rows) {
      const size_t before = joined.size();
      MatchFrom(store, vars, block, 0, row, &joined);
      if (joined.size() == before) joined.push_back(row);
    }
    rows = std::move(joined);
  }
  std::vector<Solution> kept;
  for (const Solution& row : rows) {
    auto lookup = [&](const std::string& name) {
      return CellOf(vars, row, name);
    };
    bool pass = true;
    for (const sparql::ExprPtr& f : query.filters) {
      if (sparql::EvalExpr(store, *f, lookup) != sparql::Ebv::kTrue) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(row);
  }
  return kept;
}

/// One aggregate over the solutions of a group.
Cell Aggregate(const rdf::TripleStore& store, const Vars& vars,
               const SelectItem& item, const std::vector<const Solution*>& g) {
  if (item.count_star) return Cell::OfNumber(static_cast<double>(g.size()));
  std::vector<rdf::TermId> bound;
  for (const Solution* row : g) {
    const Cell c = CellOf(vars, *row, item.var.name);
    if (c.is_term()) bound.push_back(c.term);
  }
  if (item.distinct_agg) {
    return Cell::OfNumber(static_cast<double>(
        std::set<rdf::TermId>(bound.begin(), bound.end()).size()));
  }
  if (item.func == sparql::AggFunc::kCount) {
    return Cell::OfNumber(static_cast<double>(bound.size()));
  }
  if (bound.empty()) return Cell::OfNumber(0.0);
  double sum = 0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (rdf::TermId id : bound) {
    const double v = store.term(id).AsDouble();
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  switch (item.func) {
    case sparql::AggFunc::kMin:
      return Cell::OfNumber(lo);
    case sparql::AggFunc::kMax:
      return Cell::OfNumber(hi);
    case sparql::AggFunc::kAvg:
      return Cell::OfNumber(sum / static_cast<double>(bound.size()));
    default:
      return Cell::OfNumber(sum);
  }
}

/// Total order on cells for DISTINCT's duplicate detection.
bool CellLess(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.is_term()) return a.term < b.term;
  return a.is_number() && a.number < b.number;
}

/// A stable, exact rendering of a cell for row comparison: terms in
/// N-Triples syntax, numbers to 12 significant digits (aggregates summed
/// in a different order may differ in the last bits).
std::string CellKey(const rdf::TripleStore& store, const Cell& c) {
  if (c.is_term()) return rdf::ToNTriples(store.term(c.term));
  if (c.is_number()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", c.number);
    return buf;
  }
  return "UNBOUND";
}

std::string RowKey(const rdf::TripleStore& store,
                   const sparql::ResultTable& table, size_t row,
                   const std::vector<size_t>& columns) {
  std::string key;
  for (size_t c : columns) {
    key += CellKey(store, table.at(row, c));
    key += " | ";
  }
  return key;
}

std::string Describe(const std::multiset<std::string>& rows) {
  std::string out;
  size_t n = 0;
  for (const std::string& r : rows) {
    if (++n > 10) {
      out += "  ... (" + std::to_string(rows.size()) + " rows)\n";
      break;
    }
    out += "  " + r + "\n";
  }
  return out;
}

/// Row keys of `table` with its columns visited in `order`.
std::multiset<std::string> RowKeys(const rdf::TripleStore& store,
                                   const sparql::ResultTable& table,
                                   const std::vector<size_t>& order) {
  std::multiset<std::string> keys;
  for (size_t r = 0; r < table.row_count(); ++r) {
    keys.insert(RowKey(store, table, r, order));
  }
  return keys;
}

/// Column indexes of `table` that hold `names`, in that order.
std::vector<size_t> ColumnsByName(const sparql::ResultTable& table,
                                  const std::vector<std::string>& names) {
  std::vector<size_t> out;
  for (const std::string& n : names) {
    out.push_back(static_cast<size_t>(table.ColumnIndex(n)));
  }
  return out;
}

/// The ORDER BY key cells of every row, in row order.
std::vector<std::string> OrderKeys(const rdf::TripleStore& store,
                                   const sparql::ResultTable& table,
                                   const SelectQuery& query) {
  std::vector<std::string> names;
  for (const sparql::OrderKey& k : query.order_by) names.push_back(k.column);
  const std::vector<size_t> cols = ColumnsByName(table, names);
  std::vector<std::string> out;
  for (size_t r = 0; r < table.row_count(); ++r) {
    out.push_back(RowKey(store, table, r, cols));
  }
  return out;
}

}  // namespace

util::Result<sparql::ResultTable> ReferenceEvaluate(
    const rdf::TripleStore& store, const SelectQuery& query) {
  rdf::TripleStore::ReadPin pin(store);
  Vars vars;
  for (const TriplePatternAst& tp : query.patterns) {
    vars.Add(tp.s);
    vars.Add(tp.p);
    vars.Add(tp.o);
  }
  for (const auto& block : query.optional_blocks) {
    for (const TriplePatternAst& tp : block) {
      vars.Add(tp.s);
      vars.Add(tp.p);
      vars.Add(tp.o);
    }
  }
  const std::vector<Solution> solutions = Solve(store, vars, query);

  if (query.is_ask) {
    sparql::ResultTable out(&store, {"ask"});
    out.AppendRow({Cell::OfNumber(solutions.empty() ? 0.0 : 1.0)});
    return out;
  }

  const bool aggregating = query.has_aggregates() || !query.group_by.empty();
  std::vector<SelectItem> items = query.items;
  if (query.select_all) {
    if (aggregating) {
      return util::Status::InvalidArgument(
          "SELECT * cannot be combined with aggregation");
    }
    items.clear();
    for (const std::string& name : vars.names()) {
      if (name.rfind("__", 0) == 0) continue;  // property-path internals
      SelectItem it;
      it.var = sparql::Variable{name};
      items.push_back(std::move(it));
    }
  }
  if (items.empty()) {
    return util::Status::InvalidArgument("query projects no columns");
  }
  std::vector<std::string> columns;
  for (const SelectItem& it : items) {
    if (aggregating && !it.is_aggregate &&
        std::find(query.group_by.begin(), query.group_by.end(), it.var) ==
            query.group_by.end()) {
      return util::Status::InvalidArgument("?" + it.var.name +
                                           " is not a GROUP BY variable");
    }
    columns.push_back(it.OutputName());
  }
  std::vector<RefRow> rows;
  if (!aggregating) {
    for (const Solution& row : solutions) {
      RefRow out;
      for (const SelectItem& it : items) {
        out.push_back(CellOf(vars, row, it.var.name));
      }
      rows.push_back(std::move(out));
    }
  } else {
    std::map<std::vector<rdf::TermId>, std::vector<const Solution*>> groups;
    for (const Solution& row : solutions) {
      std::vector<rdf::TermId> key;
      for (const sparql::Variable& g : query.group_by) {
        const Cell c = CellOf(vars, row, g.name);
        key.push_back(c.is_term() ? c.term : rdf::kInvalidTermId);
      }
      groups[key].push_back(&row);
    }
    for (const auto& [key, members] : groups) {
      RefRow out;
      for (const SelectItem& it : items) {
        out.push_back(it.is_aggregate
                          ? Aggregate(store, vars, it, members)
                          : CellOf(vars, *members.front(), it.var.name));
      }
      rows.push_back(std::move(out));
    }
  }
  return ReferencePostOps(store, query, std::move(columns), std::move(rows));
}

util::Result<sparql::ResultTable> ReferencePostOps(
    const rdf::TripleStore& store, const SelectQuery& query,
    std::vector<std::string> columns, std::vector<RefRow> rows) {
  auto column_index = [&](const std::string& name) {
    auto it = std::find(columns.begin(), columns.end(), name);
    return it == columns.end() ? -1 : static_cast<int>(it - columns.begin());
  };
  if (!query.having.empty()) {
    std::vector<RefRow> kept;
    for (RefRow& row : rows) {
      auto lookup = [&](const std::string& name) {
        const int c = column_index(name);
        return c < 0 ? Cell::Null() : row[c];
      };
      bool pass = true;
      for (const sparql::ExprPtr& h : query.having) {
        if (sparql::EvalExpr(store, *h, lookup) != sparql::Ebv::kTrue) {
          pass = false;
          break;
        }
      }
      if (pass) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }
  if (query.distinct) {
    auto row_less = [](const RefRow& a, const RefRow& b) {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end(), CellLess);
    };
    std::set<RefRow, decltype(row_less)> seen(row_less);
    std::vector<RefRow> kept;
    for (RefRow& row : rows) {
      if (seen.insert(row).second) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }
  if (!query.order_by.empty()) {
    std::vector<std::pair<int, bool>> keys;
    for (const sparql::OrderKey& k : query.order_by) {
      const int c = column_index(k.column);
      if (c < 0) {
        return util::Status::InvalidArgument(
            "ORDER BY references unknown column ?" + k.column);
      }
      keys.emplace_back(c, k.ascending);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const RefRow& a, const RefRow& b) {
                       for (auto [c, asc] : keys) {
                         const int cmp = sparql::OrderCells(store, a[c], b[c]);
                         if (cmp != 0) return asc ? cmp < 0 : cmp > 0;
                       }
                       return false;
                     });
  }
  const size_t begin = std::min<size_t>(query.offset, rows.size());
  size_t end = rows.size();
  if (query.limit.has_value()) {
    end = std::min<size_t>(begin + *query.limit, rows.size());
  }
  sparql::ResultTable table(&store, std::move(columns));
  for (size_t r = begin; r < end; ++r) table.AppendRow(rows[r]);
  return table;
}

::testing::AssertionResult AgreesWithReference(const rdf::TripleStore& store,
                                               std::string_view sparql) {
  auto parsed = sparql::ParseQuery(sparql);
  if (!parsed.ok()) {
    return ::testing::AssertionFailure()
           << "parse: " << parsed.status().ToString();
  }
  const SelectQuery& query = *parsed;
  auto actual = RunUncached(store, query);
  auto expected = ReferenceEvaluate(store, query);
  if (!actual.ok() || !expected.ok()) {
    if (!actual.ok() && !expected.ok() &&
        actual.status().code() == expected.status().code()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "engine: " << actual.status().ToString()
           << "\nreference: " << expected.status().ToString();
  }

  // SELECT * columns may come in any order: compare them as a set and
  // line the reference's columns up with the engine's.
  std::vector<std::string> engine_cols = actual->columns();
  std::vector<std::string> reference_cols = expected->columns();
  if (query.select_all) {
    std::sort(engine_cols.begin(), engine_cols.end());
    std::sort(reference_cols.begin(), reference_cols.end());
  }
  if (engine_cols != reference_cols) {
    return ::testing::AssertionFailure() << "columns differ";
  }
  std::vector<size_t> engine_order(actual->column_count());
  std::iota(engine_order.begin(), engine_order.end(), 0);
  const std::vector<size_t> reference_order =
      ColumnsByName(*expected, actual->columns());

  const std::multiset<std::string> got = RowKeys(store, *actual, engine_order);
  if (query.limit.has_value() || query.offset > 0) {
    if (actual->row_count() != expected->row_count()) {
      return ::testing::AssertionFailure()
             << "row count " << actual->row_count() << ", reference "
             << expected->row_count();
    }
    SelectQuery unlimited = query;
    unlimited.limit.reset();
    unlimited.offset = 0;
    auto all = ReferenceEvaluate(store, unlimited);
    if (!all.ok()) {
      return ::testing::AssertionFailure()
             << "reference without LIMIT/OFFSET: " << all.status().ToString();
    }
    std::multiset<std::string> pool = RowKeys(store, *all, reference_order);
    for (const std::string& row : got) {
      auto it = pool.find(row);
      if (it == pool.end()) {
        return ::testing::AssertionFailure()
               << "row missing from (or repeated beyond) the reference "
                  "answer:\n  "
               << row;
      }
      pool.erase(it);
    }
  } else {
    const std::multiset<std::string> want =
        RowKeys(store, *expected, reference_order);
    if (got != want) {
      return ::testing::AssertionFailure()
             << "rows differ\nengine:\n" << Describe(got) << "reference:\n"
             << Describe(want);
    }
  }
  if (!query.order_by.empty() &&
      OrderKeys(store, *actual, query) != OrderKeys(store, *expected, query)) {
    return ::testing::AssertionFailure() << "ORDER BY key sequence differs";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace re2xolap::testing
