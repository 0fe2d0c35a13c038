// Tests of the columnar ResultTable: the bytes a table holds (what the
// result cache charges), the round trip of every cell kind through a
// column, the post-join operators (HAVING, DISTINCT, ORDER BY,
// LIMIT/OFFSET) on random tables against the reference evaluator, and the
// bytes the projection charges the guard.
#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/triple_store.h"
#include "sparql/ebv.h"
#include "sparql/parser.h"
#include "sparql/post_ops.h"
#include "sparql/result_table.h"
#include "tests/reference_eval.h"
#include "tests/uncached_engine.h"
#include "util/exec_guard.h"

namespace re2xolap::sparql {
namespace {

using re2xolap::testing::RefRow;

/// Heap bytes behind a column name (none while it fits inline).
size_t NameHeapBytes(const std::string& s) {
  const char* self = reinterpret_cast<const char*>(&s);
  return s.data() >= self && s.data() < self + sizeof(s) ? 0
                                                         : s.capacity() + 1;
}

/// Every cell of `table`, row by row.
std::vector<RefRow> Cells(const ResultTable& table) {
  std::vector<RefRow> rows(table.row_count());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < table.column_count(); ++c) {
      rows[r].push_back(table.at(r, c));
    }
  }
  return rows;
}

TEST(ResultTableTest, GroupByTableCostsTypedColumnBytes) {
  auto ds = qb::Generate(qb::EurostatSpec(4000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const qb::DatasetSpec& spec = ds->spec;
  ASSERT_GE(spec.dimensions.size(), 3u);
  std::string where;
  for (size_t d = 0; d < 3; ++d) {
    where += "?o <" + spec.iri_base + spec.dimensions[d].predicate + "> ?d" +
             std::to_string(d) + " . ";
  }
  where += "?o <" + spec.iri_base + spec.measure_predicates[0] + "> ?v . ";
  const std::string query =
      "SELECT ?d0 ?d1 ?d2 (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
      "(AVG(?v) AS ?mean) WHERE { " + where + "} GROUP BY ?d0 ?d1 ?d2";
  engine::QueryEngine engine(*ds->store, re2xolap::testing::kUncached);
  auto table = engine.ExecuteText(query);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const size_t rows = (*table)->row_count();
  ASSERT_GT(rows, 1000u);
  // 3 term ids and 4 doubles per row, one null bit per number cell, and
  // a few KiB of fixed parts.
  EXPECT_LE(engine::EstimateTableCost(**table),
            rows * (3 * sizeof(rdf::TermId) + 4 * sizeof(double)) + rows / 2 +
                4096);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ((*table)->column(c).layout(), Column::Layout::kTerms);
    EXPECT_EQ((*table)->column(c).terms().size(), rows);
  }
  for (size_t c = 3; c < 7; ++c) {
    EXPECT_EQ((*table)->column(c).layout(), Column::Layout::kNumbers);
    EXPECT_EQ((*table)->NumericColumn(c).size(), rows);
  }
}

TEST(ResultTableTest, CostIsColumnCapacitiesPlusFixedParts) {
  const std::string long_name = "a column name too long to be stored inline";
  ResultTable table(nullptr, {"t", "n", long_name});
  constexpr size_t kRows = 100;
  for (uint32_t r = 0; r < kRows; ++r) {
    const Cell mixed = r % 3 == 0   ? Cell::OfTerm(r + 1)
                       : r % 3 == 1 ? Cell::OfNumber(r * 0.5)
                                    : Cell::Null();
    table.AppendRow({r % 7 == 0 ? Cell::Null() : Cell::OfTerm(r + 1),
                     r % 5 == 0 ? Cell::Null() : Cell::OfNumber(r), mixed});
  }
  // Gathering every row leaves arrays of exactly kRows cells.
  std::vector<uint32_t> all(kRows);
  std::iota(all.begin(), all.end(), 0);
  table.Gather(all);
  ASSERT_EQ(table.column(0).layout(), Column::Layout::kTerms);
  ASSERT_EQ(table.column(1).layout(), Column::Layout::kNumbers);
  ASSERT_EQ(table.column(2).layout(), Column::Layout::kMixed);
  const size_t bitmap_words = (kRows + 63) / 64;
  const size_t columns = kRows * sizeof(rdf::TermId) +
                         kRows * sizeof(double) +
                         bitmap_words * sizeof(uint64_t) +
                         kRows * (sizeof(rdf::TermId) + sizeof(double) +
                                  sizeof(Cell::Kind));
  size_t fixed = sizeof(ResultTable) + 3 * sizeof(std::string) +
                 3 * sizeof(Column);
  for (const std::string& name : table.columns()) fixed += NameHeapBytes(name);
  EXPECT_GT(NameHeapBytes(table.columns()[2]), 0u);
  EXPECT_EQ(engine::EstimateTableCost(table), columns + fixed);
}

TEST(ResultTableTest, MixedColumnRoundTripsThroughAt) {
  // Starts null, becomes numbers, then mixes in terms; a second column
  // starts null and becomes terms.
  const std::vector<Cell> first = {Cell::Null(),      Cell::OfNumber(2.5),
                                   Cell::Null(),      Cell::OfTerm(7),
                                   Cell::OfNumber(0), Cell::OfTerm(9),
                                   Cell::Null()};
  const std::vector<Cell> second = {Cell::Null(),    Cell::Null(),
                                    Cell::OfTerm(3), Cell::Null(),
                                    Cell::OfTerm(4), Cell::OfTerm(5),
                                    Cell::Null()};
  ResultTable table(nullptr, {"x", "y"});
  for (size_t r = 0; r < first.size(); ++r) {
    table.AppendRow({first[r], second[r]});
    ASSERT_EQ(table.row_count(), r + 1);
  }
  EXPECT_EQ(table.column(0).layout(), Column::Layout::kMixed);
  EXPECT_EQ(table.column(1).layout(), Column::Layout::kTerms);
  for (size_t r = 0; r < first.size(); ++r) {
    EXPECT_EQ(table.at(r, 0), first[r]) << "row " << r;
    EXPECT_EQ(table.at(r, 1), second[r]) << "row " << r;
    // Cells equal by value, down to the unused fields.
    EXPECT_EQ(table.at(r, 0).term, first[r].term);
    EXPECT_EQ(table.at(r, 0).number, first[r].number);
  }
  // Numbers and nulls alone stay a number column with a bitmap.
  ResultTable numbers(nullptr, {"m"});
  numbers.AppendRow({Cell::Null()});
  numbers.AppendRow({Cell::OfNumber(-1)});
  EXPECT_EQ(numbers.column(0).layout(), Column::Layout::kNumbers);
  EXPECT_EQ(numbers.at(0, 0), Cell::Null());
  EXPECT_EQ(numbers.at(1, 0), Cell::OfNumber(-1));
  // A gather keeps every kind in place.
  const std::vector<uint32_t> reversed = {6, 5, 4, 3, 2, 1, 0};
  table.Gather(reversed);
  for (size_t r = 0; r < first.size(); ++r) {
    EXPECT_EQ(table.at(r, 0), first[6 - r]);
    EXPECT_EQ(table.at(r, 1), second[6 - r]);
  }
}

/// DISTINCT as the row layout computed it: sort the rows canonically
/// (lexicographic OrderCells), then drop adjacent duplicates.
std::vector<RefRow> RowLayoutDistinct(const rdf::TripleStore& store,
                                      std::vector<RefRow> rows) {
  std::sort(rows.begin(), rows.end(), [&](const RefRow& a, const RefRow& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      const int c = OrderCells(store, a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

TEST(ResultTableTest, PostOpsMatchRowLayoutOnRandomTables) {
  rdf::TripleStore store;
  std::vector<rdf::TermId> terms;
  for (int i = 0; i < 4; ++i) {
    terms.push_back(store.Intern(
        rdf::Term::Iri("http://t/e" + std::to_string(i))));
    terms.push_back(store.Intern(
        rdf::Term::StringLiteral("label " + std::to_string(i))));
  }
  store.Freeze();
  const std::vector<std::string> columns = {"a", "b", "m"};
  // A column of terms, one that mixes terms, numbers and nulls, and one
  // of numbers with nulls; small domains, so ties and duplicates abound.
  auto random_rows = [&](std::mt19937* rng, size_t n) {
    std::vector<RefRow> rows;
    auto pick = [&](size_t k) { return (*rng)() % k; };
    for (size_t r = 0; r < n; ++r) {
      RefRow row;
      row.push_back(pick(5) == 0 ? Cell::Null()
                                 : Cell::OfTerm(terms[pick(3)]));
      const size_t kind = pick(3);
      row.push_back(kind == 0   ? Cell::Null()
                    : kind == 1 ? Cell::OfTerm(terms[pick(terms.size())])
                                : Cell::OfNumber(static_cast<double>(pick(3))));
      row.push_back(pick(6) == 0 ? Cell::Null()
                                 : Cell::OfNumber(static_cast<double>(pick(4))));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  const std::vector<std::string> modifiers = {
      "",
      "HAVING (?m > 1)",
      "DISTINCT",
      "DISTINCT HAVING (?m >= 1)",
      "ORDER BY ?m",
      "ORDER BY DESC(?m) ?a",
      "ORDER BY ?b DESC(?a)",
      "DISTINCT ORDER BY ?m",
      "HAVING (?m < 3) ORDER BY ?a LIMIT 5 OFFSET 2",
      "LIMIT 0",
      "OFFSET 1000",
      "OFFSET 3",
      "LIMIT 4",
      "LIMIT 1000 OFFSET 7",
      "DISTINCT ORDER BY DESC(?b) LIMIT 3 OFFSET 1",
  };
  std::mt19937 rng(20261018);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = trial == 0 ? 0 : rng() % 60;
    const std::vector<RefRow> rows = random_rows(&rng, n);
    std::vector<std::string> texts = modifiers;
    // A window that ends exactly at the end, and one starting there.
    texts.push_back("OFFSET " + std::to_string(n));
    texts.push_back("LIMIT 2 OFFSET " + std::to_string(n > 2 ? n - 2 : 0));
    for (const std::string& mods : texts) {
      SCOPED_TRACE("n=" + std::to_string(n) + " modifiers: " + mods);
      const bool distinct = mods.rfind("DISTINCT", 0) == 0;
      const std::string text =
          std::string("SELECT ") + (distinct ? "DISTINCT " : "") +
          "?a ?b ?m WHERE { ?s ?p ?o } " + (distinct ? mods.substr(8) : mods);
      auto parsed = ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const SelectQuery& query = *parsed;

      ResultTable table(&store, columns);
      for (const RefRow& row : rows) table.AppendRow(row);
      std::vector<PostOpProf> prof;
      ASSERT_TRUE(ApplyHaving(store, query, &table, &prof).ok());
      if (query.distinct) {
        ASSERT_TRUE(ApplyDistinct(store, &table, &prof).ok());
      }
      if (!query.order_by.empty()) {
        ASSERT_TRUE(ApplyOrderBy(store, query, &table, &prof).ok());
      }
      ASSERT_TRUE(ApplyLimitOffset(query, &table, &prof).ok());

      // HAVING keeps rows in place, so it commutes with the row layout's
      // DISTINCT; the reference then applies the rest.
      SelectQuery rest = query;
      rest.distinct = false;
      auto expected = re2xolap::testing::ReferencePostOps(
          store, rest, columns,
          query.distinct ? RowLayoutDistinct(store, rows) : rows);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_EQ(Cells(table), Cells(*expected));
    }
  }
}

TEST(ResultTableTest, ProjectionChargesAppendedBytes) {
  auto ds = qb::Generate(qb::EurostatSpec(1500));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const qb::DatasetSpec& spec = ds->spec;
  const std::string query = "SELECT ?o ?d ?v WHERE { ?o <" + spec.iri_base +
                            spec.dimensions[0].predicate + "> ?d . ?o <" +
                            spec.iri_base + spec.measure_predicates[0] +
                            "> ?v . }";
  util::ExecGuard::Limits limits;
  limits.max_bytes = uint64_t{1} << 40;
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  engine::QueryEngine engine(*ds->store, re2xolap::testing::kUncached);
  auto table = engine.ExecuteText(query, opts);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_GT((*table)->row_count(), 1000u);
  size_t data_bytes = 0;
  for (size_t c = 0; c < (*table)->column_count(); ++c) {
    data_bytes += (*table)->column(c).AllocatedBytes();
  }
  EXPECT_LE(guard.charged_bytes(), 2 * data_bytes);
  EXPECT_LE(data_bytes, 2 * guard.charged_bytes());

  util::ExecGuard::Limits tight;
  tight.max_bytes = data_bytes / 4;
  util::ExecGuard small(tight);
  opts.guard = &small;
  auto tripped = engine.ExecuteText(query, opts);
  ASSERT_FALSE(tripped.ok());
  EXPECT_TRUE(tripped.status().IsResourceExhausted())
      << tripped.status().ToString();
}

}  // namespace
}  // namespace re2xolap::sparql
