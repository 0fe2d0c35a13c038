// The query telemetry layer (obs/query_log.h): exactly one QueryRecord
// per QueryEngine::Execute path (hit / miss / error / guard violation /
// retry, incl. failpoint-armed runs), the sparql::Execute escape hatch,
// session interactions, and snapshot save/load; slow-query capture with
// rendered operator trees; the bounded ring; the JSONL sink; and the
// introspection report.

#include "obs/query_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "rdf/text_index.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "storage/snapshot.h"
#include "tests/json_validator.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace re2xolap::obs {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::IsValidJson;
using re2xolap::testing::kObsClass;

constexpr char kObsQuery[] =
    "SELECT ?obs WHERE { ?obs a <http://test/Observation> }";

/// Pins the recorder to a known configuration (no sink, generous ring,
/// latency capture off — error-status capture stays on) and disarms any
/// environment-armed failpoints, so assertions hold under the chaos CI
/// job too.
class QueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FailpointRegistry::Global().DisarmAll();
    QueryLogConfig config;
    config.slow_threshold_millis = -1;  // only error statuses capture
    QueryLog::Global().SetEnabled(true);
    QueryLog::Global().Configure(std::move(config));
    store = BuildFigure1Store();
  }
  void TearDown() override {
    util::FailpointRegistry::Global().DisarmAll();
    QueryLog::Global().Configure(QueryLogConfig{});
  }

  /// High-water mark: records appended after this call have id > the
  /// returned value.
  static uint64_t Mark() {
    std::vector<QueryRecord> recs = QueryLog::Global().Snapshot();
    return recs.empty() ? 0 : recs.back().id;
  }

  /// Records appended since `mark`, in id order.
  static std::vector<QueryRecord> Since(uint64_t mark) {
    std::vector<QueryRecord> out;
    for (const QueryRecord& r : QueryLog::Global().Snapshot()) {
      if (r.id > mark) out.push_back(r);
    }
    return out;
  }

  static size_t CountOp(const std::vector<QueryRecord>& recs, QueryOp op) {
    size_t n = 0;
    for (const QueryRecord& r : recs) n += r.op == op ? 1 : 0;
    return n;
  }

  std::unique_ptr<rdf::TripleStore> store;
};

// --- mirror tables -----------------------------------------------------------

TEST_F(QueryLogTest, StatusNamesMatchUtilStatusCodes) {
  // obs cannot link util (layering), so RecordStatusName mirrors
  // util::StatusCodeToString; this test is the pin holding them together.
  for (int code = 0; code <= static_cast<int>(util::StatusCode::kCancelled);
       ++code) {
    EXPECT_STREQ(RecordStatusName(static_cast<uint8_t>(code)),
                 util::StatusCodeToString(static_cast<util::StatusCode>(code)))
        << "status code " << code;
  }
  EXPECT_STREQ(RecordStatusName(200), "Unknown");
}

TEST_F(QueryLogTest, FingerprintIsStableFnv1a) {
  EXPECT_EQ(FingerprintQuery(""), 14695981039346656037ull);  // offset basis
  EXPECT_EQ(FingerprintQuery("a"),
            (14695981039346656037ull ^ 'a') * 1099511628211ull);
  EXPECT_EQ(FingerprintQuery(kObsQuery), FingerprintQuery(kObsQuery));
  EXPECT_NE(FingerprintQuery(kObsQuery), FingerprintQuery("SELECT * {}"));
}

TEST_F(QueryLogTest, OpNamesAreExhaustive) {
  for (size_t i = 0; i < kQueryOpCount; ++i) {
    EXPECT_STRNE(QueryOpName(static_cast<QueryOp>(i)), "?") << "op " << i;
  }
}

// --- exactly one record per engine Execute path ------------------------------

TEST_F(QueryLogTest, EngineMissThenHitRecordExactlyOnce) {
  engine::QueryEngine engine(*store);
  const uint64_t mark = Mark();

  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u) << "miss path must append exactly one record";
  EXPECT_EQ(recs[0].op, QueryOp::kEngineExecute);
  EXPECT_EQ(recs[0].cache, CacheOutcome::kMiss);
  EXPECT_EQ(recs[0].status, 0);
  EXPECT_EQ(recs[0].rows_out, 5u);
  EXPECT_GT(recs[0].triples_scanned, 0u);
  EXPECT_EQ(recs[0].freeze_epoch, store->freeze_epoch());
  EXPECT_EQ(recs[0].fingerprint,
            FingerprintQuery(sparql::ToSparql(*sparql::ParseQuery(kObsQuery))));

  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  recs = Since(mark);
  ASSERT_EQ(recs.size(), 2u) << "hit path must append exactly one record";
  EXPECT_EQ(recs[1].cache, CacheOutcome::kHit);
  EXPECT_EQ(recs[1].rows_out, 5u);
  // A hit scans nothing; identity is unchanged.
  EXPECT_EQ(recs[1].triples_scanned, 0u);
  EXPECT_EQ(recs[1].fingerprint, recs[0].fingerprint);
}

TEST_F(QueryLogTest, EngineBypassAndErrorRecordExactlyOnce) {
  engine::QueryEngine engine(*store);
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());  // warm the cache

  // Profiled runs bypass the result cache.
  uint64_t mark = Mark();
  sparql::ExecOptions profiled;
  profiled.profile = true;
  ASSERT_TRUE(engine.ExecuteText(kObsQuery, profiled).ok());
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].cache, CacheOutcome::kBypass);

  // An execution error (ORDER BY over an unprojected column fails after
  // the cache lookup missed) is still exactly one record.
  mark = Mark();
  auto bad = engine.ExecuteText(
      "SELECT ?obs WHERE { ?obs a <http://test/Observation> } "
      "ORDER BY ?nonexistent");
  ASSERT_FALSE(bad.ok());
  recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].status, static_cast<uint8_t>(bad.status().code()));
  EXPECT_NE(recs[0].status, 0);
  EXPECT_EQ(recs[0].cache, CacheOutcome::kMiss);
  EXPECT_EQ(recs[0].rows_out, 0u);
}

TEST_F(QueryLogTest, RetriedExecutionIsOneRecordWithRetryCount) {
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=error*2")
                  .ok());
  engine::QueryEngine engine(*store);  // default config retries twice
  const uint64_t mark = Mark();
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u)
      << "retries happen inside one logical Execute: one record";
  EXPECT_EQ(recs[0].status, 0);
  EXPECT_EQ(recs[0].retries, 2u);
}

TEST_F(QueryLogTest, RetryBudgetExhaustionRecordsTheError) {
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=error*9")
                  .ok());
  engine::EngineConfig config;
  config.max_transient_retries = 1;
  config.retry_backoff_millis = 0;
  engine::QueryEngine engine(*store, config);
  const uint64_t mark = Mark();
  auto r = engine.ExecuteText(kObsQuery);
  ASSERT_FALSE(r.ok());
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].status,
            static_cast<uint8_t>(util::StatusCode::kUnavailable));
  EXPECT_EQ(recs[0].retries, 1u);
}

TEST_F(QueryLogTest, GuardViolationRecordsOnceAndCapturesSlow) {
  engine::QueryEngine engine(*store);
  util::ExecGuard guard = util::ExecGuard::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  sparql::ExecOptions opts;
  opts.guard = &guard;
  const uint64_t mark = Mark();
  auto r = engine.ExecuteText(kObsQuery, opts);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.status().IsTimeout());

  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].status, static_cast<uint8_t>(util::StatusCode::kTimeout));
  EXPECT_EQ(recs[0].cache, CacheOutcome::kNone);  // rejected pre-probe

  // Guard-verdict statuses are captured even with latency capture off,
  // and the entry carries the query's identity.
  bool found = false;
  for (const SlowQueryEntry& e : QueryLog::Global().SlowSnapshot()) {
    if (e.record.id != recs[0].id) continue;
    found = true;
    EXPECT_FALSE(e.query.empty());
  }
  EXPECT_TRUE(found);
}

TEST_F(QueryLogTest, AskThroughEngineIsOneRecord) {
  engine::QueryEngine engine(*store);
  const uint64_t mark = Mark();
  auto r = engine.ExecuteText("ASK { ?obs a <http://test/Observation> }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The ASK rewrite recurses into sparql::Execute; nested scopes must not
  // double-record.
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].op, QueryOp::kEngineExecute);
}

// --- the engine-free escape hatch --------------------------------------------

TEST_F(QueryLogTest, DirectSparqlExecuteRecordsOnce) {
  const uint64_t mark = Mark();
  auto r = sparql::ExecuteText(*store, kObsQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].op, QueryOp::kSparqlExecute);
  EXPECT_EQ(recs[0].cache, CacheOutcome::kNone);  // no cache at this layer
  EXPECT_EQ(recs[0].rows_out, 5u);
  EXPECT_GT(recs[0].triples_scanned, 0u);

  // ASK via the escape hatch: the inner probe stays silent.
  const uint64_t ask_mark = Mark();
  auto ask = sparql::ExecuteText(*store, "ASK { ?o a <http://test/Observation> }");
  ASSERT_TRUE(ask.ok());
  recs = Since(ask_mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].op, QueryOp::kSparqlExecute);
}

// --- slow-query capture ------------------------------------------------------

TEST_F(QueryLogTest, SlowRecordsRetainTheOperatorTree) {
  QueryLogConfig config;
  config.slow_threshold_millis = 0;  // everything is "slow"
  QueryLog::Global().Configure(std::move(config));

  engine::QueryEngine engine(*store);
  const uint64_t mark = Mark();
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);

  std::vector<SlowQueryEntry> slow = QueryLog::Global().SlowSnapshot();
  ASSERT_FALSE(slow.empty());
  const SlowQueryEntry& entry = slow.back();
  EXPECT_EQ(entry.record.id, recs[0].id);
  // The captured context: normalized query text + rendered
  // ExplainAnalyze tree (root operator "select", per-pattern "scan").
  EXPECT_NE(entry.query.find("SELECT"), std::string::npos) << entry.query;
  EXPECT_NE(entry.detail.find("select"), std::string::npos) << entry.detail;
  EXPECT_NE(entry.detail.find("scan"), std::string::npos) << entry.detail;
}

TEST_F(QueryLogTest, SlowLogIsBounded) {
  QueryLogConfig config;
  config.slow_threshold_millis = 0;
  config.slow_capacity = 4;
  QueryLog::Global().Configure(std::move(config));

  engine::QueryEngine engine(*store);
  sparql::ExecOptions profiled;  // bypass the result cache: each run re-executes
  profiled.profile = true;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.ExecuteText(kObsQuery, profiled).ok());
  }
  std::vector<SlowQueryEntry> slow = QueryLog::Global().SlowSnapshot();
  EXPECT_EQ(slow.size(), 4u);
  // Oldest evicted first: the retained entries are the most recent.
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_GT(slow[i].record.id, slow[i - 1].record.id);
  }
}

// --- session interactions ----------------------------------------------------

TEST_F(QueryLogTest, SessionInteractionsRecordTheirOps) {
  auto vsg_result = core::VirtualSchemaGraph::Build(*store, kObsClass);
  ASSERT_TRUE(vsg_result.ok());
  core::VirtualSchemaGraph vsg = std::move(vsg_result).value();
  rdf::TextIndex text(*store);
  core::Session session(store.get(), &vsg, &text);

  uint64_t mark = Mark();
  ASSERT_TRUE(session.Start({"Germany", "2014"}).ok());
  std::vector<QueryRecord> recs = Since(mark);
  EXPECT_EQ(CountOp(recs, QueryOp::kSessionSynthesize), 1u);
  // ReOLAP validation probes execute through the engine and each record
  // on their own (they are real queries).
  EXPECT_GE(CountOp(recs, QueryOp::kEngineExecute), 1u);

  ASSERT_TRUE(session.PickCandidate(0).ok());
  ASSERT_TRUE(session.Execute().ok());

  mark = Mark();
  ASSERT_TRUE(session.Refine(core::RefinementKind::kDisaggregate).ok());
  recs = Since(mark);
  EXPECT_EQ(CountOp(recs, QueryOp::kSessionRefine), 1u);

  mark = Mark();
  ASSERT_TRUE(session.Slice(0).ok());
  recs = Since(mark);
  EXPECT_EQ(CountOp(recs, QueryOp::kSessionSlice), 1u);
  for (const QueryRecord& r : recs) {
    if (r.op == QueryOp::kSessionSlice) {
      EXPECT_NE(r.fingerprint, 0u);  // fingerprints the current query
    }
  }
}

TEST_F(QueryLogTest, SessionExcludeNegativeRecords) {
  auto vsg_result = core::VirtualSchemaGraph::Build(*store, kObsClass);
  ASSERT_TRUE(vsg_result.ok());
  core::VirtualSchemaGraph vsg = std::move(vsg_result).value();
  rdf::TextIndex text(*store);
  core::Session session(store.get(), &vsg, &text);
  ASSERT_TRUE(session.Start({"Asia"}).ok());
  ASSERT_TRUE(session.PickCandidate(0).ok());

  uint64_t mark = Mark();
  ASSERT_TRUE(session.ExcludeNegative({"Africa"}).ok());
  EXPECT_EQ(CountOp(Since(mark), QueryOp::kSessionExclude), 1u);

  // A rejected exclusion (no current query after rewinding past the root
  // is impossible, but an unusable negative value is) records the error.
  mark = Mark();
  ASSERT_FALSE(session.ExcludeNegative({}).ok());
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(CountOp(recs, QueryOp::kSessionExclude), 1u);
  for (const QueryRecord& r : recs) {
    if (r.op == QueryOp::kSessionExclude) {
      EXPECT_NE(r.status, 0);
    }
  }
}

// --- snapshot save/load ------------------------------------------------------

TEST_F(QueryLogTest, SnapshotSaveAndLoadRecord) {
  const std::string path =
      ::testing::TempDir() + "re2x_query_log_test_snapshot.snap";
  uint64_t mark = Mark();
  ASSERT_TRUE(
      storage::SaveSnapshot(path, *store, nullptr, nullptr, {}).ok());
  std::vector<QueryRecord> recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].op, QueryOp::kSnapshotSave);
  EXPECT_EQ(recs[0].status, 0);
  EXPECT_EQ(recs[0].rows_out, store->size());
  EXPECT_EQ(recs[0].freeze_epoch, store->freeze_epoch());
  EXPECT_EQ(recs[0].fingerprint, FingerprintQuery(path));

  mark = Mark();
  auto loaded = storage::LoadSnapshot(path, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].op, QueryOp::kSnapshotLoad);
  EXPECT_EQ(recs[0].rows_out, loaded->info.triple_count);

  // A failing load is a record too.
  mark = Mark();
  ASSERT_FALSE(storage::LoadSnapshot(path + ".missing", {}).ok());
  recs = Since(mark);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_NE(recs[0].status, 0);
  std::remove(path.c_str());
}

// --- the ring ----------------------------------------------------------------

TEST_F(QueryLogTest, RingIsBoundedWithMonotoneIds) {
  QueryLogConfig config;
  config.ring_capacity = 32;
  QueryLog::Global().Configure(std::move(config));

  const uint64_t appended_before = QueryLog::Global().total_appended();
  for (int i = 0; i < 500; ++i) {
    QueryRecord rec;
    rec.op = QueryOp::kSparqlExecute;
    EXPECT_GT(QueryLog::Global().Append(rec), 0u);
    EXPECT_GT(rec.id, 0u);  // assigned in place
  }
  EXPECT_EQ(QueryLog::Global().total_appended(), appended_before + 500);

  std::vector<QueryRecord> recs = QueryLog::Global().Snapshot();
  EXPECT_LE(recs.size(), 32u);
  EXPECT_FALSE(recs.empty());
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GT(recs[i].id, recs[i - 1].id);
  }
}

TEST_F(QueryLogTest, DisabledRecorderAppendsNothing) {
  QueryLog::Global().SetEnabled(false);
  engine::QueryEngine engine(*store);
  const uint64_t before = QueryLog::Global().total_appended();
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  EXPECT_EQ(QueryLog::Global().total_appended(), before);
  QueryLog::Global().SetEnabled(true);
}

// --- JSONL sink --------------------------------------------------------------

TEST_F(QueryLogTest, JsonlSinkEmitsOneValidJsonObjectPerRecord) {
  const std::string path =
      ::testing::TempDir() + "re2x_query_log_test_sink.jsonl";
  std::remove(path.c_str());
  QueryLogConfig config;
  config.slow_threshold_millis = -1;
  config.sink_path = path;
  QueryLog::Global().Configure(std::move(config));

  engine::QueryEngine engine(*store);
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  ASSERT_FALSE(engine
                   .ExecuteText(
                       "SELECT ?obs WHERE { ?obs a <http://test/Observation> }"
                       " ORDER BY ?nonexistent")
                   .ok());
  QueryLog::Global().Flush();
  // Detach the sink before reading (also closes the FILE*).
  QueryLog::Global().Configure(QueryLogConfig{});

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  bool saw_hit = false, saw_error = false;
  while (std::getline(in, line)) {
    ++lines;
    std::string error;
    EXPECT_TRUE(IsValidJson(line, &error)) << error << "\n" << line;
    saw_hit = saw_hit || line.find("\"cache\": \"hit\"") != std::string::npos;
    saw_error =
        saw_error || line.find("\"status\": \"OK\"") == std::string::npos;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_TRUE(saw_hit);
  EXPECT_TRUE(saw_error);
  std::remove(path.c_str());
}

TEST_F(QueryLogTest, ToJsonLineIsValidAndCarriesTheSchema) {
  QueryRecord rec;
  rec.id = 7;
  rec.op = QueryOp::kEngineExecute;
  rec.fingerprint = 0xdeadbeefcafef00dull;
  rec.freeze_epoch = 3;
  rec.cache = CacheOutcome::kMiss;
  rec.status = static_cast<uint8_t>(util::StatusCode::kTimeout);
  rec.degraded = true;
  rec.retries = 1;
  rec.rows_out = 42;
  rec.total_millis = 1.5;
  const std::string line = QueryLog::ToJsonLine(rec);
  std::string error;
  EXPECT_TRUE(IsValidJson(line, &error)) << error << "\n" << line;
  for (const char* key :
       {"\"id\": 7", "\"op\": \"engine.execute\"",
        "\"fingerprint\": \"deadbeefcafef00d\"", "\"epoch\": 3",
        "\"cache\": \"miss\"", "\"status\": \"Timeout\"",
        "\"degraded\": true", "\"retries\": 1", "\"rows\": 42",
        "\"total_ms\": 1.500"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << "\n" << line;
  }
}

// --- introspection report ----------------------------------------------------

TEST_F(QueryLogTest, IntrospectionReportAggregatesTheRing) {
  QueryLogConfig config;
  config.slow_threshold_millis = 0;  // capture something for the report
  QueryLog::Global().Configure(std::move(config));

  engine::QueryEngine engine(*store);
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  ASSERT_FALSE(engine
                   .ExecuteText(
                       "SELECT ?obs WHERE { ?obs a <http://test/Observation> }"
                       " ORDER BY ?nonexistent")
                   .ok());

  std::ostringstream os;
  QueryLog::Global().WriteIntrospectionReport(os);
  const std::string report = os.str();
  // miss + hit + error-after-miss: one hit out of three cache probes.
  for (const char* expected :
       {"introspection report", "engine.execute", "cache hit 1/3",
        "-- error breakdown --", "-- top", "-- slow-query log --",
        "-- thread pool --", "-- metrics registry --", "p999"}) {
    EXPECT_NE(report.find(expected), std::string::npos)
        << "missing \"" << expected << "\" in:\n"
        << report;
  }
}

// --- concurrency (exercised under TSan in CI) --------------------------------

TEST_F(QueryLogTest, ConcurrentAppendSnapshotAndReport) {
  QueryLogConfig config;
  config.ring_capacity = 256;
  QueryLog::Global().Configure(std::move(config));

  const uint64_t before = QueryLog::Global().total_appended();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      QueryLog::Global().Snapshot();
      std::ostringstream os;
      QueryLog::Global().WriteIntrospectionReport(os, /*top_n=*/3);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRecord rec;
        rec.op = QueryOp::kSparqlExecute;
        rec.total_millis = 0.1;
        QueryLog::Global().Append(rec);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(QueryLog::Global().total_appended(),
            before + kThreads * kPerThread);
  std::vector<QueryRecord> recs = QueryLog::Global().Snapshot();
  EXPECT_LE(recs.size(), 256u);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GT(recs[i].id, recs[i - 1].id);
  }
}

}  // namespace
}  // namespace re2xolap::obs
