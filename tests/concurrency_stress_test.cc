#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/engines.h"
#include "json/jsonl_writer.h"
#include "util/fs_util.h"
#include "workload/micro.h"

namespace nodb {
namespace {

/// Deterministic concurrency stress: N querying threads hammer one table
/// while its positional map, cache and statistics warm up (and, with tight
/// budgets, churn through eviction and spilling). Every thread's every
/// result is checked against answers precomputed before the storm — the
/// adaptive structures are auxiliary, so no interleaving may ever change a
/// result. Run under ThreadSanitizer in CI (the `tsan` job), this is the
/// suite that proves the structures' internal locking, not just exercises
/// it.

struct StressSetup {
  MicroDataSpec spec;
  std::string csv;
  std::string jsonl;
};

StressSetup MakeData(TempDir* dir) {
  StressSetup s;
  s.spec.rows = 16000;
  s.spec.cols = 6;
  s.spec.seed = 20260731;
  s.csv = dir->File("stress.csv");
  s.jsonl = dir->File("stress.jsonl");
  EXPECT_TRUE(GenerateWideCsv(s.csv, s.spec).ok());
  EXPECT_TRUE(GenerateWideJsonl(s.jsonl, s.spec).ok());
  return s;
}

const char* kStressQueries[] = {
    "SELECT COUNT(*) AS n, SUM(a2) AS s FROM t WHERE a1 >= 0",
    "SELECT COUNT(a4) AS n FROM t WHERE a3 < 600000000",
    "SELECT SUM(a5) AS s FROM t WHERE a2 >= 250000000 AND a2 < 750000000",
    "SELECT COUNT(*) AS n FROM t WHERE a6 < 100000000",
};
constexpr int kNumStressQueries = 4;

/// Runs `threads` x `iters` queries concurrently against `db`, asserting
/// each result matches the expected canonical answers (precomputed on the
/// same engine, so the first run may be cold or warm — irrelevant, answers
/// never change).
void HammerDatabase(Database* db, int threads, int iters) {
  std::vector<std::string> expected;
  for (const char* sql : kStressQueries) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status();
    expected.push_back(r->Canonical(/*sorted=*/false));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        // Deterministic per-thread query sequence, staggered so different
        // threads overlap on different queries.
        int q = (t + i) % kNumStressQueries;
        auto r = db->Execute(kStressQueries[q]);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        if (r->Canonical(false) != expected[q]) ++mismatches;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyStressTest, SerialScansWarmOneCsvTableFromManyThreads) {
  TempDir dir;
  StressSetup s = MakeData(&dir);
  // Default budgets: the structures warm up once and every later query
  // hits them; concurrent scans race to install the same stripes.
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->RegisterCsv("t", s.csv, MicroSchema(s.spec)).ok());
  HammerDatabase(db.get(), 6, 6);
  EXPECT_EQ(db->runtime("t")->row_count.load(),
            static_cast<int64_t>(s.spec.rows));
}

TEST(ConcurrencyStressTest, SerialScansUnderTightBudgetsChurnSafely) {
  TempDir dir;
  StressSetup s = MakeData(&dir);
  // Tight budgets + small stripes: concurrent scans evict each other's
  // chunks and overcommit-check the accounting while queries run.
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.pm_budget_bytes = 48 * 1024;
  config.cache_budget_bytes = 96 * 1024;
  config.tuples_per_chunk = 512;
  Database db(config);
  ASSERT_TRUE(db.RegisterCsv("t", s.csv, MicroSchema(s.spec)).ok());
  HammerDatabase(&db, 6, 6);
  // The spine (never evicted) may exceed the budget on its own; beyond it
  // the accounting must hold chunks at or under the threshold.
  const uint64_t spine_bytes = s.spec.rows * sizeof(uint64_t);
  EXPECT_LE(db.runtime("t")->pmap->memory_bytes(),
            spine_bytes + 2 * config.pm_budget_bytes);
}

TEST(ConcurrencyStressTest, ParallelScansFromManyThreadsShareOnePool) {
  TempDir dir;
  StressSetup s = MakeData(&dir);
  // Parallel morsel scans *and* concurrent queries: every query fans out
  // workers onto the shared pool while other queries' merges install
  // fragments into the same map.
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.scan_threads = 3;
  config.scan_morsel_bytes = 48 * 1024;
  config.pm_budget_bytes = 64 * 1024;
  config.cache_budget_bytes = 128 * 1024;
  config.tuples_per_chunk = 512;
  Database db(config);
  ASSERT_TRUE(db.RegisterCsv("t", s.csv, MicroSchema(s.spec)).ok());
  HammerDatabase(&db, 5, 5);
}

TEST(ConcurrencyStressTest, JsonlBackingBehavesTheSame) {
  TempDir dir;
  StressSetup s = MakeData(&dir);
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.scan_threads = 2;
  config.scan_morsel_bytes = 64 * 1024;
  Database db(config);
  OpenOptions options;
  options.schema = MicroSchema(s.spec);
  ASSERT_TRUE(db.Open("t", s.jsonl, options).ok());
  ASSERT_EQ(db.runtime("t")->adapter->format_name(), "jsonl");
  HammerDatabase(&db, 4, 4);
}

TEST(ConcurrencyStressTest, MixedSerialAndParallelTablesInOneDatabase) {
  TempDir dir;
  StressSetup s = MakeData(&dir);
  // Per-table override: table "t" scans with 3 workers, table "u" stays
  // serial; threads query both through one catalog and one pool.
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  Database db(config);
  OpenOptions par_options;
  par_options.schema = MicroSchema(s.spec);
  par_options.scan_threads = 3;
  ASSERT_TRUE(db.Open("t", s.csv, par_options).ok());
  OpenOptions serial_options;
  serial_options.schema = MicroSchema(s.spec);
  ASSERT_TRUE(db.Open("u", s.csv, serial_options).ok());

  auto expected_t =
      db.Execute("SELECT COUNT(*) AS n, SUM(a2) AS s FROM t WHERE a1 >= 0");
  auto expected_u =
      db.Execute("SELECT COUNT(*) AS n, SUM(a2) AS s FROM u WHERE a1 >= 0");
  ASSERT_TRUE(expected_t.ok() && expected_u.ok());
  ASSERT_EQ(expected_t->Canonical(false), expected_u->Canonical(false));
  std::string want = expected_t->Canonical(false);

  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        const char* sql =
            (t + i) % 2 == 0
                ? "SELECT COUNT(*) AS n, SUM(a2) AS s FROM t WHERE a1 >= 0"
                : "SELECT COUNT(*) AS n, SUM(a2) AS s FROM u WHERE a1 >= 0";
        auto r = db.Execute(sql);
        if (!r.ok() || r->Canonical(false) != want) ++bad;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ConcurrencyStressTest, EarlyCloseUnderConcurrencyReleasesWorkers) {
  TempDir dir;
  StressSetup s = MakeData(&dir);
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.scan_threads = 3;
  config.scan_morsel_bytes = 32 * 1024;
  Database db(config);
  ASSERT_TRUE(db.RegisterCsv("t", s.csv, MicroSchema(s.spec)).ok());

  // Threads repeatedly open cursors and abandon them after one batch; the
  // pool must never wedge and full queries must keep working throughout.
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        auto cursor = db.Query("SELECT a1, a3 FROM t");
        if (!cursor.ok()) {
          ++bad;
          continue;
        }
        RowBatch batch = cursor->MakeBatch();
        auto n = cursor->Next(&batch);
        if (!n.ok() || *n == 0) ++bad;
        // Cursor destructor abandons the scan mid-stream.
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
  auto full = db.Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->rows[0][0].int64(), static_cast<int64_t>(s.spec.rows));
}

TEST(ConcurrencyStressTest, PromotionCyclesRacingScansNeverChangeAnswers) {
  TempDir dir;
  StressSetup s = MakeData(&dir);
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.promotion.enabled = true;
  config.promotion.min_scans = 1;
  // A budget fitting one column (16000 rows x sizeof(Value) ~ 768 KB) but
  // not two keeps the store churning: cycles promote whichever column is
  // currently hot and demote the cold incumbent, so scans race installs,
  // demotions and cache releases — the full tier-transition surface,
  // deterministically reachable.
  config.promotion.budget_bytes = 1000000;
  config.promotion.max_columns_per_cycle = 1;
  Database db(config);
  ASSERT_TRUE(db.RegisterCsv("t", s.csv, MicroSchema(s.spec)).ok());

  std::vector<std::string> expected;
  for (const char* sql : kStressQueries) {
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status();
    expected.push_back(r->Canonical(/*sorted=*/false));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        int q = (t + i) % kNumStressQueries;
        auto r = db.Execute(kStressQueries[q]);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        if (r->Canonical(false) != expected[q]) ++mismatches;
      }
    });
  }
  std::thread promoter([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto report = db.RunPromotionCycle("t");
      if (!report.ok() || !report->status.ok()) ++failures;
    }
  });
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  promoter.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // The storm must actually have exercised the tier transitions.
  uint64_t promotions = 0;
  for (const TableInfo& info : db.ListTables()) {
    if (info.name == "t") promotions = info.promotions;
  }
  EXPECT_GT(promotions, 0u);
  // And once the dust settles, answers still match the pre-storm truth.
  for (int q = 0; q < kNumStressQueries; ++q) {
    auto r = db.Execute(kStressQueries[q]);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->Canonical(false), expected[q]) << kStressQueries[q];
  }
}

}  // namespace
}  // namespace nodb
