#include <gtest/gtest.h>

#include "engine/engines.h"
#include "util/fs_util.h"
#include "util/rng.h"
#include "workload/micro.h"

namespace nodb {
namespace {

/// Behavioural tests for the adaptive machinery: these assert the paper's
/// *mechanisms* (map population, cache hits eliminating file access,
/// statistics changing plans) via counters and I/O accounting rather than
/// wall-clock time, so they are robust on any machine.
class AdaptiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.rows = 4000;
    spec_.cols = 20;
    spec_.seed = 11;
    csv_path_ = dir_.File("wide.csv");
    ASSERT_TRUE(GenerateWideCsv(csv_path_, spec_).ok());
  }

  std::unique_ptr<Database> Engine(SystemUnderTest sut,
                                   uint64_t pm_budget = UINT64_MAX,
                                   uint64_t cache_budget = UINT64_MAX) {
    EngineConfig config = EngineConfig::ForSystem(sut);
    config.pm_budget_bytes = pm_budget;
    config.cache_budget_bytes = cache_budget;
    config.tuples_per_chunk = 512;
    auto db = std::make_unique<Database>(config);
    EXPECT_TRUE(db->RegisterCsv("wide", csv_path_, MicroSchema(spec_)).ok());
    return db;
  }

  TempDir dir_;
  MicroDataSpec spec_;
  std::string csv_path_;
};

TEST_F(AdaptiveTest, PositionalMapPopulatesOnFirstQueryOnly) {
  auto db = Engine(SystemUnderTest::kPostgresRawPM);
  ASSERT_TRUE(db->Execute("SELECT a5, a17 FROM wide").ok());
  TableRuntime* rt = db->runtime("wide");
  ASSERT_NE(rt, nullptr);
  ASSERT_NE(rt->pmap, nullptr);
  // §4.2 Map Population: the requested attributes AND the intermediates
  // tokenized along the way are kept ("all positions from 1 to 15 may be
  // kept") — a5, a17 => columns 1..17 (indices 0..16).
  EXPECT_EQ(rt->pmap->num_positions(), 17 * spec_.rows);
  EXPECT_EQ(rt->row_count.load(), static_cast<int64_t>(spec_.rows));

  uint64_t positions_after_q1 = rt->pmap->num_positions();
  ASSERT_TRUE(db->Execute("SELECT a5, a17 FROM wide").ok());
  EXPECT_EQ(rt->pmap->num_positions(), positions_after_q1)
      << "repeat query must not re-index";
  // a9 lies inside the already-indexed range: nothing new to index.
  ASSERT_TRUE(db->Execute("SELECT a9 FROM wide").ok());
  EXPECT_EQ(rt->pmap->num_positions(), positions_after_q1);
  // a20 extends the indexed range by columns 18..20.
  ASSERT_TRUE(db->Execute("SELECT a20 FROM wide").ok());
  EXPECT_EQ(rt->pmap->num_positions(), 20 * spec_.rows);
}

TEST_F(AdaptiveTest, Fig2SemanticsWithoutIntermediateIndexing) {
  // With the "learn as much as possible" policy off, the map matches the
  // paper's Fig. 2 illustration exactly: only requested attributes.
  EngineConfig config = EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPM);
  config.index_intermediates = false;
  config.tuples_per_chunk = 512;
  Database db(config);
  ASSERT_TRUE(db.RegisterCsv("wide", csv_path_, MicroSchema(spec_)).ok());
  ASSERT_TRUE(db.Execute("SELECT a5, a17 FROM wide").ok());
  TableRuntime* rt = db.runtime("wide");
  EXPECT_EQ(rt->pmap->num_positions(), 2 * spec_.rows);
  ASSERT_TRUE(db.Execute("SELECT a9 FROM wide").ok());
  EXPECT_EQ(rt->pmap->num_positions(), 3 * spec_.rows);
}

TEST_F(AdaptiveTest, SecondQueryUsesMapAnchors) {
  auto db = Engine(SystemUnderTest::kPostgresRawPM);
  ASSERT_TRUE(db->Execute("SELECT a4, a8 FROM wide").ok());
  TableRuntime* rt = db->runtime("wide");
  uint64_t anchor_hits_before = rt->pmap->counters().anchor_hits;
  uint64_t exact_before = rt->pmap->counters().exact_hits;
  // a9 sits just past indexed a8: the scan should anchor on neighbours
  // rather than tokenize from the row start (paper's "jump to the 8th
  // attribute and parse until it finds the 9th").
  ASSERT_TRUE(db->Execute("SELECT a9 FROM wide").ok());
  uint64_t used = (rt->pmap->counters().anchor_hits - anchor_hits_before) +
                  (rt->pmap->counters().exact_hits - exact_before);
  EXPECT_GT(used, 0u);
}

TEST_F(AdaptiveTest, FullyCachedQueryDoesNoFileIO) {
  auto db = Engine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->Execute("SELECT a1, a2 FROM wide").ok());
  TableRuntime* rt = db->runtime("wide");
  uint64_t bytes_after_q1 = rt->adapter->file()->bytes_read();
  EXPECT_GT(bytes_after_q1, 0u);
  // Same attributes again: served from the cache, zero raw-file reads.
  ASSERT_TRUE(db->Execute("SELECT a1, a2 FROM wide").ok());
  EXPECT_EQ(rt->adapter->file()->bytes_read(), bytes_after_q1);
  EXPECT_GT(rt->cache->counters().hits, 0u);
  // A different attribute must hit the file again.
  ASSERT_TRUE(db->Execute("SELECT a3 FROM wide").ok());
  EXPECT_GT(rt->adapter->file()->bytes_read(), bytes_after_q1);
}

TEST_F(AdaptiveTest, CacheRespectsBudgetUnderShiftingWorkload) {
  // Epochs over different column ranges, as in the paper's Fig. 6; a capped
  // cache must stay within budget while adapting.
  uint64_t cache_budget = 256 * 1024;
  auto db = Engine(SystemUnderTest::kPostgresRawPMC, UINT64_MAX, cache_budget);
  TableRuntime* rt = db->runtime("wide");
  Rng rng(3);
  struct Epoch {
    int lo, hi;
  };
  for (Epoch epoch : {Epoch{1, 10}, Epoch{11, 20}, Epoch{5, 15}}) {
    for (int q = 0; q < 8; ++q) {
      std::string sql =
          RandomProjectionQuery("wide", spec_.cols, 3, &rng, epoch.lo,
                                epoch.hi);
      ASSERT_TRUE(db->Execute(sql).ok()) << sql;
      ASSERT_LE(rt->cache->memory_bytes(), cache_budget);
    }
  }
  EXPECT_GT(rt->cache->counters().evictions, 0u);
  EXPECT_GT(rt->cache->utilization(), 0.5);
}

TEST_F(AdaptiveTest, PositionalMapRespectsBudget) {
  uint64_t pm_budget = 64 * 1024;
  auto db = Engine(SystemUnderTest::kPostgresRawPM, pm_budget);
  TableRuntime* rt = db->runtime("wide");
  Rng rng(5);
  for (int q = 0; q < 12; ++q) {
    std::string sql = RandomProjectionQuery("wide", spec_.cols, 5, &rng);
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    ASSERT_LE(rt->pmap->memory_bytes(), pm_budget);
  }
  EXPECT_GT(rt->pmap->counters().chunks_evicted, 0u);
}

TEST_F(AdaptiveTest, StatisticsArriveAdaptivelyAndChangePlans) {
  auto db = Engine(SystemUnderTest::kPostgresRawPMC);
  // Before any query: no statistics -> conservative sort aggregation.
  EXPECT_EQ(db->GetTableStats("wide"), nullptr);
  auto plan_cold = db->Explain(
      "SELECT a1, COUNT(*) FROM wide GROUP BY a1");
  ASSERT_TRUE(plan_cold.ok());
  EXPECT_NE(plan_cold->find("SortAggregate"), std::string::npos);

  // Any touching query builds statistics for the attributes it reads.
  ASSERT_TRUE(db->Execute("SELECT a1, COUNT(*) FROM wide GROUP BY a1").ok());
  ASSERT_NE(db->GetTableStats("wide"), nullptr);
  EXPECT_TRUE(db->GetTableStats("wide")->HasAttr(0));
  EXPECT_FALSE(db->GetTableStats("wide")->HasAttr(5))
      << "statistics only for requested attributes";

  auto plan_warm = db->Explain(
      "SELECT a1, COUNT(*) FROM wide GROUP BY a1");
  ASSERT_TRUE(plan_warm.ok());
  EXPECT_NE(plan_warm->find("HashAggregate"), std::string::npos)
      << "statistics should flip the aggregation strategy (Fig. 12)";
}

TEST_F(AdaptiveTest, BaselineKeepsNoState) {
  auto db = Engine(SystemUnderTest::kPostgresRawBaseline);
  ASSERT_TRUE(db->Execute("SELECT a1 FROM wide").ok());
  TableRuntime* rt = db->runtime("wide");
  EXPECT_EQ(rt->pmap, nullptr);
  EXPECT_EQ(rt->cache, nullptr);
  EXPECT_EQ(db->GetTableStats("wide"), nullptr);
  uint64_t bytes_q1 = rt->adapter->file()->bytes_read();
  ASSERT_TRUE(db->Execute("SELECT a1 FROM wide").ok());
  // Straw-man re-reads the file every time.
  EXPECT_GE(rt->adapter->file()->bytes_read(), 2 * bytes_q1 - 16);
}

TEST_F(AdaptiveTest, CacheOnlyVariantKeepsEndOfLineMap) {
  auto db = Engine(SystemUnderTest::kPostgresRawC);
  ASSERT_TRUE(db->Execute("SELECT a1 FROM wide").ok());
  TableRuntime* rt = db->runtime("wide");
  // The paper's C variant: cache plus "a minimal map maintaining positional
  // information only for the end of lines" — spine yes, attr positions no.
  ASSERT_NE(rt->pmap, nullptr);
  EXPECT_EQ(rt->pmap->num_positions(), 0u);
  EXPECT_EQ(rt->pmap->contiguous_rows_known(), spec_.rows);
  ASSERT_NE(rt->cache, nullptr);
  EXPECT_GT(rt->cache->memory_bytes(), 0u);
}

TEST_F(AdaptiveTest, SelectiveParsingSkipsPayloadOfDisqualifiedTuples) {
  // With selective parsing, payload attributes of non-qualifying tuples are
  // never converted; the cache therefore holds only the WHERE column after
  // a selective query (payload chunks are incomplete and not published).
  auto db = Engine(SystemUnderTest::kPostgresRawPMC);
  TableRuntime* rt = db->runtime("wide");
  ASSERT_TRUE(
      db->Execute("SELECT a2 FROM wide WHERE a1 < 100000").ok());
  EXPECT_GT(rt->cache->memory_bytes(), 0u);
  // a1 (WHERE) chunks are cached; a2 (payload, ~0.01% selectivity) is not.
  uint64_t stripes = (spec_.rows + 511) / 512;
  int a1_cached = 0, a2_cached = 0;
  for (uint64_t s = 0; s < stripes; ++s) {
    if (rt->cache->Contains(s, 0)) ++a1_cached;
    if (rt->cache->Contains(s, 1)) ++a2_cached;
  }
  EXPECT_EQ(a1_cached, static_cast<int>(stripes));
  EXPECT_EQ(a2_cached, 0);
}

TEST_F(AdaptiveTest, AdaptiveStructuresSurviveHundredsOfQueries) {
  auto db = Engine(SystemUnderTest::kPostgresRawPMC, 128 * 1024, 128 * 1024);
  TableRuntime* rt = db->runtime("wide");
  Rng rng(9);
  std::string expected_count;
  for (int q = 0; q < 60; ++q) {
    std::string sql = RandomProjectionQuery("wide", spec_.cols, 4, &rng);
    auto result = db->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << "\n" << result.status();
    EXPECT_EQ(result->rows.size(), spec_.rows) << sql;
    ASSERT_LE(rt->pmap->memory_bytes(), 128 * 1024u);
    ASSERT_LE(rt->cache->memory_bytes(), 128 * 1024u);
  }
}

}  // namespace
}  // namespace nodb
