#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/config.h"
#include "engine/database.h"
#include "engine/engines.h"
#include "util/fs_util.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace nodb {
namespace {

/// Generates one tiny TPC-H dataset per test binary run.
class TpchEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    dir_ = new TempDir();
    TpchSpec spec;
    spec.scale_factor = 0.002;  // ~12k lineitem rows: fast but non-trivial
    ASSERT_TRUE(GenerateTpch(dir_->path(), spec).ok());
  }
  void TearDown() override { delete dir_; }

  static std::string Dir() { return dir_->path(); }

 private:
  static TempDir* dir_;
};
TempDir* TpchEnv::dir_ = nullptr;

const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new TpchEnv);

std::unique_ptr<Database> RawEngineWithTables(
    const std::vector<std::string>& tables,
    SystemUnderTest sut = SystemUnderTest::kPostgresRawPMC) {
  auto db = MakeEngine(sut);
  for (const std::string& t : tables) {
    EXPECT_TRUE(
        db->RegisterCsv(t, TpchEnv::Dir() + "/" + t + ".csv", TpchSchema(t))
            .ok());
  }
  return db;
}

std::unique_ptr<Database> LoadedEngineWithTables(
    const std::vector<std::string>& tables) {
  auto db = MakeEngine(SystemUnderTest::kPostgreSQL);
  for (const std::string& t : tables) {
    auto load =
        db->LoadCsv(t, TpchEnv::Dir() + "/" + t + ".csv", TpchSchema(t));
    EXPECT_TRUE(load.ok()) << load.status();
  }
  return db;
}

// ---------------------------------------------------------------------
// Generator sanity
// ---------------------------------------------------------------------

TEST(TpchGenTest, AllFilesExistWithPlausibleSizes) {
  for (const std::string& t : TpchTableNames()) {
    std::string path = TpchEnv::Dir() + "/" + t + ".csv";
    auto size = FileSizeOf(path);
    ASSERT_TRUE(size.ok()) << path;
    EXPECT_GT(*size, 10u) << path;
  }
}

TEST(TpchGenTest, RowCountsMatchSpecShape) {
  auto db = RawEngineWithTables(TpchTableNames());
  std::map<std::string, int64_t> counts;
  for (const std::string& t : TpchTableNames()) {
    auto result = db->Execute("SELECT COUNT(*) FROM " + t);
    ASSERT_TRUE(result.ok()) << t << ": " << result.status();
    counts[t] = result->rows[0][0].int64();
  }
  EXPECT_EQ(counts["region"], 5);
  EXPECT_EQ(counts["nation"], 25);
  EXPECT_EQ(counts["supplier"], 20);    // 10000 * 0.002
  EXPECT_EQ(counts["customer"], 300);   // 150000 * 0.002
  EXPECT_EQ(counts["part"], 400);       // 200000 * 0.002
  EXPECT_EQ(counts["partsupp"], 1600);  // 4 per part
  EXPECT_EQ(counts["orders"], 3000);    // 1500000 * 0.002
  // lineitem: 1-7 lines per order, expectation ~4.
  EXPECT_GT(counts["lineitem"], 3 * counts["orders"]);
  EXPECT_LT(counts["lineitem"], 5 * counts["orders"]);
}

TEST(TpchGenTest, ForeignKeysResolve) {
  auto db = RawEngineWithTables({"orders", "customer", "lineitem"});
  // Every order's customer exists.
  auto orphans = db->Execute(
      "SELECT COUNT(*) FROM orders WHERE NOT EXISTS "
      "(SELECT * FROM customer WHERE c_custkey = o_custkey)");
  ASSERT_TRUE(orphans.ok()) << orphans.status();
  EXPECT_EQ(orphans->rows[0][0].int64(), 0);
  // Every lineitem's order exists.
  auto li_orphans = db->Execute(
      "SELECT COUNT(*) FROM lineitem WHERE NOT EXISTS "
      "(SELECT * FROM orders WHERE o_orderkey = l_orderkey)");
  ASSERT_TRUE(li_orphans.ok());
  EXPECT_EQ(li_orphans->rows[0][0].int64(), 0);
}

TEST(TpchGenTest, ValueDomains) {
  auto db = RawEngineWithTables({"lineitem", "part", "orders"});
  auto quantity = db->Execute(
      "SELECT MIN(l_quantity), MAX(l_quantity), MIN(l_discount), "
      "MAX(l_discount) FROM lineitem");
  ASSERT_TRUE(quantity.ok());
  EXPECT_GE(quantity->rows[0][0].f64(), 1.0);
  EXPECT_LE(quantity->rows[0][1].f64(), 50.0);
  EXPECT_GE(quantity->rows[0][2].f64(), 0.0);
  EXPECT_LE(quantity->rows[0][3].f64(), 0.10);

  auto dates = db->Execute(
      "SELECT MIN(o_orderdate), MAX(o_orderdate) FROM orders");
  ASSERT_TRUE(dates.ok());
  EXPECT_GE(dates->rows[0][0].ToString(), "1992-01-01");
  EXPECT_LE(dates->rows[0][1].ToString(), "1998-12-31");

  // Return flags take exactly the three spec values.
  auto flags = db->Execute(
      "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag");
  ASSERT_TRUE(flags.ok());
  std::set<std::string> seen;
  for (const Row& row : flags->rows) seen.insert(row[0].str());
  EXPECT_EQ(seen, (std::set<std::string>{"A", "N", "R"}));

  // PROMO parts exist (Q14 depends on them): ~1/6 of types.
  auto promo = db->Execute(
      "SELECT COUNT(*) FROM part WHERE p_type LIKE 'PROMO%'");
  ASSERT_TRUE(promo.ok());
  EXPECT_GT(promo->rows[0][0].int64(), 20);
  EXPECT_LT(promo->rows[0][0].int64(), 140);
}

// ---------------------------------------------------------------------
// Queries: raw in-situ vs loaded must agree; results must be non-degenerate
// ---------------------------------------------------------------------

class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, RawAndLoadedAgree) {
  int q = GetParam();
  std::string sql = TpchQuery(q);
  ASSERT_FALSE(sql.empty());
  auto tables = TpchQueryTables(q);

  auto raw = RawEngineWithTables(tables);
  auto external = RawEngineWithTables(tables, SystemUnderTest::kExternalFiles);
  auto loaded = LoadedEngineWithTables(tables);

  QueryResult first;
  for (int repeat = 0; repeat < 2; ++repeat) {  // warm adaptive structures
    auto raw_result = raw->Execute(sql);
    ASSERT_TRUE(raw_result.ok()) << "Q" << q << ": " << raw_result.status();
    auto loaded_result = loaded->Execute(sql);
    ASSERT_TRUE(loaded_result.ok())
        << "Q" << q << ": " << loaded_result.status();
    auto external_result = external->Execute(sql);
    ASSERT_TRUE(external_result.ok())
        << "Q" << q << ": " << external_result.status();
    EXPECT_EQ(raw_result->Canonical(true), loaded_result->Canonical(true))
        << "Q" << q << " repeat " << repeat;
    EXPECT_EQ(raw_result->Canonical(true), external_result->Canonical(true))
        << "Q" << q << " (external files) repeat " << repeat;
    if (repeat == 0) first = std::move(*raw_result);
  }
  // Non-degenerate results per query.
  switch (q) {
    case 1:
      EXPECT_GE(first.rows.size(), 3u);   // returnflag x linestatus groups
      EXPECT_LE(first.rows.size(), 6u);
      break;
    case 3:
      EXPECT_GT(first.rows.size(), 0u);
      EXPECT_LE(first.rows.size(), 10u);  // LIMIT 10
      break;
    case 4:
      EXPECT_EQ(first.rows.size(), 5u);   // five order priorities
      break;
    case 6:
      ASSERT_EQ(first.rows.size(), 1u);
      EXPECT_GT(first.rows[0][0].f64(), 0.0);
      break;
    case 10:
      EXPECT_GT(first.rows.size(), 0u);
      EXPECT_LE(first.rows.size(), 20u);
      break;
    case 12:
      EXPECT_EQ(first.rows.size(), 2u);   // MAIL, SHIP
      break;
    case 14: {
      ASSERT_EQ(first.rows.size(), 1u);
      double pct = first.rows[0][0].f64();
      EXPECT_GT(pct, 1.0);    // PROMO share in percent
      EXPECT_LT(pct, 60.0);
      break;
    }
    case 19:
      ASSERT_EQ(first.rows.size(), 1u);
      break;
    default:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::ValuesIn(TpchQueryNumbers()),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Plans: statistics reorder joins and factor OR conjuncts into scans; the
// answers must not move
// ---------------------------------------------------------------------

TEST(TpchPlanTest, StatsDrivenAndFromOrderPlansAgree) {
  // Warm stats-driven engine: largest input drives, small sides are built,
  // shared OR conjuncts run in the scans, hash aggregation.
  auto planned = RawEngineWithTables(TpchTableNames());
  // No statistics: FROM-order joins and sort aggregation.
  EngineConfig blind_config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  blind_config.statistics = false;
  Database blind(blind_config);
  for (const std::string& t : TpchTableNames()) {
    ASSERT_TRUE(
        blind.RegisterCsv(t, TpchEnv::Dir() + "/" + t + ".csv", TpchSchema(t))
            .ok());
  }
  for (int q : TpchQueryNumbers()) {  // gathers the statistics
    ASSERT_TRUE(planned->Execute(TpchQuery(q)).ok()) << "Q" << q;
  }
  auto q19 = planned->Explain(TpchQuery(19));
  ASSERT_TRUE(q19.ok());
  EXPECT_EQ(q19->rfind("Driver: Scan lineitem filter=", 0), 0u) << *q19;

  for (int q : TpchQueryNumbers()) {
    const std::string sql = TpchQuery(q);
    auto want = blind.Execute(sql);
    ASSERT_TRUE(want.ok()) << "Q" << q << ": " << want.status();
    auto got = planned->Execute(sql);
    ASSERT_TRUE(got.ok()) << "Q" << q << ": " << got.status();
    EXPECT_EQ(got->Canonical(true), want->Canonical(true)) << "Q" << q;
  }
}

TEST(TpchPlanTest, FactoredOrMatchesUnfactoredWithNulls) {
  // t.a is the column every disjunct filters on; a third of its cells (and
  // of x, y and u.v) are NULL, so three-valued logic decides many rows.
  TempDir dir;
  std::string t_csv, u_csv;
  for (int id = 0; id < 108; ++id) {
    auto cell = [&](int slot, const char* const* values) {
      int i = (id / slot) % 3;
      return std::string(values[i]);
    };
    static const char* const kA[] = {"", "1", "5"};
    static const char* const kX[] = {"2", "", "7"};
    static const char* const kY[] = {"p", "q", ""};
    static const char* const kV[] = {"", "4", "9"};
    t_csv += std::to_string(id) + "," + cell(1, kA) + "," + cell(3, kX) +
             "," + cell(9, kY) + "\n";
    u_csv += std::to_string(id) + "," + cell(27, kV) + "\n";
  }
  ASSERT_TRUE(WriteStringToFile(dir.File("t.csv"), t_csv).ok());
  ASSERT_TRUE(WriteStringToFile(dir.File("u.csv"), u_csv).ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->RegisterCsv("t", dir.File("t.csv"),
                              Schema{{"id", TypeId::kInt64},
                                     {"a", TypeId::kInt64},
                                     {"x", TypeId::kInt64},
                                     {"y", TypeId::kString}})
                  .ok());
  ASSERT_TRUE(db->RegisterCsv("u", dir.File("u.csv"),
                              Schema{{"uid", TypeId::kInt64},
                                     {"v", TypeId::kInt64}})
                  .ok());

  // Each predicate runs as a WHERE clause (factored, its shared conjunct
  // pushed into t's scan) and wrapped in CASE, which the planner leaves
  // whole: a row passes WHERE only where the predicate is TRUE.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"t", "(a > 2 AND x < 5) OR (a > 2 AND y = 'q')"},
      {"t", "(a > 2 AND x < 5) OR (x < 5 AND a > 2 AND y IS NULL)"},
      {"t", "a > 2 OR (a > 2 AND y = 'q')"},
      {"t", "(a IS NULL AND x > 5) OR (y = 'p' AND a IS NULL)"},
      {"t, u", "id = uid AND ((a > 2 AND v < 5) OR (a > 2 AND x > 5))"},
      {"t, u", "id = uid AND ((a < 2 AND v > 5 AND y = 'p') OR "
               "(y = 'p' AND a < 2 AND v IS NULL))"},
  };
  for (int pass = 0; pass < 2; ++pass) {  // cold, then with statistics
    for (const auto& [from, predicate] : cases) {
      std::string head = "SELECT id FROM " + from + " WHERE ";
      std::string where_sql = head + predicate;
      std::string case_sql = head;
      if (from == "t, u") case_sql += "id = uid AND ";
      case_sql += "CASE WHEN " + predicate + " THEN 1 ELSE 0 END = 1";
      auto want = db->Execute(case_sql);
      ASSERT_TRUE(want.ok()) << case_sql << ": " << want.status();
      if (from == "t, u") {  // the shared conjuncts reach t's scan
        auto plan = db->Explain(where_sql);
        ASSERT_TRUE(plan.ok());
        EXPECT_NE(plan->find("Scan t filter="), std::string::npos) << *plan;
      }
      auto got = db->Execute(where_sql);
      ASSERT_TRUE(got.ok()) << where_sql << ": " << got.status();
      EXPECT_GT(want->rows.size(), 0u) << case_sql;
      EXPECT_EQ(got->Canonical(true), want->Canonical(true))
          << where_sql << " (pass " << pass << ")";
    }
  }
}

TEST(TpchPlanTest, FactoredOrKeepsLiteralsThatRenderAlike) {
  // s IN ('a', 'b') and s IN ('a, b') print alike in EXPLAIN but are
  // different predicates: neither may be factored out of the OR.
  TempDir dir;
  ASSERT_TRUE(WriteStringToFile(dir.File("t.csv"),
                                "1|-1|a, b\n2|3|a\n3|-1|a\n4|3|a, b\n")
                  .ok());
  CsvDialect dialect;
  dialect.delimiter = '|';
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->RegisterCsv("t", dir.File("t.csv"),
                              Schema{{"id", TypeId::kInt64},
                                     {"x", TypeId::kInt64},
                                     {"s", TypeId::kString}},
                              dialect)
                  .ok());
  const std::string sql =
      "SELECT id FROM t WHERE (x > 1 AND s IN ('a', 'b')) OR "
      "(x < 0 AND s IN ('a, b')) ORDER BY id";
  for (int pass = 0; pass < 2; ++pass) {  // cold, then with statistics
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->rows.size(), 2u) << got->Canonical(true);
    EXPECT_EQ(got->rows[0][0].int64(), 1);
    EXPECT_EQ(got->rows[1][0].int64(), 2);
  }
}

TEST(TpchMetaTest, QueryTextAvailability) {
  for (int q : TpchQueryNumbers()) {
    EXPECT_FALSE(TpchQuery(q).empty()) << q;
    EXPECT_FALSE(TpchQueryTables(q).empty()) << q;
  }
  EXPECT_TRUE(TpchQuery(2).empty());
  EXPECT_TRUE(TpchQueryTables(2).empty());
}

TEST(TpchMetaTest, SchemasHaveSpecArity) {
  EXPECT_EQ(TpchSchema("lineitem").num_columns(), 16);
  EXPECT_EQ(TpchSchema("orders").num_columns(), 9);
  EXPECT_EQ(TpchSchema("customer").num_columns(), 8);
  EXPECT_EQ(TpchSchema("part").num_columns(), 9);
  EXPECT_EQ(TpchSchema("supplier").num_columns(), 7);
  EXPECT_EQ(TpchSchema("partsupp").num_columns(), 5);
  EXPECT_EQ(TpchSchema("nation").num_columns(), 4);
  EXPECT_EQ(TpchSchema("region").num_columns(), 3);
  EXPECT_EQ(TpchSchema("bogus").num_columns(), 0);
}

}  // namespace
}  // namespace nodb
