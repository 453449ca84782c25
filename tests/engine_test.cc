#include <gtest/gtest.h>

#include "engine/engines.h"
#include "fits/fits_writer.h"
#include "util/fs_util.h"
#include "workload/micro.h"

namespace nodb {
namespace {

/// Shared fixture: a small typed CSV table.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csv_path_ = dir_.File("people.csv");
    ASSERT_TRUE(WriteStringToFile(csv_path_,
                                  "1,alice,30,9000.5,2020-01-01\n"
                                  "2,bob,25,100.25,2021-06-15\n"
                                  "3,carol,35,5000,2019-12-31\n"
                                  "4,dave,25,,2022-03-03\n"
                                  "5,erin,41,7500.75,2020-07-07\n")
                    .ok());
    schema_ = Schema{{"id", TypeId::kInt64},
                     {"name", TypeId::kString},
                     {"age", TypeId::kInt64},
                     {"balance", TypeId::kDouble},
                     {"joined", TypeId::kDate}};
  }

  std::unique_ptr<Database> Raw(SystemUnderTest sut =
                                    SystemUnderTest::kPostgresRawPMC) {
    auto db = MakeEngine(sut);
    EXPECT_TRUE(db->RegisterCsv("people", csv_path_, schema_).ok());
    return db;
  }

  std::unique_ptr<Database> Loaded(SystemUnderTest sut =
                                       SystemUnderTest::kPostgreSQL) {
    auto db = MakeEngine(sut);
    EngineConfig cfg = db->config();
    EXPECT_TRUE(db->LoadCsv("people", csv_path_, schema_).ok());
    return db;
  }

  TempDir dir_;
  std::string csv_path_;
  Schema schema_;
};

TEST_F(EngineTest, SelectStarRaw) {
  auto db = Raw();
  auto result = db->Execute("SELECT * FROM people");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(result->schema.num_columns(), 5);
  EXPECT_EQ(result->rows[0][1].str(), "alice");
  EXPECT_TRUE(result->rows[3][3].is_null());  // dave's empty balance
}

TEST_F(EngineTest, ProjectionAndFilter) {
  auto db = Raw();
  auto result = db->Execute(
      "SELECT name FROM people WHERE age = 25 ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].str(), "bob");
  EXPECT_EQ(result->rows[1][0].str(), "dave");
}

TEST_F(EngineTest, AggregatesGlobal) {
  auto db = Raw();
  auto result = db->Execute(
      "SELECT COUNT(*), SUM(age), MIN(name), MAX(joined), AVG(balance) "
      "FROM people");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int64(), 5);
  EXPECT_EQ(result->rows[0][1].int64(), 156);
  EXPECT_EQ(result->rows[0][2].str(), "alice");
  EXPECT_EQ(result->rows[0][3].ToString(), "2022-03-03");
  // AVG ignores dave's NULL balance: (9000.5+100.25+5000+7500.75)/4.
  EXPECT_DOUBLE_EQ(result->rows[0][4].f64(), 21601.5 / 4.0);
}

TEST_F(EngineTest, GroupBy) {
  auto db = Raw();
  auto result = db->Execute(
      "SELECT age, COUNT(*) AS n FROM people GROUP BY age ORDER BY age");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->rows[0][0].int64(), 25);
  EXPECT_EQ(result->rows[0][1].int64(), 2);
}

TEST_F(EngineTest, DateComparisonAndArithmetic) {
  auto db = Raw();
  auto result = db->Execute(
      "SELECT id FROM people WHERE joined >= DATE '2020-06-01' "
      "ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 3u);  // bob, dave, erin
  auto interval = db->Execute(
      "SELECT id FROM people "
      "WHERE joined < DATE '2020-01-01' + INTERVAL '10' DAY ORDER BY id");
  ASSERT_TRUE(interval.ok()) << interval.status();
  ASSERT_EQ(interval->rows.size(), 2u);  // alice (01-01), carol (2019)
}

TEST_F(EngineTest, LimitAndOrderDesc) {
  auto db = Raw();
  auto result = db->Execute(
      "SELECT name, age FROM people ORDER BY age DESC, name LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].str(), "erin");
  EXPECT_EQ(result->rows[1][0].str(), "carol");
}

TEST_F(EngineTest, RepeatedQueriesStayCorrectAsStructuresWarm) {
  // The adaptive structures must never change answers — only speed.
  auto db = Raw();
  std::string expected;
  for (int i = 0; i < 5; ++i) {
    auto result = db->Execute(
        "SELECT id, balance FROM people WHERE age > 24 ORDER BY id");
    ASSERT_TRUE(result.ok()) << result.status();
    std::string canonical = result->Canonical(false);
    if (i == 0) {
      expected = canonical;
    } else {
      EXPECT_EQ(canonical, expected) << "query " << i;
    }
  }
  // After a full scan the row count is known.
  EXPECT_EQ(db->GetRowCount("people"), 5);
}

TEST_F(EngineTest, AllRawVariantsAgree) {
  auto reference = Raw(SystemUnderTest::kPostgresRawPMC);
  auto expected = reference->Execute("SELECT name, age FROM people "
                                     "WHERE balance > 1000 ORDER BY name");
  ASSERT_TRUE(expected.ok());
  for (SystemUnderTest sut :
       {SystemUnderTest::kPostgresRawPM, SystemUnderTest::kPostgresRawC,
        SystemUnderTest::kPostgresRawBaseline,
        SystemUnderTest::kExternalFiles}) {
    auto db = Raw(sut);
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto result = db->Execute("SELECT name, age FROM people "
                                "WHERE balance > 1000 ORDER BY name");
      ASSERT_TRUE(result.ok())
          << SystemUnderTestName(sut) << ": " << result.status();
      EXPECT_EQ(result->Canonical(false), expected->Canonical(false))
          << SystemUnderTestName(sut) << " repeat " << repeat;
    }
  }
}

TEST_F(EngineTest, LoadedEnginesAgreeWithRaw) {
  auto raw = Raw();
  auto expected =
      raw->Execute("SELECT age, COUNT(*) AS n, SUM(balance) AS total "
                   "FROM people GROUP BY age ORDER BY age");
  ASSERT_TRUE(expected.ok());
  for (SystemUnderTest sut :
       {SystemUnderTest::kPostgreSQL, SystemUnderTest::kDbmsX,
        SystemUnderTest::kMySQL}) {
    auto db = Loaded(sut);
    auto result =
        db->Execute("SELECT age, COUNT(*) AS n, SUM(balance) AS total "
                    "FROM people GROUP BY age ORDER BY age");
    ASSERT_TRUE(result.ok())
        << SystemUnderTestName(sut) << ": " << result.status();
    EXPECT_EQ(result->Canonical(false), expected->Canonical(false))
        << SystemUnderTestName(sut);
  }
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  auto db = Raw();
  EXPECT_FALSE(db->Execute("SELECT nope FROM people").ok());
  EXPECT_FALSE(db->Execute("SELECT * FROM missing_table").ok());
  EXPECT_FALSE(db->Execute("SELEC * FROM people").ok());
  EXPECT_FALSE(db->Execute("SELECT name FROM people WHERE age = 'x'").ok());
}

TEST_F(EngineTest, MissingFileSurfacesIOErrorOnRegisterAndLoad) {
  std::string ghost = dir_.File("does_not_exist.csv");
  auto raw = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  Status reg = raw->RegisterCsv("ghost", ghost, schema_);
  EXPECT_EQ(reg.code(), StatusCode::kIOError);
  EXPECT_NE(reg.message().find("does_not_exist.csv"), std::string::npos)
      << "error should name the offending file: " << reg.ToString();
  EXPECT_FALSE(raw->HasTable("ghost"));

  auto loaded = MakeEngine(SystemUnderTest::kPostgreSQL);
  auto load = loaded->LoadCsv("ghost", ghost, schema_);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(loaded->HasTable("ghost"));
}

TEST_F(EngineTest, ShortRowsYieldNullsConsistentlyAcrossEngines) {
  // A ragged file: row 2 stops after two of five columns. Missing trailing
  // attributes read as NULL, identically in raw and loaded engines.
  std::string ragged = dir_.File("ragged.csv");
  ASSERT_TRUE(WriteStringToFile(ragged,
                                "1,alice,30,9000.5,2020-01-01\n"
                                "2,bob\n"
                                "3,carol,35,5000,2019-12-31\n")
                  .ok());
  auto raw = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(raw->RegisterCsv("r", ragged, schema_).ok());
  auto loaded = MakeEngine(SystemUnderTest::kPostgreSQL);
  ASSERT_TRUE(loaded->LoadCsv("r", ragged, schema_).ok());

  for (const char* sql :
       {"SELECT id, age FROM r", "SELECT id FROM r WHERE age IS NULL",
        "SELECT COUNT(*) AS n, COUNT(age) AS a FROM r"}) {
    auto want = raw->Execute(sql);
    ASSERT_TRUE(want.ok()) << sql << "\n" << want.status();
    auto got = loaded->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << "\n" << got.status();
    EXPECT_EQ(got->Canonical(true), want->Canonical(true)) << sql;
  }
  auto nulls = raw->Execute("SELECT id FROM r WHERE age IS NULL");
  ASSERT_TRUE(nulls.ok());
  ASSERT_EQ(nulls->rows.size(), 1u);
  EXPECT_EQ(nulls->rows[0][0].int64(), 2);
}

TEST_F(EngineTest, MalformedCellSurfacesInvalidArgument) {
  // Type/schema mismatch: 'xx' under an Int64 column. The loaded engine
  // rejects the file at load time; the in-situ engine defers the conversion
  // and fails only when a query actually touches the bad attribute.
  std::string bad = dir_.File("bad_cell.csv");
  ASSERT_TRUE(WriteStringToFile(bad,
                                "1,alice,30,1.5,2020-01-01\n"
                                "2,bob,xx,2.5,2021-06-15\n")
                  .ok());
  auto loaded = MakeEngine(SystemUnderTest::kPostgreSQL);
  auto load = loaded->LoadCsv("b", bad, schema_);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kInvalidArgument);

  auto raw = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(raw->RegisterCsv("b", bad, schema_).ok());
  // Selective parsing: queries that never convert the bad cell succeed.
  EXPECT_TRUE(raw->Execute("SELECT id, name FROM b").ok());
  auto touch = raw->Execute("SELECT age FROM b");
  ASSERT_FALSE(touch.ok());
  EXPECT_EQ(touch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(touch.status().message().find("xx"), std::string::npos)
      << touch.status().ToString();
  // The failure is per-query, not sticky: the table stays usable.
  EXPECT_TRUE(raw->Execute("SELECT name FROM b WHERE id = 2").ok());
}

TEST_F(EngineTest, QueryErrorsCarrySpecificStatusCodes) {
  auto db = Raw();
  EXPECT_EQ(db->Execute("SELECT * FROM missing_table").status().code(),
            StatusCode::kNotFound);
  auto parse_err = db->Execute("SELEC * FROM people").status();
  EXPECT_EQ(parse_err.code(), StatusCode::kInvalidArgument);
  auto bind_err = db->Execute("SELECT nope FROM people").status();
  EXPECT_EQ(bind_err.code(), StatusCode::kNotFound);
  EXPECT_NE(bind_err.message().find("nope"), std::string::npos)
      << "binder error should name the unknown column: " << bind_err;
}

TEST_F(EngineTest, DuplicateRegistrationFails) {
  auto db = Raw();
  EXPECT_EQ(db->RegisterCsv("people", csv_path_, schema_).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db->DropTable("people").ok());
  EXPECT_TRUE(db->RegisterCsv("people", csv_path_, schema_).ok());
}

TEST_F(EngineTest, ExplainShowsPlan) {
  auto db = Raw();
  auto plan = db->Explain("SELECT age, COUNT(*) FROM people GROUP BY age");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Scan people"), std::string::npos);
  EXPECT_NE(plan->find("Aggregate"), std::string::npos);
}

TEST_F(EngineTest, HeaderedCsv) {
  std::string path = dir_.File("with_header.csv");
  ASSERT_TRUE(
      WriteStringToFile(path, "id,name\n1,x\n2,y\n").ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  CsvDialect dialect;
  dialect.has_header = true;
  ASSERT_TRUE(db->RegisterCsv("t", path,
                              Schema{{"id", TypeId::kInt64},
                                     {"name", TypeId::kString}},
                              dialect)
                  .ok());
  for (int i = 0; i < 3; ++i) {
    auto result = db->Execute("SELECT id, name FROM t ORDER BY id");
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->rows.size(), 2u);
    EXPECT_EQ(result->rows[0][1].str(), "x");
  }
}

TEST_F(EngineTest, EmptyFileYieldsEmptyResults) {
  std::string path = dir_.File("empty.csv");
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(
      db->RegisterCsv("t", path, Schema{{"a", TypeId::kInt64}}).ok());
  auto result = db->Execute("SELECT a FROM t");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->rows.empty());
  auto agg = db->Execute("SELECT COUNT(*), SUM(a) FROM t");
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows.size(), 1u);
  EXPECT_EQ(agg->rows[0][0].int64(), 0);
  EXPECT_TRUE(agg->rows[0][1].is_null());
}

TEST_F(EngineTest, JoinTwoRawTables) {
  std::string path = dir_.File("depts.csv");
  ASSERT_TRUE(WriteStringToFile(path, "25,eng\n30,sales\n35,hr\n41,ops\n")
                  .ok());
  auto db = Raw();
  ASSERT_TRUE(db->RegisterCsv("depts", path,
                              Schema{{"d_age", TypeId::kInt64},
                                     {"d_name", TypeId::kString}})
                  .ok());
  auto result = db->Execute(
      "SELECT name, d_name FROM people, depts WHERE age = d_age "
      "ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(result->rows[0][0].str(), "alice");
  EXPECT_EQ(result->rows[0][1].str(), "sales");
}

TEST_F(EngineTest, ExistsSemiJoin) {
  std::string path = dir_.File("flags.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,1\n3,0\n3,1\n9,1\n").ok());
  auto db = Raw();
  ASSERT_TRUE(db->RegisterCsv("flags", path,
                              Schema{{"f_id", TypeId::kInt64},
                                     {"f_val", TypeId::kInt64}})
                  .ok());
  auto result = db->Execute(
      "SELECT name FROM people WHERE EXISTS "
      "(SELECT * FROM flags WHERE f_id = id AND f_val = 1) ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].str(), "alice");
  EXPECT_EQ(result->rows[1][0].str(), "carol");

  auto anti = db->Execute(
      "SELECT COUNT(*) FROM people WHERE NOT EXISTS "
      "(SELECT * FROM flags WHERE f_id = id)");
  ASSERT_TRUE(anti.ok()) << anti.status();
  EXPECT_EQ(anti->rows[0][0].int64(), 3);  // bob, dave, erin
}

// ---------------------------------------------------------------------
// One row count per table: however the engine learns it, the catalog,
// the planner's GetRowCount and the rows the next scan emits agree.
// ---------------------------------------------------------------------

class RowCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.rows = 10000;  // 3 stripes at the default 4096 tuples_per_chunk
    spec_.cols = 4;
    csv_ = dir_.File("t.csv");
    ASSERT_TRUE(GenerateWideCsv(csv_, spec_).ok());
  }

  static double CatalogRows(Database* db) {
    for (const TableInfo& info : db->ListTables()) {
      if (info.name == "t") return info.row_count;
    }
    return -2;
  }

  /// The catalog, the planner's count and a full scan all report `rows`.
  static void ExpectAgree(Database* db, const std::string& column,
                          uint64_t rows) {
    EXPECT_EQ(CatalogRows(db), static_cast<double>(rows));
    EXPECT_EQ(db->GetRowCount("t"), static_cast<double>(rows));
    auto result = db->Execute("SELECT " + column + " FROM t");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows.size(), rows);
  }

  TempDir dir_;
  MicroDataSpec spec_;
  std::string csv_;
};

TEST_F(RowCountTest, LearnedAtColdScanEof) {
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
  EXPECT_EQ(db->GetRowCount("t"), -1);
  EXPECT_EQ(CatalogRows(db.get()), -1);
  auto cold = db->Execute("SELECT a2 FROM t");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->rows.size(), spec_.rows);
  ExpectAgree(db.get(), "a2", spec_.rows);
}

TEST_F(RowCountTest, LearnedByPromotionSweepOnNeverScannedTable) {
  EngineConfig cfg = EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  cfg.promotion.enabled = true;
  cfg.promotion.min_scans = 2;
  Database db(cfg);
  ASSERT_TRUE(db.RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
  // Early-terminated scans earn the column its promotion but never reach
  // EOF, so the sweep is the first full pass over the file.
  for (int i = 0; i < 2; ++i) {
    auto head = db.Execute("SELECT a1 FROM t LIMIT 5");
    ASSERT_TRUE(head.ok()) << head.status();
  }
  ASSERT_EQ(db.GetRowCount("t"), -1);
  auto report = db.RunPromotionCycle("t");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(db.IsColumnPromoted("t", 0));
  ExpectAgree(&db, "a1", spec_.rows);
}

TEST_F(RowCountTest, RestoredBySnapshotReopen) {
  EngineConfig cfg = EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  cfg.snapshot_dir = dir_.File("snaps");
  {
    Database db(cfg);
    ASSERT_TRUE(db.RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
    ASSERT_TRUE(db.Execute("SELECT a1, a3 FROM t").ok());
    ASSERT_TRUE(db.Snapshot("t").ok());
  }
  Database db(cfg);
  ASSERT_TRUE(db.RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
  ExpectAgree(&db, "a3", spec_.rows);
}

TEST_F(RowCountTest, StatedByFitsHeader) {
  const std::string fits = dir_.File("t.fits");
  constexpr int kRows = 5000;
  {
    auto writer = FitsWriter::Create(fits, Schema{{"id", TypeId::kInt64}});
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE((*writer)->Append(Row{Value::Int64(i)}).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->RegisterFits("t", fits).ok());
  ExpectAgree(db.get(), "id", kRows);  // before any scan: the header's count
  ExpectAgree(db.get(), "id", kRows);  // after one: the scan's count
}

TEST_F(RowCountTest, BaselineRereadsTheFileOnEveryQuery) {
  // Without a positional map or promoted columns nothing pins a scan to
  // the last count: the straw-man re-reads the file to EOF every time.
  auto db = MakeEngine(SystemUnderTest::kPostgresRawBaseline);
  ASSERT_TRUE(db->RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
  auto first = db->Execute("SELECT a1 FROM t");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->rows.size(), spec_.rows);

  // Add a row between the two queries. The open handle keeps the file size
  // it saw at Open, so the edit keeps the size: the last row's first
  // separator becomes a line break, splitting it into two (short) rows.
  auto contents = ReadFileToString(csv_);
  ASSERT_TRUE(contents.ok());
  std::string edited = *contents;
  const size_t last_row = edited.rfind('\n', edited.size() - 2) + 1;
  edited[edited.find(',', last_row)] = '\n';
  ASSERT_TRUE(WriteStringToFile(csv_, edited).ok());
  auto second = db->Execute("SELECT a1 FROM t");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->rows.size(), spec_.rows + 1);
  ExpectAgree(db.get(), "a1", spec_.rows + 1);
}

}  // namespace
}  // namespace nodb
