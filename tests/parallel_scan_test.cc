#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "csv/writer.h"
#include "engine/engines.h"
#include "fits/fits_writer.h"
#include "json/jsonl_writer.h"
#include "util/fs_util.h"
#include "util/rng.h"
#include "workload/micro.h"

namespace nodb {
namespace {

/// Parallel-vs-serial differential harness: a morsel-parallel scan must be
/// indistinguishable from the serial scan — same rows in the same order,
/// same statuses, same adaptive-structure end state where the contract
/// promises it (row counts, spine coverage) — for every engine variant,
/// raw format, thread count, and cold/warm phase. Morsel boundaries are
/// deliberately forced to tiny sizes so they land mid-record, mid-quoted
/// field, and mid-object, and the edge cases (empty file, one record,
/// more threads than records) get dedicated coverage.

Schema TestSchema() {
  return Schema{{"c0", TypeId::kInt64},
                {"c1", TypeId::kDouble},
                {"c2", TypeId::kString},
                {"c3", TypeId::kDate},
                {"c4", TypeId::kInt64}};
}

std::vector<Row> TestRows(int n) {
  static const char* kWords[] = {"ash", "birch", "cedar", "doum", "elm",
                                 "fir"};
  Rng rng(2026);
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    Row row;
    row.push_back(rng.NextBool(0.05) ? Value::Null(TypeId::kInt64)
                                     : Value::Int64(rng.Uniform(0, 20)));
    row.push_back(rng.NextBool(0.05)
                      ? Value::Null(TypeId::kDouble)
                      : Value::Double(
                            static_cast<double>(rng.Uniform(0, 1000)) / 4.0));
    row.push_back(Value::String(kWords[rng.Next() % 6]));
    row.push_back(Value::Date(static_cast<int32_t>(rng.Uniform(8000, 9000))));
    row.push_back(Value::Int64(rng.Uniform(0, 8)));
    rows.push_back(std::move(row));
  }
  return rows;
}

void WriteCsvFile(const std::string& path, const std::vector<Row>& rows) {
  auto out = WritableFile::Create(path);
  ASSERT_TRUE(out.ok());
  CsvWriter writer(out->get(), CsvDialect{});
  for (const Row& row : rows) ASSERT_TRUE(writer.WriteRow(row).ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE((*out)->Close().ok());
}

void WriteJsonlFile(const std::string& path, const Schema& schema,
                    const std::vector<Row>& rows) {
  auto out = WritableFile::Create(path);
  ASSERT_TRUE(out.ok());
  JsonlWriter writer(out->get(), &schema);
  for (const Row& row : rows) ASSERT_TRUE(writer.WriteRow(row).ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE((*out)->Close().ok());
}

/// The workload: projections, selections, aggregation, grouping, ordering,
/// limits — everything whose row order or value content could betray a
/// morsel boundary bug.
const char* kQueries[] = {
    "SELECT c0, c2 FROM t",
    "SELECT c0, c1, c4 FROM t WHERE c0 < 10",
    "SELECT COUNT(*) AS n, SUM(c1) AS s, MIN(c3) AS lo FROM t WHERE c4 >= 5",
    "SELECT c2, COUNT(*) AS n, SUM(c0) AS s FROM t GROUP BY c2",
    "SELECT c0, c3, c2 FROM t ORDER BY c0, c3, c2 LIMIT 17",
    "SELECT c1 FROM t WHERE c2 = 'elm' AND c0 >= 3",
    "SELECT COUNT(c1) AS non_null FROM t",
};

/// An engine of the given system over `path`, with `threads` scan threads,
/// morsels small enough that even this test's small files split into
/// dozens of morsels, and stripes small enough that warm scans split into
/// several stripe-aligned morsels.
std::unique_ptr<Database> MakeScanEngine(SystemUnderTest sut,
                                         const std::string& path,
                                         const Schema& schema, int threads) {
  EngineConfig config = EngineConfig::ForSystem(sut);
  config.tuples_per_chunk = 128;
  config.scan_threads = threads;
  config.scan_morsel_bytes = threads > 1 ? 1024 : 0;
  auto db = std::make_unique<Database>(config);
  OpenOptions options;
  options.schema = schema;
  EXPECT_TRUE(db->Open("t", path, options).ok());
  return db;
}

/// Positional-map lookups (temporary-map prefetches) so far on table t.
uint64_t PmapLookups(Database* db) {
  const PositionalMap* pm = db->runtime("t")->pmap.get();
  return pm != nullptr ? pm->counters().lookups : 0;
}

/// Every column's access counters, flattened for comparison.
std::vector<uint64_t> AccessCounters(const TableRuntime* rt) {
  std::vector<uint64_t> out;
  for (const ColumnAccessCounters& c : rt->access->SnapshotAll()) {
    out.insert(out.end(), {c.scans, c.rows_parsed, c.bytes_parsed,
                           c.rows_from_cache, c.rows_from_promoted});
  }
  return out;
}

/// (stripe, attr, size) of every cached chunk.
std::vector<std::vector<uint64_t>> CacheMembership(const TableRuntime* rt) {
  std::vector<std::vector<uint64_t>> out;
  if (rt->cache == nullptr) return out;
  for (const ColumnCache::ExportedChunk& c : rt->cache->ExportState()) {
    out.push_back({c.stripe, static_cast<uint64_t>(c.attr),
                   c.values->size()});
  }
  return out;
}

TEST(ParallelScanDifferentialTest, AllEngineVariantsAgreeWithSerial) {
  TempDir dir;
  std::vector<Row> rows = TestRows(700);
  Schema schema = TestSchema();
  std::string csv_path = dir.File("t.csv");
  std::string jsonl_path = dir.File("t.jsonl");
  WriteCsvFile(csv_path, rows);
  WriteJsonlFile(jsonl_path, schema, rows);

  // The 13 variants of the differential suite: every in-situ system over
  // CSV and over JSON Lines, plus the loaded baselines (which have no raw
  // scan to parallelize — they pin down that scan_threads is a no-op for
  // them).
  struct Variant {
    std::string name;
    SystemUnderTest sut;
    const std::string* path;  // null = loaded from CSV
  };
  std::vector<Variant> variants;
  for (SystemUnderTest sut :
       {SystemUnderTest::kPostgresRawPMC, SystemUnderTest::kPostgresRawPM,
        SystemUnderTest::kPostgresRawC, SystemUnderTest::kPostgresRawBaseline,
        SystemUnderTest::kExternalFiles}) {
    variants.push_back({std::string(SystemUnderTestName(sut)), sut,
                        &csv_path});
    variants.push_back({std::string(SystemUnderTestName(sut)) + " [jsonl]",
                        sut, &jsonl_path});
  }
  for (SystemUnderTest sut :
       {SystemUnderTest::kPostgreSQL, SystemUnderTest::kDbmsX,
        SystemUnderTest::kMySQL}) {
    variants.push_back({std::string(SystemUnderTestName(sut)), sut, nullptr});
  }
  ASSERT_EQ(variants.size(), 13u);

  constexpr int kRounds = 2;  // cold, then warm (pmap/cache/stats populated)
  for (const Variant& variant : variants) {
    // Serial reference engine for this variant, plus one engine per thread
    // count; each engine keeps its adaptive state across the whole
    // workload, so round 2 runs warm.
    std::unique_ptr<Database> reference;
    std::vector<std::pair<int, std::unique_ptr<Database>>> parallel;
    if (variant.path != nullptr) {
      reference = MakeScanEngine(variant.sut, *variant.path, schema, 1);
      for (int threads : {2, 4, 8}) {
        parallel.emplace_back(
            threads, MakeScanEngine(variant.sut, *variant.path, schema,
                                    threads));
      }
    } else {
      EngineConfig config = EngineConfig::ForSystem(variant.sut);
      reference = std::make_unique<Database>(config);
      ASSERT_TRUE(reference->LoadCsv("t", csv_path, schema).ok());
      for (int threads : {2, 4, 8}) {
        EngineConfig par_config = EngineConfig::ForSystem(variant.sut);
        par_config.scan_threads = threads;
        auto db = std::make_unique<Database>(par_config);
        ASSERT_TRUE(db->LoadCsv("t", csv_path, schema).ok());
        parallel.emplace_back(threads, std::move(db));
      }
    }

    // Positional-map lookups per engine before the warm round (index 0 is
    // the serial reference).
    std::vector<uint64_t> cold_lookups;
    for (int round = 0; round < kRounds; ++round) {
      if (round == 1 && variant.path != nullptr) {
        cold_lookups.push_back(PmapLookups(reference.get()));
        for (auto& [threads, db] : parallel) {
          cold_lookups.push_back(PmapLookups(db.get()));
        }
      }
      for (const char* sql : kQueries) {
        auto expected = reference->Execute(sql);
        ASSERT_TRUE(expected.ok())
            << variant.name << " serial failed on: " << sql << "\n"
            << expected.status();
        // Unsorted canonical: the parallel scan must reproduce the serial
        // row *order*, not just the row set.
        std::string want = expected->Canonical(/*sorted=*/false);
        for (auto& [threads, db] : parallel) {
          auto got = db->Execute(sql);
          ASSERT_TRUE(got.ok())
              << variant.name << " x" << threads << " failed on: " << sql
              << "\n" << got.status();
          EXPECT_EQ(got->Canonical(/*sorted=*/false), want)
              << variant.name << " x" << threads << " round " << round
              << " diverged on: " << sql;
        }
      }
    }

    // End-state parity where the contract promises it: a completed scan
    // pins the row count (and the spine, where a positional map exists)
    // regardless of how many threads produced it. The per-column access
    // accounting and the cache's chunk membership match too, and a warm
    // parallel round probes positional anchors exactly as often as the
    // serial one.
    const bool anchored = EngineConfig::ForSystem(variant.sut).positional_map;
    for (size_t i = 0; i < parallel.size(); ++i) {
      const int threads = parallel[i].first;
      Database* db = parallel[i].second.get();
      TableRuntime* serial_rt = reference->runtime("t");
      TableRuntime* rt = db->runtime("t");
      EXPECT_EQ(rt->row_count.load(), serial_rt->row_count.load())
          << variant.name << " x" << threads;
      if (rt->pmap != nullptr && serial_rt->pmap != nullptr) {
        EXPECT_EQ(rt->pmap->contiguous_rows_known(),
                  serial_rt->pmap->contiguous_rows_known());
      }
      if (variant.path == nullptr) continue;  // loaded: no raw structures
      EXPECT_EQ(AccessCounters(rt), AccessCounters(serial_rt))
          << variant.name << " x" << threads;
      EXPECT_EQ(CacheMembership(rt), CacheMembership(serial_rt))
          << variant.name << " x" << threads;
      if (anchored) {
        const uint64_t serial_warm = PmapLookups(reference.get()) -
                                     cold_lookups[0];
        const uint64_t warm = PmapLookups(db) - cold_lookups[i + 1];
        EXPECT_EQ(warm, serial_warm) << variant.name << " x" << threads;
        // With a cache the warm round never reaches the file; without one
        // it must have gone through the positional map.
        if (rt->cache == nullptr) {
          EXPECT_GT(warm, 0u) << variant.name << " x" << threads;
        }
      }
    }
  }
}

TEST(ParallelScanDifferentialTest, WarmColumnAccountingMatchesSerial) {
  // A table with one output column promoted and one not: parallel scans
  // must serve the promoted column from the promoted tier and account for
  // it like serial scans do — otherwise the promotion policy sees a column
  // that is read every query as cold and demotes it.
  TempDir dir;
  MicroDataSpec spec;
  spec.rows = 10000;
  spec.cols = 4;
  std::string path = dir.File("wide.csv");
  ASSERT_TRUE(GenerateWideCsv(path, spec).ok());
  auto make = [&](int threads) {
    EngineConfig config =
        EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
    config.scan_threads = threads;
    config.scan_morsel_bytes = 4096;
    config.promotion.enabled = true;
    config.promotion.min_scans = 1;
    // Fits one promoted column (10000 rows x sizeof(Value)) but not two.
    config.promotion.budget_bytes = 700000;
    auto db = std::make_unique<Database>(config);
    EXPECT_TRUE(db->RegisterCsv("t", path, MicroSchema(spec)).ok());
    return db;
  };
  auto serial = make(1);
  auto parallel = make(4);
  for (Database* db : {serial.get(), parallel.get()}) {
    ASSERT_TRUE(db->Execute("SELECT SUM(a1) AS s FROM t").ok());
    auto first = db->RunPromotionCycle("t");
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_EQ(first->promoted, std::vector<int>({0}));
  }
  const ColumnAccessCounters promoted_at =
      parallel->runtime("t")->access->Snapshot(0);

  const char* sql = "SELECT SUM(a1) AS s, MAX(a4) AS m FROM t";
  for (int i = 0; i < 3; ++i) {
    auto want = serial->Execute(sql);
    auto got = parallel->Execute(sql);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->Canonical(false), want->Canonical(false));
  }
  EXPECT_EQ(AccessCounters(parallel->runtime("t")),
            AccessCounters(serial->runtime("t")));
  const ColumnAccessCounters a1 = parallel->runtime("t")->access->Snapshot(0);
  EXPECT_EQ(a1.rows_from_promoted,
            promoted_at.rows_from_promoted + 3 * spec.rows);
  EXPECT_EQ(a1.rows_parsed, promoted_at.rows_parsed);
  EXPECT_EQ(a1.bytes_parsed, promoted_at.bytes_parsed);

  // Under budget pressure the newly hot a4 may only displace a cold
  // promoted column; a1 was read by every query, so it stays.
  for (Database* db : {serial.get(), parallel.get()}) {
    auto second = db->RunPromotionCycle("t");
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_TRUE(second->demoted.empty());
    EXPECT_TRUE(db->runtime("t")->promoted->IsPromoted(0));
  }
}

TEST(ParallelScanDifferentialTest, FitsIndexMorselsAgreeWithSerial) {
  TempDir dir;
  std::string path = dir.File("t.fits");
  Schema schema{{"id", TypeId::kInt64},
                {"name", TypeId::kString},
                {"score", TypeId::kDouble}};
  {
    auto writer = FitsWriter::Create(path, schema, {8});
    ASSERT_TRUE(writer.ok()) << writer.status();
    Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
      Row row{Value::Int64(rng.Uniform(0, 100)),
              Value::String("s" + std::to_string(i % 13)),
              Value::Double(static_cast<double>(rng.Uniform(0, 1000)) / 8.0)};
      ASSERT_TRUE((*writer)->Append(row).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  auto serial = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(serial->RegisterFits("t", path).ok());
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.scan_threads = 4;
  config.scan_morsel_bytes = 4096;  // a few hundred fixed-stride rows each
  Database parallel(config);
  ASSERT_TRUE(parallel.RegisterFits("t", path).ok());

  const char* queries[] = {
      "SELECT id, name FROM t WHERE score >= 60.0",
      "SELECT name, COUNT(*) AS n, SUM(id) AS s FROM t GROUP BY name",
      "SELECT id, name FROM t ORDER BY id DESC, name LIMIT 25",
  };
  for (int round = 0; round < 2; ++round) {
    for (const char* sql : queries) {
      auto want = serial->Execute(sql);
      auto got = parallel.Execute(sql);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->Canonical(false), want->Canonical(false))
          << "round " << round << ": " << sql;
    }
  }
  EXPECT_EQ(parallel.runtime("t")->row_count.load(), 3000);
}

TEST(ParallelScanDifferentialTest, ConcurrentOpenCursorsShareOnePool) {
  // Worker tasks exit when their scan's reorder window fills instead of
  // parking on a pool thread, so any number of parallel cursors can be
  // open at once — including from a single consumer thread interleaving
  // them (regression: long-lived blocking workers deadlocked the second
  // cursor on a saturated pool).
  TempDir dir;
  std::vector<Row> rows = TestRows(600);
  Schema schema = TestSchema();
  std::string t_path = dir.File("t.csv");
  std::string u_path = dir.File("u.csv");
  WriteCsvFile(t_path, rows);
  WriteCsvFile(u_path, rows);

  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.scan_threads = 2;
  config.scan_morsel_bytes = 512;
  Database db(config);
  OpenOptions options;
  options.schema = schema;
  ASSERT_TRUE(db.Open("t", t_path, options).ok());
  ASSERT_TRUE(db.Open("u", u_path, options).ok());

  // Cursor A starts and stalls mid-stream; cursor B must still run to
  // completion on the same pool; then A resumes and finishes.
  auto a = db.Query("SELECT c0, c4 FROM t");
  ASSERT_TRUE(a.ok()) << a.status();
  RowBatch a_batch = a->MakeBatch();
  auto a_n = a->Next(&a_batch);
  ASSERT_TRUE(a_n.ok()) << a_n.status();
  size_t a_rows = *a_n;

  auto b = db.Query("SELECT c0 FROM u");
  ASSERT_TRUE(b.ok()) << b.status();
  RowBatch b_batch = b->MakeBatch();
  size_t b_rows = 0;
  while (true) {
    auto n = b->Next(&b_batch);
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;
    b_rows += *n;
  }
  EXPECT_EQ(b_rows, rows.size());

  while (true) {
    auto n = a->Next(&a_batch);
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;
    a_rows += *n;
  }
  EXPECT_EQ(a_rows, rows.size());

  // Joins build one parallel scan while another is mid-query; the answer
  // must match a serial engine's.
  auto serial = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(serial->RegisterCsv("t", t_path, schema).ok());
  ASSERT_TRUE(serial->RegisterCsv("u", u_path, schema).ok());
  const char* join_sql =
      "SELECT COUNT(*) AS n FROM t JOIN u ON t.c0 = u.c0 WHERE t.c4 >= 4";
  auto want = serial->Execute(join_sql);
  ASSERT_TRUE(want.ok()) << want.status();
  auto got = db.Execute(join_sql);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->Canonical(false), want->Canonical(false));
}

TEST(ParallelScanStressTest, ManyCursorsOnOversubscribedPoolNeverHang) {
  // Lost-wakeup regression: a worker that decided to exit (window full)
  // but was not yet accounted as gone made the consumer's pool top-up see
  // a phantom active worker, submit none, and wait forever on a morsel
  // nobody would claim. Scans with a reorder window of 2 and morsels of a
  // few bytes hand work back and forth constantly; many of them run at
  // once on a pool with more threads than cores.
  TempDir dir;
  std::vector<Row> rows = TestRows(60);
  Schema schema = TestSchema();
  std::string path = dir.File("t.csv");
  WriteCsvFile(path, rows);

  const char* queries[] = {
      "SELECT c0, c2 FROM t WHERE c4 >= 3",
      "SELECT COUNT(*) AS n, SUM(c1) AS s FROM t",
  };
  auto serial = MakeEngine(SystemUnderTest::kPostgresRawBaseline);
  ASSERT_TRUE(serial->RegisterCsv("t", path, schema).ok());
  std::vector<std::string> want;
  for (const char* sql : queries) {
    auto r = serial->Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(r->Canonical(false));
  }

  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawBaseline);
  config.scan_threads = 2 * cores + 2;  // sizes the shared pool
  config.scan_morsel_bytes = 5;
  Database db(config);
  OpenOptions options;
  options.schema = schema;
  options.scan_threads = 2;  // per scan: 2 workers, a window of 2
  ASSERT_TRUE(db.Open("t", path, options).ok());

  constexpr int kConsumers = 6;
  constexpr int kQueriesEach = 3;
  std::atomic<int> wrong{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      for (int i = 0; i < kQueriesEach; ++i) {
        const int q = (c + i) % 2;
        auto got = db.Execute(queries[q]);
        if (!got.ok() || got->Canonical(false) != want[q]) ++wrong;
      }
    });
  }
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

// ---------------------------------------------------------------------
// Morsel-boundary edge cases
// ---------------------------------------------------------------------

/// Serial and parallel engines over the same raw bytes must agree on every
/// query; `morsel_bytes` is forced tiny so boundaries land mid-everything.
void ExpectParallelAgreesOnFile(const std::string& path, const Schema& schema,
                                const std::vector<const char*>& queries,
                                CsvDialect dialect = CsvDialect{}) {
  auto serial = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  OpenOptions serial_options;
  serial_options.schema = schema;
  serial_options.dialect = dialect;
  ASSERT_TRUE(serial->Open("t", path, serial_options).ok());

  for (uint64_t morsel_bytes : {3ull, 17ull, 64ull, 4096ull}) {
    for (int threads : {2, 8}) {
      EngineConfig config =
          EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
      config.scan_threads = threads;
      config.scan_morsel_bytes = morsel_bytes;
      Database parallel(config);
      OpenOptions options;
      options.schema = schema;
      options.dialect = dialect;
      ASSERT_TRUE(parallel.Open("t", path, options).ok());
      for (const char* sql : queries) {
        for (int round = 0; round < 2; ++round) {
          auto want = serial->Execute(sql);
          auto got = parallel.Execute(sql);
          ASSERT_TRUE(want.ok()) << want.status();
          ASSERT_TRUE(got.ok())
              << "threads=" << threads << " morsel=" << morsel_bytes << ": "
              << got.status();
          EXPECT_EQ(got->Canonical(false), want->Canonical(false))
              << "threads=" << threads << " morsel=" << morsel_bytes
              << " round=" << round << ": " << sql;
        }
      }
    }
  }
}

TEST(MorselBoundaryTest, BoundaryMidQuotedField) {
  TempDir dir;
  std::string path = dir.File("t.csv");
  // Quoted fields full of delimiters, quotes and '\r' — any 3-byte morsel
  // boundary lands inside one. (Embedded newlines are outside the dialect:
  // records are newline-framed before quoting applies.)
  ASSERT_TRUE(WriteStringToFile(
                  path,
                  "1,\"a,b\"\"c,d\",10\n"
                  "2,\",,,,\",20\n"
                  "3,\"unterminated,but quoted\",30\n"
                  "4,plain,40\n"
                  "5,\"x\",50\n")
                  .ok());
  CsvDialect dialect;
  dialect.quoting = true;
  Schema schema{{"id", TypeId::kInt64},
                {"text", TypeId::kString},
                {"v", TypeId::kInt64}};
  ExpectParallelAgreesOnFile(path, schema,
                             {"SELECT id, text, v FROM t",
                              "SELECT SUM(v) AS s FROM t WHERE id >= 2",
                              "SELECT text FROM t WHERE v = 20"},
                             dialect);
}

TEST(MorselBoundaryTest, BoundaryMidJsonlRecord) {
  TempDir dir;
  std::string path = dir.File("t.jsonl");
  // Keys out of order, nested values, escapes with embedded "\\n" text —
  // boundaries land mid-object, mid-string, mid-escape.
  ASSERT_TRUE(WriteStringToFile(
                  path,
                  "{\"id\":1,\"name\":\"line\\nbreak\",\"v\":1.5}\n"
                  "{\"v\":2.5,\"id\":2,\"name\":\"b,r{ace}\"}\n"
                  "{\"name\":\"q\\\"uote\",\"extra\":{\"nested\":[1,2]},"
                  "\"id\":3,\"v\":3.5}\n"
                  "{\"id\":4,\"v\":4.5}\n")
                  .ok());
  Schema schema{{"id", TypeId::kInt64},
                {"name", TypeId::kString},
                {"v", TypeId::kDouble}};
  ExpectParallelAgreesOnFile(path, schema,
                             {"SELECT id, name, v FROM t",
                              "SELECT COUNT(name) AS n FROM t",
                              "SELECT v FROM t WHERE id >= 2"});
}

TEST(MorselBoundaryTest, EmptyOneRecordAndThreadsExceedRecords) {
  TempDir dir;
  Schema schema{{"a", TypeId::kInt64}, {"b", TypeId::kString}};

  // Empty file.
  std::string empty = dir.File("empty.csv");
  ASSERT_TRUE(WriteStringToFile(empty, "").ok());
  ExpectParallelAgreesOnFile(empty, schema,
                             {"SELECT COUNT(*) AS n FROM t",
                              "SELECT a, b FROM t"});

  // One record (with and without trailing newline).
  std::string one = dir.File("one.csv");
  ASSERT_TRUE(WriteStringToFile(one, "7,seven\n").ok());
  ExpectParallelAgreesOnFile(one, schema, {"SELECT a, b FROM t"});
  std::string ragged = dir.File("ragged.csv");
  ASSERT_TRUE(WriteStringToFile(ragged, "7,seven\n8,eight").ok());
  ExpectParallelAgreesOnFile(ragged, schema,
                             {"SELECT a, b FROM t",
                              "SELECT COUNT(*) AS n FROM t"});

  // 8 threads over 3 records: most workers find no morsel to claim.
  std::string tiny = dir.File("tiny.csv");
  ASSERT_TRUE(WriteStringToFile(tiny, "1,x\n2,y\n3,z\n").ok());
  ExpectParallelAgreesOnFile(tiny, schema,
                             {"SELECT a, b FROM t",
                              "SELECT SUM(a) AS s FROM t"});
}

TEST(MorselBoundaryTest, KernelParallelAgreesWithScalarSerial) {
  // Parse kernels and morsel parallelism composed: a parallel scan running
  // the active SWAR/SIMD kernels must match a serial scan pinned to the
  // scalar reference kernels, byte for byte, cold and warm — with morsels
  // small enough to land mid-record and mid-quoted-field.
  TempDir dir;
  std::vector<Row> rows = TestRows(500);
  Schema schema = TestSchema();
  std::string csv_path = dir.File("t.csv");
  std::string jsonl_path = dir.File("t.jsonl");
  WriteCsvFile(csv_path, rows);
  WriteJsonlFile(jsonl_path, schema, rows);

  for (const std::string* path : {&csv_path, &jsonl_path}) {
    EngineConfig serial_config =
        EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
    serial_config.scalar_kernels = true;
    Database serial(serial_config);
    OpenOptions serial_options;
    serial_options.schema = schema;
    ASSERT_TRUE(serial.Open("t", *path, serial_options).ok());

    for (int threads : {2, 8}) {
      EngineConfig config =
          EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
      config.scan_threads = threads;
      config.scan_morsel_bytes = 96;
      Database parallel(config);
      OpenOptions options;
      options.schema = schema;
      ASSERT_TRUE(parallel.Open("t", *path, options).ok());
      for (int round = 0; round < 2; ++round) {
        for (const char* sql : kQueries) {
          auto want = serial.Execute(sql);
          auto got = parallel.Execute(sql);
          ASSERT_TRUE(want.ok()) << want.status();
          ASSERT_TRUE(got.ok())
              << *path << " x" << threads << ": " << got.status();
          EXPECT_EQ(got->Canonical(false), want->Canonical(false))
              << *path << " x" << threads << " round " << round << ": "
              << sql;
        }
      }
    }
  }
}

TEST(MorselBoundaryTest, ParseErrorSurfacesIdenticallyMidFile) {
  TempDir dir;
  std::string path = dir.File("t.csv");
  std::string content;
  for (int i = 0; i < 200; ++i) content += std::to_string(i) + ",ok\n";
  content += "boom,bad\n";  // unconvertible int64 cell
  for (int i = 0; i < 200; ++i) content += std::to_string(i) + ",tail\n";
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  Schema schema{{"a", TypeId::kInt64}, {"b", TypeId::kString}};

  auto serial = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(serial->RegisterCsv("t", path, schema).ok());
  auto want = serial->Execute("SELECT a FROM t");
  ASSERT_FALSE(want.ok());

  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.scan_threads = 4;
  config.scan_morsel_bytes = 256;
  Database parallel(config);
  ASSERT_TRUE(parallel.RegisterCsv("t", path, schema).ok());
  auto got = parallel.Execute("SELECT a FROM t");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), want.status().code()) << got.status();
  // Untouched columns keep working, and the failure is not sticky — same
  // contract as serial.
  EXPECT_TRUE(parallel.Execute("SELECT b FROM t").ok());
}

// ---------------------------------------------------------------------
// Early Close() byte budget
// ---------------------------------------------------------------------

TEST(ParallelEarlyCloseTest, CloseAfterFirstBatchBoundsBytesRead) {
  TempDir dir;
  MicroDataSpec spec;
  spec.rows = 120000;
  spec.cols = 5;
  std::string path = dir.File("wide.csv");
  ASSERT_TRUE(GenerateWideCsv(path, spec).ok());

  EngineConfig config =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  config.scan_threads = 4;
  config.scan_morsel_bytes = 128 * 1024;
  Database db(config);
  ASSERT_TRUE(db.RegisterCsv("t", path, MicroSchema(spec)).ok());
  const RandomAccessFile* file = db.runtime("t")->adapter->file();
  const uint64_t file_size = file->size();
  ASSERT_GT(file_size, 2u * 1024 * 1024);

  auto cursor = db.Query("SELECT a1 FROM t");
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  RowBatch batch = cursor->MakeBatch();
  auto n = cursor->Next(&batch);
  ASSERT_TRUE(n.ok()) << n.status();
  ASSERT_GT(*n, 0u);
  ASSERT_TRUE(cursor->Close().ok());

  // Workers prefetch at most the reorder window of morsels beyond the
  // merge point, so an early Close leaves the bulk of the file unread:
  // bound = (window + merged) morsels + the boundary probes.
  const uint64_t after_close = file->bytes_read();
  EXPECT_LT(after_close, file_size / 2)
      << "parallel scan must not race ahead of the consumer unboundedly";
  // Close joined the workers: the byte count is final.
  EXPECT_EQ(file->bytes_read(), after_close);

  // LIMIT drives the same path through the executor.
  const uint64_t before_limit = file->bytes_read();
  auto limited = db.Execute("SELECT a1 FROM t LIMIT 5");
  ASSERT_TRUE(limited.ok()) << limited.status();
  EXPECT_EQ(limited->rows.size(), 5u);
  EXPECT_LT(file->bytes_read() - before_limit, file_size / 2);
}

}  // namespace
}  // namespace nodb
