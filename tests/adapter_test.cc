#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "csv/writer.h"
#include "engine/engines.h"
#include "fits/fits_writer.h"
#include "io/inflate_file.h"
#include "json/jsonl_writer.h"
#include "raw/adapter_registry.h"
#include "util/fs_util.h"

namespace nodb {
namespace {

/// Adapter conformance suite: one parameterized fixture, run against every
/// built-in raw format (CSV, FITS, JSON Lines). The engine promises that
/// whatever plugs into the RawSourceAdapter API behaves identically through
/// the shared scan path: empty sources yield empty results, structural
/// shortfalls (short rows, missing keys) read as NULLs, conversion failures
/// surface as clean statuses, container corruption is detected, and closing
/// a cursor early stops the raw-file reads. A new adapter earns its place by
/// adding a Backend entry here.

Schema TestSchema() {
  return Schema{{"id", TypeId::kInt64},
                {"name", TypeId::kString},
                {"score", TypeId::kDouble},
                {"day", TypeId::kDate}};
}

Row TestRow(int i) {
  return {Value::Int64(i), Value::String("src" + std::to_string(i % 7)),
          Value::Double(i * 0.25), Value::Date(8000 + i % 50)};
}

void WriteCsvRows(const std::string& path, int n) {
  auto out = WritableFile::Create(path);
  ASSERT_TRUE(out.ok());
  CsvWriter writer(out->get(), CsvDialect{});
  for (int i = 0; i < n; ++i) ASSERT_TRUE(writer.WriteRow(TestRow(i)).ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE((*out)->Close().ok());
}

void WriteJsonlRows(const std::string& path, int n) {
  auto out = WritableFile::Create(path);
  ASSERT_TRUE(out.ok());
  Schema schema = TestSchema();
  JsonlWriter writer(out->get(), &schema);
  for (int i = 0; i < n; ++i) ASSERT_TRUE(writer.WriteRow(TestRow(i)).ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE((*out)->Close().ok());
}

void WriteFitsRows(const std::string& path, int n) {
  auto writer = FitsWriter::Create(path, TestSchema(), {8});
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int i = 0; i < n; ++i) ASSERT_TRUE((*writer)->Append(TestRow(i)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

void AppendRaw(const std::string& path, const std::string& tail) {
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(WriteStringToFile(path, *content + tail).ok());
}

void TruncateFileTo(const std::string& path, size_t bytes) {
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(WriteStringToFile(path, content->substr(0, bytes)).ok());
}

struct Backend {
  const char* label;      // unique test-suffix (formats appear twice: ± gzip)
  const char* format;     // registry / adapter format name
  const char* extension;  // chosen so sniffing must detect the format
  bool needs_schema;      // schema passed via OpenOptions (CSV; empty JSONL)
  bool compressed;        // source served through the gzip inflate layer
  void (*write)(const std::string& path, int n);
  /// Appends one record cut off mid-way (text formats) or cuts the data
  /// section mid-row (FITS).
  std::function<void(const std::string& path, int full_rows)> make_truncated;
  /// Status a full-projection query over the truncated file must return;
  /// kOk means the format cannot tell truncation from a short record and
  /// NULL-fills instead (CSV).
  StatusCode truncated_code;
  /// Appends one structurally ragged record (missing trailing fields /
  /// missing keys); null when the format cannot express one (fixed width).
  std::function<void(const std::string& path)> make_ragged;
  /// Appends one record whose `id` field holds unconvertible text; null
  /// when the format cannot express one (binary values).
  std::function<void(const std::string& path)> make_malformed;
};

const Backend kCsvBackend{
    "csv",
    "csv",
    ".csv",
    /*needs_schema=*/true,
    /*compressed=*/false,
    &WriteCsvRows,
    [](const std::string& path, int full_rows) {
      AppendRaw(path, std::to_string(full_rows) + ",src");  // cut, no newline
    },
    StatusCode::kOk,
    [](const std::string& path) { AppendRaw(path, "900,ragged\n"); },
    [](const std::string& path) { AppendRaw(path, "xx,bad,1.5,2021-01-01\n"); },
};

const Backend kJsonlBackend{
    "jsonl",
    "jsonl",
    ".jsonl",
    /*needs_schema=*/false,
    /*compressed=*/false,
    &WriteJsonlRows,
    [](const std::string& path, int full_rows) {
      AppendRaw(path, "{\"id\":" + std::to_string(full_rows) +
                          ",\"name\":\"tru");  // string never closes
    },
    StatusCode::kInvalidArgument,
    [](const std::string& path) {
      AppendRaw(path, "{\"id\":900,\"name\":\"ragged\"}\n");  // keys missing
    },
    [](const std::string& path) {
      AppendRaw(path,
                "{\"id\":xx,\"name\":\"bad\",\"score\":1.5,"
                "\"day\":\"2021-01-01\"}\n");
    },
};

const Backend kFitsBackend{
    "fits",
    "fits",
    ".fits",
    /*needs_schema=*/false,
    /*compressed=*/false,
    &WriteFitsRows,
    [](const std::string& path, int full_rows) {
      // The header keeps promising `full_rows + 1` rows, but the data
      // section ends mid-row (block padding is cut away too).
      auto file = RandomAccessFile::Open(path);
      ASSERT_TRUE(file.ok());
      auto info = ParseFitsHeader(file->get());
      ASSERT_TRUE(info.ok()) << info.status();
      ASSERT_GE(info->num_rows, static_cast<uint64_t>(full_rows));
      TruncateFileTo(path, info->data_start +
                               (full_rows - 2) * info->row_bytes +
                               info->row_bytes / 2);
    },
    StatusCode::kCorruption,
    nullptr,
    nullptr,
};

// ---------------------------------------------------------------------
// Gzip-wrapped variants: the same text backends served through the
// decompression layer (io/inflate_file). Every contract above must hold
// unchanged — the adapters address *decompressed* offsets and never learn
// the source was compressed. Payload mutations (truncation, ragged and
// malformed records) happen on the decompressed text and the result is
// re-gzipped: corruption of the gzip container itself is inflate_test's
// territory.
// ---------------------------------------------------------------------

void GzipFileInPlace(const std::string& path) {
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(WriteStringToFile(path, GzipCompress(*content)).ok());
}

/// Decompresses `path`, applies `mutate` to the plain text (via a sibling
/// temp file so the text-backend mutators run verbatim), re-compresses.
void MutateGzPayload(const std::string& path,
                     const std::function<void(const std::string&)>& mutate) {
  auto inner = RandomAccessFile::Open(path);
  ASSERT_TRUE(inner.ok());
  auto gz = InflateFile::Open(std::move(*inner), InflateOptions{});
  ASSERT_TRUE(gz.ok()) << gz.status();
  std::string text((*gz)->size(), '\0');
  if (!text.empty()) {
    auto n = (*gz)->Read(0, text.size(), text.data());
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_EQ(*n, text.size());
  }
  const std::string plain = path + ".plain";
  ASSERT_TRUE(WriteStringToFile(plain, text).ok());
  mutate(plain);
  auto mutated = ReadFileToString(plain);
  ASSERT_TRUE(mutated.ok());
  ASSERT_TRUE(WriteStringToFile(path, GzipCompress(*mutated)).ok());
  RemoveFileIfExists(plain);
}

const Backend kGzCsvBackend{
    "csv_gz",
    "csv",
    ".csv.gz",
    /*needs_schema=*/true,
    /*compressed=*/true,
    [](const std::string& path, int n) {
      WriteCsvRows(path, n);
      GzipFileInPlace(path);
    },
    [](const std::string& path, int full_rows) {
      MutateGzPayload(path, [full_rows](const std::string& p) {
        AppendRaw(p, std::to_string(full_rows) + ",src");
      });
    },
    StatusCode::kOk,
    [](const std::string& path) {
      MutateGzPayload(path,
                      [](const std::string& p) { AppendRaw(p, "900,ragged\n"); });
    },
    [](const std::string& path) {
      MutateGzPayload(path, [](const std::string& p) {
        AppendRaw(p, "xx,bad,1.5,2021-01-01\n");
      });
    },
};

const Backend kGzJsonlBackend{
    "jsonl_gz",
    "jsonl",
    ".jsonl.gz",
    /*needs_schema=*/false,
    /*compressed=*/true,
    [](const std::string& path, int n) {
      WriteJsonlRows(path, n);
      GzipFileInPlace(path);
    },
    [](const std::string& path, int full_rows) {
      MutateGzPayload(path, [full_rows](const std::string& p) {
        AppendRaw(p, "{\"id\":" + std::to_string(full_rows) +
                         ",\"name\":\"tru");
      });
    },
    StatusCode::kInvalidArgument,
    [](const std::string& path) {
      MutateGzPayload(path, [](const std::string& p) {
        AppendRaw(p, "{\"id\":900,\"name\":\"ragged\"}\n");
      });
    },
    [](const std::string& path) {
      MutateGzPayload(path, [](const std::string& p) {
        AppendRaw(p,
                  "{\"id\":xx,\"name\":\"bad\",\"score\":1.5,"
                  "\"day\":\"2021-01-01\"}\n");
      });
    },
};

class AdapterConformanceTest : public ::testing::TestWithParam<const Backend*> {
 protected:
  void SetUp() override {
    if (GetParam()->compressed && !InflateSupported()) {
      GTEST_SKIP() << "built without zlib";
    }
  }

  std::string FilePath() {
    return dir_.File(std::string("t") + GetParam()->extension);
  }

  /// Opens `path` on a fresh PM+C engine through Database::Open — format
  /// auto-detected, schema passed only when the backend needs it.
  std::unique_ptr<Database> OpenTable(const std::string& path) {
    auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
    OpenOptions options;
    if (GetParam()->needs_schema) options.schema = TestSchema();
    Status s = db->Open("t", path, options);
    EXPECT_TRUE(s.ok()) << s;
    return db;
  }

  TempDir dir_;
};

TEST_P(AdapterConformanceTest, AutoDetectsFormatAndAgreesColdVsWarm) {
  const Backend& backend = *GetParam();
  std::string path = FilePath();
  backend.write(path, 200);
  auto db = OpenTable(path);
  ASSERT_NE(db->runtime("t"), nullptr);
  EXPECT_EQ(db->runtime("t")->adapter->format_name(), backend.format);

  const char* queries[] = {
      "SELECT COUNT(*) AS n, SUM(id) AS s FROM t",
      "SELECT id, name, score FROM t WHERE score >= 25.0 AND name = 'src3'",
      "SELECT name, COUNT(*) AS n FROM t WHERE day >= DATE '1991-11-23' "
      "GROUP BY name",
  };
  for (const char* sql : queries) {
    auto cold = db->Execute(sql);
    ASSERT_TRUE(cold.ok()) << sql << "\n" << cold.status();
    // Warm run: positional map + cache + statistics now populated; the
    // answer must not change.
    auto warm = db->Execute(sql);
    ASSERT_TRUE(warm.ok()) << sql << "\n" << warm.status();
    EXPECT_EQ(warm->Canonical(true), cold->Canonical(true)) << sql;
  }

  // A full scan completed, so the catalog knows the row count; ListTables
  // reports the adapter's format.
  std::vector<TableInfo> tables = db->ListTables();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].name, "t");
  EXPECT_EQ(tables[0].format, backend.format);
  EXPECT_EQ(tables[0].storage, TableStorage::kRaw);
  EXPECT_EQ(tables[0].row_count, 200.0);
}

TEST_P(AdapterConformanceTest, EmptySourceYieldsEmptyResults) {
  const Backend& backend = *GetParam();
  std::string path = FilePath();
  backend.write(path, 0);
  // An empty JSONL file has no first record to infer from: the schema must
  // be declared, as for CSV.
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  OpenOptions options;
  options.schema = TestSchema();
  options.format = backend.format;
  ASSERT_TRUE(db->Open("t", path, options).ok());

  auto count = db->Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status();
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0].int64(), 0);
  auto rows = db->Execute("SELECT id, name FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->rows.empty());
}

TEST_P(AdapterConformanceTest, TruncatedTailHasDefinedBehaviour) {
  const Backend& backend = *GetParam();
  std::string path = FilePath();
  backend.write(path, 50);
  backend.make_truncated(path, 50);
  auto db = OpenTable(path);

  auto result = db->Execute("SELECT id, name, score, day FROM t");
  if (backend.truncated_code == StatusCode::kOk) {
    // Indistinguishable from a legitimately short record: the present
    // prefix parses, the missing tail reads as NULL.
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows.size(), 51u);
    auto nulls = db->Execute("SELECT COUNT(*) AS n, COUNT(score) AS s FROM t");
    ASSERT_TRUE(nulls.ok()) << nulls.status();
    EXPECT_EQ(nulls->rows[0][0].int64(), 51);
    EXPECT_EQ(nulls->rows[0][1].int64(), 50);
  } else {
    // Detectably corrupt: the query fails with a clean, specific status
    // instead of fabricating values.
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), backend.truncated_code)
        << result.status();
  }
}

TEST_P(AdapterConformanceTest, RaggedRecordReadsAsNulls) {
  const Backend& backend = *GetParam();
  if (backend.make_ragged == nullptr) {
    GTEST_SKIP() << "fixed-width formats cannot express ragged records";
  }
  std::string path = FilePath();
  backend.write(path, 20);
  backend.make_ragged(path);
  auto db = OpenTable(path);

  auto result =
      db->Execute("SELECT COUNT(*) AS n, COUNT(score) AS s, COUNT(id) AS i "
                  "FROM t");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows[0][0].int64(), 21);  // the ragged record still counts
  EXPECT_EQ(result->rows[0][1].int64(), 20);  // its missing score is NULL
  EXPECT_EQ(result->rows[0][2].int64(), 21);  // its present id is not
  auto ragged = db->Execute("SELECT id FROM t WHERE score IS NULL");
  ASSERT_TRUE(ragged.ok()) << ragged.status();
  ASSERT_EQ(ragged->rows.size(), 1u);
  EXPECT_EQ(ragged->rows[0][0].int64(), 900);
}

TEST_P(AdapterConformanceTest, MalformedValueFailsOnlyWhenTouched) {
  const Backend& backend = *GetParam();
  if (backend.make_malformed == nullptr) {
    GTEST_SKIP() << "binary formats cannot hold unconvertible field text";
  }
  std::string path = FilePath();
  backend.write(path, 20);
  backend.make_malformed(path);
  auto db = OpenTable(path);

  // Selective parsing: queries that never convert the bad cell succeed.
  EXPECT_TRUE(db->Execute("SELECT name FROM t").ok());
  auto touch = db->Execute("SELECT id FROM t");
  ASSERT_FALSE(touch.ok());
  EXPECT_EQ(touch.status().code(), StatusCode::kInvalidArgument)
      << touch.status();
  // The failure is per-query, not sticky.
  EXPECT_TRUE(db->Execute("SELECT score FROM t WHERE name = 'bad'").ok());
}

TEST_P(AdapterConformanceTest, EarlyCursorCloseStopsRawReads) {
  const Backend& backend = *GetParam();
  std::string path = FilePath();
  backend.write(path, 100000);
  auto db = OpenTable(path);
  const RandomAccessFile* file = db->runtime("t")->adapter->file();
  const uint64_t file_size = file->size();

  auto cursor = db->Query("SELECT id FROM t");
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  RowBatch batch = cursor->MakeBatch();
  auto n = cursor->Next(&batch);
  ASSERT_TRUE(n.ok()) << n.status();
  ASSERT_GT(*n, 0u);
  ASSERT_TRUE(cursor->Close().ok());
  const uint64_t after_close = file->bytes_read();
  EXPECT_LT(after_close, file_size)
      << "closing the cursor after one batch must leave most of the file "
       "unread";
  // And no reads happen once the cursor is closed.
  EXPECT_EQ(file->bytes_read(), after_close);
}

TEST_P(AdapterConformanceTest, CompressedAccountingSeparatesBothStreams) {
  const Backend& backend = *GetParam();
  if (!backend.compressed) {
    GTEST_SKIP() << "plain backends have a single byte stream";
  }
  std::string path = FilePath();
  backend.write(path, 5000);
  auto db = OpenTable(path);
  const RandomAccessFile* file = db->runtime("t")->adapter->file();
  const InflateFile* gz = file->AsInflateFile();
  ASSERT_NE(gz, nullptr);

  // size() is the decompressed extent (what scans and the positional map
  // address); the repetitive test rows compress well below it.
  const uint64_t decompressed = gz->size();
  const uint64_t compressed = gz->inner()->size();
  EXPECT_GT(decompressed, compressed);
  auto on_disk = FileSizeOf(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, compressed);

  auto result = db->Execute("SELECT COUNT(*) AS n, SUM(id) AS s FROM t");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows[0][0].int64(), 5000);

  // bytes_read() counts decompressed payload delivered to readers; the
  // cold full scan covered the whole stream. The compressed-side reads
  // stay bounded by a couple of sequential passes (the open-time format
  // sniff restarts from zero once, and input buffering rounds up to the
  // 64 KiB refill) — not the quadratic blow-up naive seeking would cost.
  EXPECT_GE(file->bytes_read(), decompressed);
  EXPECT_GE(gz->bytes_inflated(), decompressed);
  EXPECT_LE(gz->compressed_bytes_read(), 3 * compressed + 65536);
  EXPECT_GT(gz->compressed_bytes_read(), 0u);
}

/// Verifies the FindRecordBoundary contract on the table registered in
/// `db`: idempotence, monotonicity, and that every offset maps to the
/// smallest true record start at or after it (or the common end sentinel).
/// True record starts come from a full cursor walk, so the boundary hook
/// and the record iterator are checked against each other.
void CheckBoundaryContract(Database* db) {
  const RawSourceAdapter* adapter = db->runtime("t")->adapter.get();
  std::vector<uint64_t> starts;
  {
    auto cursor = adapter->OpenCursor();
    ASSERT_TRUE(cursor.ok()) << cursor.status();
    RecordRef rec;
    while (true) {
      auto has = (*cursor)->Next(&rec);
      if (!has.ok() || !*has) break;  // truncated tails end the walk early
      starts.push_back(rec.offset);
    }
  }
  const uint64_t file_size = adapter->file()->size();
  auto sentinel = adapter->FindRecordBoundary(file_size);
  ASSERT_TRUE(sentinel.ok()) << sentinel.status();

  // Every true start maps to itself; start-to-start, the mapping is the
  // identity (idempotence on the fixed points).
  for (uint64_t s : starts) {
    auto b = adapter->FindRecordBoundary(s);
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(*b, s);
  }

  // Arbitrary offsets — including mid-record, mid-field, at EOF and past
  // the last record — map to the smallest start at or after them.
  uint64_t prev = 0;
  const uint64_t step = std::max<uint64_t>(1, file_size / 512);
  for (uint64_t offset = 0; offset <= file_size; offset += step) {
    auto b = adapter->FindRecordBoundary(offset);
    ASSERT_TRUE(b.ok()) << b.status();
    auto it = std::lower_bound(starts.begin(), starts.end(), offset);
    uint64_t want = it != starts.end() ? *it : *sentinel;
    // Offsets past the data region (FITS block padding) also resolve to
    // the sentinel, which may lie before them.
    if (offset > *sentinel) want = *sentinel;
    EXPECT_EQ(*b, want) << "offset " << offset;
    EXPECT_GE(*b, prev) << "monotonicity at " << offset;  // monotone
    prev = *b;
    auto again = adapter->FindRecordBoundary(*b);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *b) << "idempotence at " << offset;
  }
}

TEST_P(AdapterConformanceTest, FindRecordBoundaryContract) {
  const Backend& backend = *GetParam();
  std::string path = FilePath();
  backend.write(path, 150);
  auto db = OpenTable(path);
  CheckBoundaryContract(db.get());
}

TEST_P(AdapterConformanceTest, FindRecordBoundaryWithRaggedAndTruncatedTail) {
  const Backend& backend = *GetParam();
  if (backend.make_ragged == nullptr) {
    GTEST_SKIP() << "fixed-width formats cannot express ragged records";
  }
  std::string path = FilePath();
  backend.write(path, 30);
  backend.make_ragged(path);
  // A final record cut off mid-way with no terminator: no record starts
  // inside it, so every offset in it resolves to the end sentinel — the
  // unterminated tail belongs to whichever morsel contains its start.
  backend.make_truncated(path, 31);
  auto db = OpenTable(path);
  CheckBoundaryContract(db.get());

  const RawSourceAdapter* adapter = db->runtime("t")->adapter.get();
  const uint64_t file_size = adapter->file()->size();
  auto tail = adapter->FindRecordBoundary(file_size - 2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, file_size);
}

TEST_P(AdapterConformanceTest, FindRecordBoundaryAtExactEof) {
  const Backend& backend = *GetParam();
  std::string path = FilePath();
  backend.write(path, 10);
  auto db = OpenTable(path);
  const RawSourceAdapter* adapter = db->runtime("t")->adapter.get();
  const uint64_t file_size = adapter->file()->size();
  auto at_eof = adapter->FindRecordBoundary(file_size);
  ASSERT_TRUE(at_eof.ok());
  auto past_eof = adapter->FindRecordBoundary(file_size + 1000);
  ASSERT_TRUE(past_eof.ok());
  EXPECT_EQ(*past_eof, *at_eof);
  // The sentinel is itself a fixed point.
  auto again = adapter->FindRecordBoundary(*at_eof);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *at_eof);
}

TEST(CsvBoundaryTest, CrlfAndHeaderResolveToDataRecords) {
  TempDir dir;
  std::string path = dir.File("t.csv");
  const std::string content =
      "id,name\r\n"       // header (record starts must skip it)
      "1,alpha\r\n"
      "2,beta\r\n"
      "3,gamma\r\n";
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  CsvDialect dialect;
  dialect.has_header = true;
  Schema schema{{"id", TypeId::kInt64}, {"name", TypeId::kString}};
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->RegisterCsv("t", path, schema, dialect).ok());
  const RawSourceAdapter* adapter = db->runtime("t")->adapter.get();

  // boundary(0) is the first *data* record, not the header.
  const uint64_t first_data = content.find("1,alpha");
  auto b0 = adapter->FindRecordBoundary(0);
  ASSERT_TRUE(b0.ok());
  EXPECT_EQ(*b0, first_data);
  // An offset inside the header also resolves past it.
  auto b3 = adapter->FindRecordBoundary(3);
  ASSERT_TRUE(b3.ok());
  EXPECT_EQ(*b3, first_data);
  // CRLF: record starts sit after the '\n'; the '\r' belongs to the
  // preceding record's framing.
  const uint64_t second_data = content.find("2,beta");
  auto mid = adapter->FindRecordBoundary(first_data + 2);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(*mid, second_data);
  // And the full contract holds.
  CheckBoundaryContract(db.get());
}

TEST(CsvBoundaryTest, QuotedFieldsSnapToRecordStarts) {
  TempDir dir;
  std::string path = dir.File("t.csv");
  const std::string content =
      "1,\"a,b\"\"c\",x\n"
      "2,\",,,\",y\n"
      "3,plain,z\n";
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  CsvDialect dialect;
  dialect.quoting = true;
  Schema schema{{"id", TypeId::kInt64},
                {"q", TypeId::kString},
                {"t", TypeId::kString}};
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->RegisterCsv("t", path, schema, dialect).ok());
  // Offsets inside the quoted fields (commas, escaped quotes) snap to the
  // next record start — '\n' is a record boundary before quoting applies.
  CheckBoundaryContract(db.get());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, AdapterConformanceTest,
                         ::testing::Values(&kCsvBackend, &kJsonlBackend,
                                           &kFitsBackend, &kGzCsvBackend,
                                           &kGzJsonlBackend),
                         [](const ::testing::TestParamInfo<const Backend*>&
                                info) { return info.param->label; });

TEST(FixedStrideScanTest, RowCountMultipleOfStripeStillFinalizesScan) {
  // 4096 rows = exactly one default stripe: the last stripe fills without
  // the cursor reporting EOF, and the scan must still finalize row count
  // and statistics (regression: the old FITS scan did, via its row-count
  // check after every stripe).
  TempDir dir;
  std::string path = dir.File("t.fits");
  WriteFitsRows(path, 4096);
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->Open("t", path).ok());
  auto result = db->Execute("SELECT id, score FROM t");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 4096u);
  EXPECT_EQ(db->runtime("t")->row_count.load(), 4096);
  EXPECT_TRUE(db->runtime("t")->stats_populated);
  EXPECT_NE(db->GetTableStats("t"), nullptr);
}

// ---------------------------------------------------------------------
// Registry behaviour
// ---------------------------------------------------------------------

TEST(AdapterRegistryTest, BuiltinFormatsRegistered) {
  AdapterRegistry& registry = AdapterRegistry::Global();
  EXPECT_NE(registry.Find("csv"), nullptr);
  EXPECT_NE(registry.Find("fits"), nullptr);
  EXPECT_NE(registry.Find("jsonl"), nullptr);
  EXPECT_EQ(registry.Find("parquet"), nullptr);
}

TEST(AdapterRegistryTest, SniffersPreferSpecificEvidence) {
  TempDir dir;
  AdapterRegistry& registry = AdapterRegistry::Global();

  // Extension-free JSONL: content sniffing ('{') must beat CSV's weak
  // plain-text fallback.
  std::string noext = dir.File("records");
  ASSERT_TRUE(WriteStringToFile(noext, "{\"a\":1}\n{\"a\":2}\n").ok());
  auto detected = registry.Detect(noext, "{\"a\":1}\n{\"a\":2}\n");
  ASSERT_TRUE(detected.ok()) << detected.status();
  EXPECT_EQ((*detected)->format_name(), "jsonl");

  // The FITS magic card wins regardless of the file name.
  auto fits = registry.Detect(dir.File("data.csv"), "SIMPLE  =          T");
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ((*fits)->format_name(), "fits");

  // Unrecognizable bytes are an error, not a guess.
  EXPECT_FALSE(registry.Detect(dir.File("blob.bin"),
                               std::string_view("\x00\x01\x02", 3))
                   .ok());
}

TEST(AdapterRegistryTest, UnknownForcedFormatIsRejected) {
  TempDir dir;
  std::string path = dir.File("t.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1\n").ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  OpenOptions options;
  options.format = "parquet";
  Status s = db->Open("t", path, options);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db->HasTable("t"));
}

TEST(AdapterRegistryTest, TsvExtensionGetsTabDelimiterByDefault) {
  TempDir dir;
  std::string path = dir.File("data.tsv");
  ASSERT_TRUE(WriteStringToFile(path, "1\tash\n2\tbirch\n").ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  OpenOptions options;
  options.schema = Schema{{"id", TypeId::kInt64}, {"name", TypeId::kString}};
  ASSERT_TRUE(db->Open("t", path, options).ok());
  auto result = db->Execute("SELECT name FROM t WHERE id = 2");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].str(), "birch");

  // Forcing the format (the RegisterCsv compatibility path) keeps the
  // caller's dialect verbatim: a comma-delimited file that merely happens
  // to be named .tsv must parse exactly as before.
  std::string comma = dir.File("comma.tsv");
  ASSERT_TRUE(WriteStringToFile(comma, "1,ash\n2,birch\n").ok());
  auto forced = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(forced
                  ->RegisterCsv("t", comma,
                                Schema{{"id", TypeId::kInt64},
                                       {"name", TypeId::kString}})
                  .ok());
  auto comma_result = forced->Execute("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(comma_result.ok()) << comma_result.status();
  ASSERT_EQ(comma_result->rows.size(), 1u);
  EXPECT_EQ(comma_result->rows[0][0].str(), "ash");
}

TEST(AdapterRegistryTest, JsonlConcatenatedObjectsOnOneLineAreCorruption) {
  // NDJSON means one value per line; yielding just the first object of
  // {"a":2}{"a":3} would silently drop data, so the cursor reports
  // container corruption instead.
  TempDir dir;
  std::string path = dir.File("t.jsonl");
  ASSERT_TRUE(
      WriteStringToFile(path, "{\"a\":1}\n{\"a\":2}{\"a\":3}\n").ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->Open("t", path).ok());
  auto result = db->Execute("SELECT a FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
      << result.status();
}

TEST(AdapterRegistryTest, JsonlMalformedSeparatorsAndNestedValues) {
  // Separator discipline: {,} and missing commas are corruption, like
  // concatenated objects. Nested values under a schema key project as
  // NULL (tokenized over, not projected), matching inference.
  TempDir dir;
  for (const char* bad : {"{\"a\":1}\n{,}\n", "{\"a\":1 \"b\":2}\n",
                          "{\"a\":1,,\"b\":2}\n", "{\"a\":1,}\n",
                          "{\"a\":,\"b\":2}\n", "{\"a\":}\n"}) {
    std::string path = dir.File("bad.jsonl");
    ASSERT_TRUE(WriteStringToFile(path, bad).ok());
    auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
    OpenOptions options;
    options.schema = Schema{{"a", TypeId::kInt64}, {"b", TypeId::kInt64}};
    ASSERT_TRUE(db->Open("t", path, options).ok());
    auto result = db->Execute("SELECT a FROM t");
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption) << bad;
  }

  std::string nested = dir.File("nested.jsonl");
  ASSERT_TRUE(WriteStringToFile(
                  nested, "{\"a\":{\"x\":1},\"b\":7}\n{\"a\":\"s\",\"b\":8}\n")
                  .ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  OpenOptions options;
  options.schema = Schema{{"a", TypeId::kString}, {"b", TypeId::kInt64}};
  ASSERT_TRUE(db->Open("t", nested, options).ok());
  auto result = db->Execute("SELECT a, b FROM t");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_TRUE(result->rows[0][0].is_null());  // nested object -> NULL
  EXPECT_EQ(result->rows[1][0].str(), "s");
}

TEST(AdapterRegistryTest, JsonlBlankLinesAreNotRecords) {
  // Trailing/embedded blank lines are formatting (editors, log shippers),
  // not rows: they must not surface as phantom all-NULL tuples, matching
  // how schema inference skips them.
  TempDir dir;
  std::string path = dir.File("t.jsonl");
  ASSERT_TRUE(
      WriteStringToFile(path, "{\"a\":1}\n\n{\"a\":2}\n   \n\n").ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->Open("t", path).ok());
  for (int run = 0; run < 2; ++run) {  // cold, then warm via pmap/cache
    auto result = db->Execute("SELECT COUNT(*) AS n, COUNT(a) AS a FROM t");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows[0][0].int64(), 2) << "run " << run;
    EXPECT_EQ(result->rows[0][1].int64(), 2) << "run " << run;
  }
}

TEST(AdapterRegistryTest, JsonlMissingKeysStayNullColdAndWarm) {
  // Sparse records: projected keys absent from a record read as NULL, on
  // the cold walk and again when the positional map is warm.
  TempDir dir;
  std::string path = dir.File("sparse.jsonl");
  ASSERT_TRUE(WriteStringToFile(path,
                                "{\"a\":1,\"b\":\"x\",\"c\":1.5}\n"
                                "{\"a\":2}\n"
                                "{\"b\":\"y\",\"c\":2.5}\n")
                  .ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->Open("t", path).ok());
  for (int run = 0; run < 2; ++run) {
    auto result = db->Execute(
        "SELECT COUNT(*) AS n, COUNT(a) AS a, COUNT(b) AS b, COUNT(c) AS c "
        "FROM t");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows[0][0].int64(), 3) << "run " << run;
    EXPECT_EQ(result->rows[0][1].int64(), 2) << "run " << run;
    EXPECT_EQ(result->rows[0][2].int64(), 2) << "run " << run;
    EXPECT_EQ(result->rows[0][3].int64(), 2) << "run " << run;
    auto missing = db->Execute("SELECT b, c FROM t WHERE a = 2");
    ASSERT_TRUE(missing.ok()) << missing.status();
    ASSERT_EQ(missing->rows.size(), 1u);
    EXPECT_TRUE(missing->rows[0][0].is_null());
    EXPECT_TRUE(missing->rows[0][1].is_null());
  }
}

TEST(AdapterRegistryTest, JsonlSchemaInferenceFromFirstRecord) {
  TempDir dir;
  std::string path = dir.File("events.jsonl");
  ASSERT_TRUE(WriteStringToFile(
                  path,
                  "{\"user\":\"ada\",\"hits\":3,\"ratio\":0.5,"
                  "\"active\":true,\"since\":\"2020-04-01\"}\n"
                  "{\"user\":\"bob\",\"hits\":7,\"ratio\":1.25,"
                  "\"active\":false,\"since\":\"2021-09-15\"}\n")
                  .ok());
  auto db = MakeEngine(SystemUnderTest::kPostgresRawPMC);
  ASSERT_TRUE(db->Open("events", path).ok());
  auto schema = db->GetTableSchema("events");
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ((*schema)->num_columns(), 5);
  EXPECT_EQ((*schema)->column(0).name, "user");
  EXPECT_EQ((*schema)->column(0).type, TypeId::kString);
  EXPECT_EQ((*schema)->column(1).type, TypeId::kInt64);
  EXPECT_EQ((*schema)->column(2).type, TypeId::kDouble);
  EXPECT_EQ((*schema)->column(3).type, TypeId::kBool);
  EXPECT_EQ((*schema)->column(4).type, TypeId::kDate);

  auto result = db->Execute(
      "SELECT user FROM events WHERE active AND since >= DATE '2020-01-01'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].str(), "ada");
}

}  // namespace
}  // namespace nodb
