// Warm-restart snapshot subsystem (src/snapshot): round trips, zero-reparse
// warm opens, staleness/corruption fallback, budget interaction, the
// background writer, and catalog/STATS reporting. The invariant under test
// throughout: a snapshot can make a restart faster, never wrong — every
// degraded outcome must answer byte-identically to a never-snapshotted
// engine.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "engine/engines.h"
#include "fits/fits_writer.h"
#include "io/inflate_file.h"
#include "snapshot/snapshot.h"
#include "util/fs_util.h"
#include "workload/micro.h"

namespace nodb {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.rows = 10000;  // 3 stripes at the default 4096 tuples_per_chunk
    spec_.cols = 5;
    csv_ = dir_.File("t.csv");
    ASSERT_TRUE(GenerateWideCsv(csv_, spec_).ok());
    snap_dir_ = dir_.File("snaps");
  }

  EngineConfig BaseConfig() {
    return EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  }

  EngineConfig SnapConfig() {
    EngineConfig cfg = BaseConfig();
    cfg.snapshot_dir = snap_dir_;
    return cfg;
  }

  std::unique_ptr<Database> OpenDb(const EngineConfig& cfg) {
    auto db = std::make_unique<Database>(cfg);
    EXPECT_TRUE(db->RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
    return db;
  }

  /// Executes `sql` and flattens the result to comparable strings; a failed
  /// query yields a sentinel that can never equal a real result.
  static std::vector<std::string> Rows(Database* db, const std::string& sql) {
    auto result = db->Execute(sql);
    if (!result.ok()) {
      return {"<error: " + result.status().ToString() + ">"};
    }
    std::vector<std::string> rows;
    rows.reserve(result->rows.size());
    for (const Row& row : result->rows) {
      std::string s;
      for (const Value& v : row) {
        s += v.ToString();
        s.push_back('|');
      }
      rows.push_back(std::move(s));
    }
    return rows;
  }

  static const std::vector<std::string>& Queries() {
    static const std::vector<std::string> queries = {
        "SELECT COUNT(*) FROM t",
        "SELECT a1, a3 FROM t WHERE a1 < 200000000",
        "SELECT SUM(a2), MIN(a4), MAX(a5) FROM t",
    };
    return queries;
  }

  /// Full warm-up: tokenizes every row and caches every attribute.
  static void Warm(Database* db) {
    auto result =
        db->Execute("SELECT SUM(a1), SUM(a2), SUM(a3), SUM(a4), SUM(a5) "
                    "FROM t");
    ASSERT_TRUE(result.ok()) << result.status();
  }

  TableInfo InfoOf(Database* db) {
    for (const TableInfo& info : db->ListTables()) {
      if (info.name == "t") return info;
    }
    return TableInfo{};
  }

  /// Warms a fresh engine, snapshots it, and returns the snapshot path.
  std::string WriteWarmSnapshot() {
    auto db = OpenDb(SnapConfig());
    Warm(db.get());
    auto saved = db->Snapshot("t");
    EXPECT_TRUE(saved.ok()) << saved.status();
    return SnapshotPathFor(snap_dir_, "t");
  }

  /// Asserts that a reopened engine (whatever its snapshot outcome) answers
  /// every probe query identically to a never-snapshotted engine.
  void ExpectColdEquivalent(Database* db) {
    auto cold = OpenDb(BaseConfig());
    for (const std::string& sql : Queries()) {
      EXPECT_EQ(Rows(db, sql), Rows(cold.get(), sql)) << sql;
    }
  }

  TempDir dir_;
  MicroDataSpec spec_;
  std::string csv_;
  std::string snap_dir_;
};

TEST_F(SnapshotTest, ChecksumCatchesFlipsAndTruncation) {
  std::string data(1000, 'x');
  data[500] = 'y';
  uint64_t base = SnapshotChecksum(data.data(), data.size());
  std::string flipped = data;
  flipped[777] ^= 0x01;
  EXPECT_NE(SnapshotChecksum(flipped.data(), flipped.size()), base);
  // Truncation that ends on identical bytes still changes the checksum
  // (length is folded in).
  EXPECT_NE(SnapshotChecksum(data.data(), data.size() - 8), base);
  std::string zeros(64, '\0');
  EXPECT_NE(SnapshotChecksum(zeros.data(), 64),
            SnapshotChecksum(zeros.data(), 56));
}

TEST_F(SnapshotTest, FingerprintTracksSourceIdentity) {
  auto fp1 = FingerprintSource(csv_);
  ASSERT_TRUE(fp1.ok()) << fp1.status();
  auto fp2 = FingerprintSource(csv_);
  ASSERT_TRUE(fp2.ok());
  EXPECT_TRUE(*fp1 == *fp2);

  // Appending a row moves size (and the tail hash).
  auto contents = ReadFileToString(csv_);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(WriteStringToFile(csv_, *contents + "1,2,3,4,5\n").ok());
  auto fp3 = FingerprintSource(csv_);
  ASSERT_TRUE(fp3.ok());
  EXPECT_FALSE(*fp1 == *fp3);
}

TEST_F(SnapshotTest, WarmReopenAnswersWithoutTouchingRawFile) {
  std::vector<std::string> expected;
  {
    auto db = OpenDb(SnapConfig());
    Warm(db.get());
    for (const std::string& sql : Queries()) {
      for (std::string& row : Rows(db.get(), sql)) {
        expected.push_back(std::move(row));
      }
    }
    auto saved = db->Snapshot("t");
    ASSERT_TRUE(saved.ok()) << saved.status();
    EXPECT_GT(*saved, 0u);
  }

  auto db = OpenDb(SnapConfig());
  TableInfo info = InfoOf(db.get());
  EXPECT_EQ(info.snapshot_state, SnapshotState::kLoaded);
  EXPECT_GT(info.snapshot_bytes, 0u);
  EXPECT_EQ(db->snapshot_counters().loads, 1u);
  // Restored state makes the table warm before any query: row count and
  // statistics are already known.
  EXPECT_GE(db->GetRowCount("t"), 0);
  EXPECT_EQ(static_cast<uint64_t>(db->GetRowCount("t")), spec_.rows);
  EXPECT_NE(db->GetTableStats("t"), nullptr);

  // The headline guarantee: answering from the restored structures reads
  // zero bytes of the raw file (fingerprinting used a private handle).
  const uint64_t before = InfoOf(db.get()).bytes_read;
  std::vector<std::string> actual;
  for (const std::string& sql : Queries()) {
    for (std::string& row : Rows(db.get(), sql)) {
      actual.push_back(std::move(row));
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(InfoOf(db.get()).bytes_read, before);
}

TEST_F(SnapshotTest, MissingSnapshotCountsAsMiss) {
  auto db = OpenDb(SnapConfig());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kNone);
  EXPECT_EQ(db->snapshot_counters().load_misses, 1u);
  ExpectColdEquivalent(db.get());
}

TEST_F(SnapshotTest, MutatedSourceInvalidatesSnapshot) {
  WriteWarmSnapshot();

  // Append one row: size, mtime and tail hash all move.
  auto contents = ReadFileToString(csv_);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(WriteStringToFile(csv_, *contents + "7,7,7,7,7\n").ok());

  auto db = OpenDb(SnapConfig());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kStale);
  EXPECT_EQ(db->snapshot_counters().load_stale, 1u);
  EXPECT_EQ(db->snapshot_counters().loads, 0u);
  // The stale snapshot restored nothing: answers over the mutated file are
  // identical to a never-snapshotted engine's (including the new row).
  ExpectColdEquivalent(db.get());
  auto count = db->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].int64(),
            static_cast<int64_t>(spec_.rows) + 1);
}

TEST_F(SnapshotTest, InPlaceEditSameSizeInvalidatesSnapshot) {
  WriteWarmSnapshot();

  // Flip one digit without changing the file size: mtime and the sample
  // hash catch it.
  auto contents = ReadFileToString(csv_);
  ASSERT_TRUE(contents.ok());
  std::string edited = *contents;
  size_t pos = edited.find_first_of("0123456789");
  ASSERT_NE(pos, std::string::npos);
  edited[pos] = edited[pos] == '9' ? '8' : static_cast<char>(edited[pos] + 1);
  ASSERT_TRUE(WriteStringToFile(csv_, edited).ok());

  auto db = OpenDb(SnapConfig());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kStale);
  ExpectColdEquivalent(db.get());
}

TEST_F(SnapshotTest, CorruptionCorpusDegradesToCold) {
  std::string path = WriteWarmSnapshot();
  auto pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  const std::string& good = *pristine;
  ASSERT_GT(good.size(), 64u);

  struct Case {
    std::string name;
    std::string bytes;
  };
  std::vector<Case> corpus;
  corpus.push_back({"empty", ""});
  corpus.push_back({"trunc-mid-header", good.substr(0, 13)});
  corpus.push_back({"trunc-at-header", good.substr(0, 40)});
  corpus.push_back({"trunc-early-payload", good.substr(0, 96)});
  corpus.push_back({"trunc-half", good.substr(0, good.size() / 2)});
  corpus.push_back({"trunc-last-byte", good.substr(0, good.size() - 1)});
  // Bit flips: magic, version, payload_size, checksum, fingerprint region,
  // mid-payload, tail. (Header flags/reserved are deliberately not in the
  // corpus: they are ignored by design, so flipping them still loads.)
  for (size_t offset : {size_t{0}, size_t{9}, size_t{17}, size_t{25},
                        size_t{45}, good.size() / 2, good.size() - 2}) {
    Case c;
    c.name = "flip-" + std::to_string(offset);
    c.bytes = good;
    c.bytes[offset] ^= 0x10;
    corpus.push_back(std::move(c));
  }

  for (const Case& c : corpus) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(WriteStringToFile(path, c.bytes).ok());
    auto db = OpenDb(SnapConfig());
    TableInfo info = InfoOf(db.get());
    // Never loads; classification is corrupt except for the version flip,
    // which reads as a (valid) future-version file -> stale.
    EXPECT_NE(info.snapshot_state, SnapshotState::kLoaded);
    EXPECT_EQ(db->snapshot_counters().loads, 0u);
    ExpectColdEquivalent(db.get());
  }

  // The pristine bytes still load — the corpus loop really was testing
  // corruption, not some unrelated staleness.
  ASSERT_TRUE(WriteStringToFile(path, good).ok());
  auto db = OpenDb(SnapConfig());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kLoaded);
}

TEST_F(SnapshotTest, SchemaChangeIsStaleNotCorrupt) {
  WriteWarmSnapshot();

  // Reopen declaring a3 as a string: the snapshot decodes cleanly under its
  // own recorded schema, then classifies as stale.
  Schema changed = MicroSchema(spec_);
  auto db = std::make_unique<Database>(SnapConfig());
  Schema edited{{"a1", TypeId::kInt64},
                {"a2", TypeId::kInt64},
                {"a3", TypeId::kString},
                {"a4", TypeId::kInt64},
                {"a5", TypeId::kInt64}};
  ASSERT_TRUE(db->RegisterCsv("t", csv_, edited).ok());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kStale);
  EXPECT_EQ(db->snapshot_counters().load_stale, 1u);
  auto result = db->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int64(), static_cast<int64_t>(spec_.rows));
}

TEST_F(SnapshotTest, StripeSizeChangeIsStale) {
  WriteWarmSnapshot();
  EngineConfig cfg = SnapConfig();
  cfg.tuples_per_chunk = 1024;  // snapshot was taken at 4096
  auto db = OpenDb(cfg);
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kStale);
  ExpectColdEquivalent(db.get());
}

TEST_F(SnapshotTest, BudgetConstrainedLoadDeclinesGracefully) {
  WriteWarmSnapshot();
  EngineConfig cfg = SnapConfig();
  cfg.pm_budget_bytes = 16 * 1024;    // far below the exported positions
  cfg.cache_budget_bytes = 8 * 1024;  // forces cache eviction during load
  auto db = OpenDb(cfg);
  // The load still counts as a load (fingerprint valid, install ran); the
  // budget simply declined most chunks — and answers stay correct.
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kLoaded);
  ExpectColdEquivalent(db.get());
}

TEST_F(SnapshotTest, CacheOnlyAndPmapOnlyVariantsRoundTrip) {
  for (SystemUnderTest sut : {SystemUnderTest::kPostgresRawPM,
                              SystemUnderTest::kPostgresRawC}) {
    SCOPED_TRACE(static_cast<int>(sut));
    TempDir variant_dir;
    EngineConfig cfg = EngineConfig::ForSystem(sut);
    cfg.snapshot_dir = variant_dir.File("snaps");
    {
      auto db = std::make_unique<Database>(cfg);
      ASSERT_TRUE(db->RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
      Warm(db.get());
      auto saved = db->Snapshot("t");
      ASSERT_TRUE(saved.ok()) << saved.status();
    }
    auto db = std::make_unique<Database>(cfg);
    ASSERT_TRUE(db->RegisterCsv("t", csv_, MicroSchema(spec_)).ok());
    EXPECT_EQ(db->snapshot_counters().loads, 1u);
    ExpectColdEquivalent(db.get());
  }
}

/// Field-wise equality of two per-column access counter vectors.
void ExpectSameAccess(const std::vector<ColumnAccessCounters>& got,
                      const std::vector<ColumnAccessCounters>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t a = 0; a < want.size(); ++a) {
    SCOPED_TRACE("attr " + std::to_string(a));
    EXPECT_EQ(got[a].scans, want[a].scans);
    EXPECT_EQ(got[a].rows_parsed, want[a].rows_parsed);
    EXPECT_EQ(got[a].bytes_parsed, want[a].bytes_parsed);
    EXPECT_EQ(got[a].rows_from_cache, want[a].rows_from_cache);
    EXPECT_EQ(got[a].rows_from_promoted, want[a].rows_from_promoted);
  }
}

TEST_F(SnapshotTest, StatisticsOnlyTableReopensLoaded) {
  // No positional map and no cache: the snapshot holds statistics, the
  // row count and the access counters only. It must still record the
  // engine's stripe size, or the reopen rejects its own file as corrupt.
  EngineConfig cfg = SnapConfig();
  cfg.positional_map = false;
  cfg.cache = false;
  std::vector<ColumnAccessCounters> access;
  {
    auto db = OpenDb(cfg);
    Warm(db.get());
    access = db->runtime("t")->access->SnapshotAll();
    auto saved = db->Snapshot("t");
    ASSERT_TRUE(saved.ok()) << saved.status();
  }

  auto db = OpenDb(cfg);
  TableInfo info = InfoOf(db.get());
  EXPECT_EQ(info.snapshot_state, SnapshotState::kLoaded);
  EXPECT_EQ(db->snapshot_counters().loads, 1u);
  EXPECT_EQ(db->snapshot_counters().load_corrupt, 0u);
  EXPECT_EQ(info.row_count, static_cast<double>(spec_.rows));
  EXPECT_EQ(db->GetRowCount("t"), static_cast<double>(spec_.rows));
  EXPECT_NE(db->GetTableStats("t"), nullptr);
  ExpectSameAccess(db->runtime("t")->access->SnapshotAll(), access);
  ExpectColdEquivalent(db.get());
}

TEST_F(SnapshotTest, FitsTableWithoutCacheReopensLoaded) {
  // FITS positions are arithmetic, so a FITS table never has a positional
  // map; without the cache it snapshots exactly like the table above.
  const std::string fits = dir_.File("t.fits");
  Schema schema{{"id", TypeId::kInt64}, {"score", TypeId::kDouble}};
  constexpr int kRows = 5000;
  {
    auto writer = FitsWriter::Create(fits, schema);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < kRows; ++i) {
      Row row{Value::Int64(i % 97), Value::Double(i / 4.0)};
      ASSERT_TRUE((*writer)->Append(row).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  EngineConfig cfg = SnapConfig();
  cfg.cache = false;
  const std::string sql = "SELECT SUM(id), MAX(score) FROM t WHERE id < 50";
  std::vector<std::string> expected;
  std::vector<ColumnAccessCounters> access;
  {
    Database db(cfg);
    ASSERT_TRUE(db.RegisterFits("t", fits).ok());
    expected = Rows(&db, sql);
    access = db.runtime("t")->access->SnapshotAll();
    auto saved = db.Snapshot("t");
    ASSERT_TRUE(saved.ok()) << saved.status();
  }

  Database db(cfg);
  ASSERT_TRUE(db.RegisterFits("t", fits).ok());
  TableInfo info = InfoOf(&db);
  EXPECT_EQ(info.snapshot_state, SnapshotState::kLoaded);
  EXPECT_EQ(db.snapshot_counters().loads, 1u);
  EXPECT_EQ(db.snapshot_counters().load_corrupt, 0u);
  EXPECT_EQ(info.row_count, static_cast<double>(kRows));
  EXPECT_EQ(db.GetRowCount("t"), static_cast<double>(kRows));
  EXPECT_NE(db.GetTableStats("t"), nullptr);
  ExpectSameAccess(db.runtime("t")->access->SnapshotAll(), access);
  EXPECT_EQ(Rows(&db, sql), expected);
}

TEST_F(SnapshotTest, ExplicitSnapshotErrors) {
  auto db = OpenDb(SnapConfig());
  EXPECT_EQ(db->Snapshot("missing").status().code(), StatusCode::kNotFound);

  // No snapshot directory configured.
  auto plain = OpenDb(BaseConfig());
  EXPECT_EQ(plain->Snapshot("t").status().code(),
            StatusCode::kInvalidArgument);

  // Loaded tables have no raw source to fingerprint.
  EngineConfig loaded_cfg = EngineConfig::ForSystem(SystemUnderTest::kPostgreSQL);
  loaded_cfg.snapshot_dir = snap_dir_;
  loaded_cfg.data_dir = dir_.path();
  Database loaded(loaded_cfg);
  ASSERT_TRUE(loaded.LoadCsv("t", csv_, MicroSchema(spec_)).ok());
  EXPECT_EQ(loaded.Snapshot("t").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, SnapshotAllSkipsUnchangedState) {
  auto db = OpenDb(SnapConfig());
  Warm(db.get());
  ASSERT_TRUE(db->SnapshotAll().ok());
  EXPECT_EQ(db->snapshot_counters().saves, 1u);
  // Second pass: nothing moved, nothing written.
  ASSERT_TRUE(db->SnapshotAll().ok());
  EXPECT_EQ(db->snapshot_counters().saves, 1u);
}

TEST_F(SnapshotTest, FreshlyLoadedStateIsNotResaved) {
  WriteWarmSnapshot();
  auto db = OpenDb(SnapConfig());
  ASSERT_EQ(db->snapshot_counters().loads, 1u);
  // The on-disk file already equals the restored state.
  ASSERT_TRUE(db->SnapshotAll().ok());
  EXPECT_EQ(db->snapshot_counters().saves, 0u);
}

TEST_F(SnapshotTest, BackgroundWriterPersistsWithoutQuiescing) {
  EngineConfig cfg = SnapConfig();
  cfg.snapshot_interval_ms = 25;
  std::string path = SnapshotPathFor(snap_dir_, "t");
  {
    auto db = OpenDb(cfg);
    Warm(db.get());
    // Queries keep running while the writer does its thing.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!FileExists(path) &&
           std::chrono::steady_clock::now() < deadline) {
      auto result = db->Execute("SELECT COUNT(*) FROM t");
      ASSERT_TRUE(result.ok()) << result.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(FileExists(path));
    EXPECT_GE(db->snapshot_counters().saves, 1u);
  }  // destructor joins the writer thread

  auto db = OpenDb(SnapConfig());
  EXPECT_EQ(db->snapshot_counters().loads, 1u);
  ExpectColdEquivalent(db.get());
}

TEST_F(SnapshotTest, CrashLeftoverTempFileIsIgnored) {
  std::string path = WriteWarmSnapshot();
  // Simulate a crash mid-write: a temp file next to a valid snapshot.
  ASSERT_TRUE(WriteStringToFile(path + ".tmp.9999", "partial").ok());
  auto db = OpenDb(SnapConfig());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kLoaded);
}

// ---------------------------------------------------------------------
// v3 gzip checkpoint-index section: a snapshot of a gz-served table also
// carries the decompression restart points, so a warm restart seeks
// instead of re-inflating from zero. The degradation ladder under test:
// a v2 file (no section) and a corrupt section both still load the
// pmap/cache/stats warm — only the index starts cold.
// ---------------------------------------------------------------------

class GzSnapshotTest : public SnapshotTest {
 protected:
  static constexpr uint64_t kInterval = 32 * 1024;

  void SetUp() override {
    SnapshotTest::SetUp();
    if (!InflateSupported()) GTEST_SKIP() << "built without zlib";
    auto content = ReadFileToString(csv_);
    ASSERT_TRUE(content.ok());
    gz_csv_ = csv_ + ".gz";
    ASSERT_TRUE(WriteStringToFile(gz_csv_, GzipCompress(*content)).ok());
  }

  EngineConfig GzSnapConfig() {
    EngineConfig cfg = SnapConfig();
    cfg.gz_checkpoint_bytes = kInterval;
    return cfg;
  }

  std::unique_ptr<Database> OpenGzDb(const EngineConfig& cfg) {
    auto db = std::make_unique<Database>(cfg);
    EXPECT_TRUE(db->RegisterCsv("t", gz_csv_, MicroSchema(spec_)).ok());
    return db;
  }

  const InflateFile* GzOf(Database* db) {
    return db->runtime("t")->adapter->file()->AsInflateFile();
  }

  /// The canonical serialized checkpoint index for gz_csv_ at kInterval,
  /// built on a private handle. Checkpoint placement is deterministic
  /// (same bytes, same interval, same zlib), so the engine's snapshot must
  /// embed exactly these bytes — which is what makes surgical removal of
  /// the section possible below.
  std::string ExpectedIndexBlob() {
    auto inner = RandomAccessFile::Open(gz_csv_);
    EXPECT_TRUE(inner.ok());
    InflateOptions opts;
    opts.checkpoint_interval_bytes = kInterval;
    auto gz = InflateFile::Open(std::move(*inner), opts);
    EXPECT_TRUE(gz.ok()) << gz.status();
    std::string buf((*gz)->size(), '\0');
    auto n = (*gz)->Read(0, buf.size(), buf.data());
    EXPECT_TRUE(n.ok()) << n.status();
    EXPECT_TRUE((*gz)->index_complete());
    return (*gz)->SerializeIndex();
  }

  /// The byte suffix the v3 gz section adds to a snapshot payload:
  /// [flag=1][u32 length][blob].
  std::string SectionSuffix(const std::string& blob) {
    std::string suffix(1, '\x01');
    uint32_t len = static_cast<uint32_t>(blob.size());
    char b[4];
    std::memcpy(b, &len, 4);
    suffix.append(b, 4);
    suffix += blob;
    return suffix;
  }

  /// Replaces the payload of the snapshot at `path` and re-stamps the
  /// header (version, payload size, checksum) so only the *target* of each
  /// test's surgery is invalid, never the envelope.
  void RestampSnapshot(const std::string& path, uint32_t version,
                       const std::string& payload) {
    std::string bytes = "NODBSNAP";
    auto put32 = [&bytes](uint32_t v) {
      char b[4];
      std::memcpy(b, &v, 4);
      bytes.append(b, 4);
    };
    auto put64 = [&bytes](uint64_t v) {
      char b[8];
      std::memcpy(b, &v, 8);
      bytes.append(b, 8);
    };
    put32(version);
    put32(0);  // flags
    put64(payload.size());
    put64(SnapshotChecksum(payload.data(), payload.size()));
    put64(0);  // reserved
    bytes += payload;
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  }

  std::string gz_csv_;
};

TEST_F(GzSnapshotTest, V3RoundTripRestoresCheckpointIndex) {
  std::vector<std::string> expected;
  {
    auto db = OpenGzDb(GzSnapConfig());
    Warm(db.get());
    ASSERT_TRUE(GzOf(db.get())->index_complete());
    EXPECT_GT(GzOf(db.get())->checkpoint_count(), 2u);
    for (const std::string& sql : Queries()) {
      for (std::string& row : Rows(db.get(), sql)) {
        expected.push_back(std::move(row));
      }
    }
    auto saved = db->Snapshot("t");
    ASSERT_TRUE(saved.ok()) << saved.status();
  }

  auto db = OpenGzDb(GzSnapConfig());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kLoaded);
  const InflateFile* gz = GzOf(db.get());
  // The index came back from the snapshot — complete before any scan.
  EXPECT_TRUE(gz->index_complete());
  EXPECT_GT(gz->checkpoint_count(), 2u);

  // Warm queries answer from the restored cache: zero decompressed payload
  // read, zero bytes inflated.
  const uint64_t payload_before = InfoOf(db.get()).bytes_read;
  const uint64_t inflated_before = gz->bytes_inflated();
  std::vector<std::string> actual;
  for (const std::string& sql : Queries()) {
    for (std::string& row : Rows(db.get(), sql)) {
      actual.push_back(std::move(row));
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(InfoOf(db.get()).bytes_read, payload_before);
  EXPECT_EQ(gz->bytes_inflated(), inflated_before);

  // A directed read into the middle of the stream seeks via a restored
  // checkpoint: at most one interval (plus a deflate block) of inflation,
  // never a full re-inflate from zero.
  const uint64_t target = gz->size() * 7 / 10;
  char buf[256];
  auto n = gz->Read(target, sizeof(buf), buf);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_GT(gz->checkpoint_restarts(), 0u);
  EXPECT_LE(gz->bytes_inflated() - inflated_before,
            kInterval + sizeof(buf) + 128 * 1024);
}

TEST_F(GzSnapshotTest, V2DowngradeLoadsWithColdIndex) {
  std::string path;
  {
    auto db = OpenGzDb(GzSnapConfig());
    Warm(db.get());
    auto saved = db->Snapshot("t");
    ASSERT_TRUE(saved.ok()) << saved.status();
    path = SnapshotPathFor(snap_dir_, "t");
  }
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string payload = raw->substr(40);
  const std::string suffix = SectionSuffix(ExpectedIndexBlob());
  ASSERT_GE(payload.size(), suffix.size());
  ASSERT_EQ(payload.substr(payload.size() - suffix.size()), suffix)
      << "the v3 file does not end with the canonical gz section";
  // Strip the section and downgrade the version: a v2 file, as an older
  // build would have written.
  payload.resize(payload.size() - suffix.size());
  RestampSnapshot(path, 2, payload);

  auto db = OpenGzDb(GzSnapConfig());
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kLoaded);
  EXPECT_EQ(db->snapshot_counters().loads, 1u);
  // Warm structures restored; only the checkpoint index starts cold.
  EXPECT_EQ(static_cast<uint64_t>(db->GetRowCount("t")), spec_.rows);
  EXPECT_FALSE(GzOf(db.get())->index_complete());
  EXPECT_EQ(GzOf(db.get())->checkpoint_count(), 0u);
  ExpectColdEquivalent(db.get());
}

TEST_F(GzSnapshotTest, CorruptIndexSectionDegradesToReinflateNotCold) {
  std::string path;
  {
    auto db = OpenGzDb(GzSnapConfig());
    Warm(db.get());
    auto saved = db->Snapshot("t");
    ASSERT_TRUE(saved.ok()) << saved.status();
    path = SnapshotPathFor(snap_dir_, "t");
  }
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string payload = raw->substr(40);
  const std::string blob = ExpectedIndexBlob();
  ASSERT_GT(blob.size(), 16u);
  ASSERT_GE(payload.size(), blob.size());
  // Flip one byte in the middle of the embedded index and re-stamp the
  // envelope checksum, so only InflateFile's own validation can catch it.
  payload[payload.size() - blob.size() / 2] ^= 0x20;
  RestampSnapshot(path, 3, payload);

  auto db = OpenGzDb(GzSnapConfig());
  // The table is NOT cold: everything else in the snapshot installed.
  EXPECT_EQ(InfoOf(db.get()).snapshot_state, SnapshotState::kLoaded);
  EXPECT_EQ(db->snapshot_counters().loads, 1u);
  EXPECT_EQ(static_cast<uint64_t>(db->GetRowCount("t")), spec_.rows);
  // The rejected index degrades to re-inflation from zero, never to a
  // wrong seek: no checkpoints installed.
  EXPECT_FALSE(GzOf(db.get())->index_complete());
  EXPECT_EQ(GzOf(db.get())->checkpoint_count(), 0u);
  ExpectColdEquivalent(db.get());
}

}  // namespace
}  // namespace nodb
