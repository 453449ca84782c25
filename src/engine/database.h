#ifndef NODB_ENGINE_DATABASE_H_
#define NODB_ENGINE_DATABASE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adaptive/promoter.h"
#include "engine/config.h"
#include "engine/query_cursor.h"
#include "exec/executor.h"
#include "exec/query_result.h"
#include "exec/table_runtime.h"
#include "plan/planner.h"
#include "raw/adapter_registry.h"
#include "sql/binder.h"
#include "storage/loader.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace nodb {

/// Per-query execution options, honored identically by Query and Execute
/// (the materializing wrapper used to build its own ExecOptions and drop
/// the caller's — deadlines now apply to both paths uniformly).
struct QueryOptions {
  /// Monotonic-clock deadline; zero (default) = none. Checked at batch
  /// boundaries: an expired deadline kills the query mid-flight with a
  /// typed kDeadlineExceeded error, releasing scan epochs and pool slots.
  std::chrono::steady_clock::time_point deadline{};
  /// Shared cancel/deadline handle. Optional — when null and `deadline` is
  /// set, one is created internally. A caller that cancels mid-flight (a
  /// server session reacting to a CANCEL verb or a dropped connection)
  /// passes its own handle and flips control->cancelled from any thread.
  ExecControlPtr control;
  /// Rows per operator batch; 0 (default) = EngineConfig::batch_size.
  size_t batch_size = 0;
};

/// Catalog snapshot of one registered table (Database::ListTables).
struct TableInfo {
  std::string name;
  /// Raw tables report their adapter's format ("csv", "fits", "jsonl", ...);
  /// loaded tables report their storage engine ("heap", "compact").
  std::string format;
  TableStorage storage = TableStorage::kRaw;
  /// TableRuntime::row_count: exact when known (loaded tables, a raw table
  /// after a full scan, a promotion sweep or a snapshot load, or a format
  /// header that states it); negative while still unknown.
  double row_count = -1;
  /// Current footprint of the adaptive structures (0 when absent).
  uint64_t pmap_bytes = 0;
  uint64_t cache_bytes = 0;
  /// Warm-restart snapshot state (raw tables; kNone when the feature is off
  /// or no snapshot file existed at Open).
  SnapshotState snapshot_state = SnapshotState::kNone;
  /// On-disk size of the snapshot last loaded or written for this table.
  uint64_t snapshot_bytes = 0;
  /// Raw-file bytes read through the table's adapter since Open (0 for
  /// loaded tables). The observable for "a warm restart re-parses nothing".
  /// For compressed sources this counts *decompressed payload* bytes.
  uint64_t bytes_read = 0;
  /// Compressed-source (gzip) state; all zero/false for plain files.
  /// `gz_bytes_inflated` counts every decompressed byte produced, including
  /// skip-forward bytes during checkpoint seeks — the observable for "a
  /// restarted server inflates only from checkpoints" (stays 0 when the
  /// cache serves everything, bounded by one interval per pmap seek).
  bool compressed = false;
  uint64_t gz_checkpoints = 0;
  uint64_t gz_bytes_inflated = 0;
  /// Workload-driven promotion state (src/adaptive; empty/zero when the
  /// subsystem is off). Attributes currently resident in the promoted
  /// columnar store, their footprint, and lifetime transition counts.
  std::vector<int> promoted_columns;
  uint64_t promoted_bytes = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
};

/// Aggregate outcome counters of the snapshot subsystem for one Database
/// (Database::snapshot_counters; surfaced by the server's STATS verb).
struct SnapshotCounters {
  uint64_t loads = 0;          // snapshots restored at Open
  uint64_t load_misses = 0;    // no snapshot file present at Open
  uint64_t load_stale = 0;     // rejected: source fingerprint moved
  uint64_t load_corrupt = 0;   // rejected: checksum/decode failure
  uint64_t saves = 0;          // snapshot files written
  uint64_t save_failures = 0;  // write attempts that errored (I/O)
  uint64_t bytes_loaded = 0;
  uint64_t bytes_saved = 0;
};

/// The engine facade: a catalog of tables plus SQL execution. One Database
/// instance corresponds to one "system" in the paper's experiments; its
/// EngineConfig decides whether tables are queried in situ (raw files made
/// first-class citizens, with adaptive positional map / cache / statistics
/// persisting across queries) or loaded up front.
///
/// Typical NoDB use:
///
///   Database db(EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC));
///   db.RegisterCsv("t", "/data/t.csv", schema);
///   auto result = db.Execute("SELECT a, SUM(b) FROM t GROUP BY a");
///
/// Typical loaded-DBMS use:
///
///   Database db(EngineConfig::ForSystem(SystemUnderTest::kPostgreSQL));
///   auto load = db.LoadCsv("t", "/data/t.csv", schema);   // pays the load
///   auto result = db.Execute("SELECT ...");
class Database : public TableProvider,
                 public StatsProvider,
                 public TableResolver {
 public:
  explicit Database(EngineConfig config);
  ~Database() override;

  // ------------------------------------------------------------------
  // Catalog
  // ------------------------------------------------------------------

  /// Registers a raw file for in-situ querying through the pluggable
  /// adapter API (no data movement). With default options the format is
  /// auto-detected from the file's name and first bytes via the
  /// AdapterRegistry sniffers, and the adapter discovers the schema itself
  /// where the format allows (FITS header, JSONL first record); declare a
  /// schema through `options` where it doesn't (CSV, as in the paper).
  Status Open(const std::string& name, const std::string& path,
              OpenOptions options = {});

  /// Compatibility wrapper over Open: registers a raw CSV file with a
  /// declared schema.
  Status RegisterCsv(const std::string& name, const std::string& path,
                     Schema schema, CsvDialect dialect = CsvDialect{});

  /// Compatibility wrapper over Open: registers a raw FITS binary table;
  /// the schema comes from the header.
  Status RegisterFits(const std::string& name, const std::string& path);

  /// Bulk-loads a CSV into this engine's loaded storage format, paying the
  /// up-front cost the paper's baselines pay. Statistics are gathered
  /// during the load (ANALYZE-equivalent).
  Result<LoadResult> LoadCsv(const std::string& name, const std::string& path,
                             Schema schema, CsvDialect dialect = CsvDialect{});

  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;

  /// Snapshot of every registered table (name order): format, storage, row
  /// count if known, adaptive-structure footprints, and warm-restart
  /// snapshot state.
  std::vector<TableInfo> ListTables() const;

  // ------------------------------------------------------------------
  // Warm-restart snapshots (src/snapshot)
  // ------------------------------------------------------------------

  /// Persists the named raw table's warm state (positional map, cache,
  /// statistics) to its snapshot directory now, regardless of whether the
  /// state moved since the last save. Returns the bytes written. Errors:
  /// NotFound for unknown tables, InvalidArgument for loaded tables or
  /// tables without a snapshot directory, IOError on write failure. Never
  /// blocks running queries beyond the structures' own short export locks.
  Result<uint64_t> Snapshot(const std::string& name);

  /// Persists every eligible raw table whose warm state moved since its
  /// last save (the graceful-shutdown path; the server's Stop calls this
  /// after draining). Per-table failures are counted and the first error
  /// is returned after all tables were attempted.
  Status SnapshotAll();

  /// Aggregate snapshot outcome counters since construction.
  SnapshotCounters snapshot_counters() const;

  // ------------------------------------------------------------------
  // Workload-driven column promotion (src/adaptive)
  // ------------------------------------------------------------------

  /// Runs one promotion cycle over the named raw table now: scores columns
  /// by observed access cost, bulk-loads the hot ones into the promoted
  /// columnar store, demotes cold ones under the byte budget. Requires
  /// config.promotion.enabled; safe to call while queries run (installation
  /// goes through the epoch-protected fragment path). Errors: NotFound for
  /// unknown tables, InvalidArgument for loaded tables or when promotion is
  /// disabled.
  Result<TablePromotionReport> RunPromotionCycle(const std::string& name);

  /// Runs one promotion cycle over every raw table (what the background
  /// promoter does each tick); reports in table-name order.
  std::vector<TablePromotionReport> RunPromotionCycles();

  // ------------------------------------------------------------------
  // Queries
  // ------------------------------------------------------------------

  /// Parses, binds and plans one SELECT statement, returning a streaming
  /// cursor the caller drains batch-by-batch (see QueryCursor). This is the
  /// primary execution API: nothing is materialized by the engine, and
  /// closing the cursor early (LIMIT satisfied, query abandoned) stops the
  /// underlying raw-file scan immediately. The cursor must not outlive this
  /// Database.
  Result<QueryCursor> Query(const std::string& sql) {
    return Query(sql, QueryOptions{});
  }

  /// Query with per-query options (deadline, cancellation handle, batch
  /// size). Engine-level knobs (in-situ options, scan threads, the shared
  /// pool) still come from this Database's EngineConfig.
  Result<QueryCursor> Query(const std::string& sql,
                            const QueryOptions& options);

  /// Convenience wrapper over Query: drains the cursor into a materialized
  /// QueryResult. The result's `seconds` covers the whole round trip (what
  /// a user experiences).
  Result<QueryResult> Execute(const std::string& sql) {
    return Execute(sql, QueryOptions{});
  }

  /// Execute with per-query options — the same options Query honors; a
  /// deadline expiring mid-drain discards the partial result.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryOptions& options);

  /// Plans without executing (EXPLAIN).
  Result<std::string> Explain(const std::string& sql);

  // ------------------------------------------------------------------
  // Introspection / experiment control
  // ------------------------------------------------------------------

  const EngineConfig& config() const { return config_; }

  /// Runtime state of a registered table (positional map, cache, stats).
  TableRuntime* runtime(const std::string& name);

  /// Drops buffer-pool contents of loaded tables (per-query cold-cache
  /// experiments; the OS page cache is out of scope, as in DESIGN.md).
  void DropBufferCaches();

  // --- TableProvider ---
  Result<const Schema*> GetTableSchema(const std::string& name) const override;
  // --- StatsProvider ---
  const TableStats* GetTableStats(const std::string& name) const override;
  double GetRowCount(const std::string& name) const override;
  bool IsColumnPromoted(const std::string& name, int attr) const override;
  // --- TableResolver ---
  Result<TableRuntime*> GetTableRuntime(const std::string& name) override;

 private:
  Status RegisterCommon(const std::string& name,
                        std::unique_ptr<TableRuntime> runtime);
  InSituOptions MakeInSituOptions() const;
  /// Writes one table's snapshot and updates the counters; serialized per
  /// Database through snapshot_mu_ (lock order: catalog_mu_ → snapshot_mu_).
  Result<uint64_t> SnapshotTable(TableRuntime* rt);
  /// Starts the background writer once (no-op unless
  /// config_.snapshot_interval_ms > 0); idempotent.
  void StartSnapshotWriter();
  void StopSnapshotWriter();
  void SnapshotWriterLoop();
  /// Starts the background promoter once (no-op unless
  /// config_.promotion.enabled and interval_ms > 0); idempotent.
  void StartPromoter();
  void StopPromoter();
  void PromoterLoop();
  /// The shared scan worker pool, created lazily when a query may run a
  /// parallel raw scan (grown, never shrunk, to the largest thread count
  /// any table asks for); nullptr while everything is serial.
  ThreadPool* ScanPool();

  EngineConfig config_;
  std::unordered_map<std::string, std::unique_ptr<TableRuntime>> tables_;
  /// Guards catalog *mutation* against the background snapshot writer's
  /// iteration (RegisterCommon / DropTable / SnapshotAll / writer loop).
  /// The query path still reads tables_ unlocked, under the pre-existing
  /// register-before-querying contract.
  mutable std::mutex catalog_mu_;
  /// Serializes snapshot writes and guards snapshot_counters_.
  mutable std::mutex snapshot_mu_;
  SnapshotCounters snapshot_counters_;
  std::thread snapshot_thread_;
  std::mutex snapshot_thread_mu_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;
  std::thread promoter_thread_;
  std::mutex promoter_mu_;
  std::condition_variable promoter_cv_;
  /// Atomic (not a plain cv flag) because it doubles as the cooperative
  /// stop token polled inside a long promotion load.
  std::atomic<bool> promoter_stop_{false};
  std::mutex pool_mu_;
  /// Declared last: destroyed first, so no worker outlives the catalog.
  /// (Cursors must not outlive the Database regardless.)
  std::unique_ptr<ThreadPool> scan_pool_;
};

}  // namespace nodb

#endif  // NODB_ENGINE_DATABASE_H_
