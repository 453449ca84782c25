#ifndef NODB_EXEC_TABLE_RUNTIME_H_
#define NODB_EXEC_TABLE_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "adaptive/column_access.h"
#include "adaptive/promoted_columns.h"
#include "cache/column_cache.h"
#include "pmap/positional_map.h"
#include "raw/raw_source.h"
#include "stats/table_stats.h"
#include "storage/compact_table.h"
#include "storage/table_heap.h"

namespace nodb {

/// How a registered table is physically stored.
enum class TableStorage : uint8_t {
  kRaw,      // in situ over a raw file, through a RawSourceAdapter
  kHeap,     // loaded into slotted pages (PostgreSQL / MySQL analogues)
  kCompact,  // loaded into packed rows ("DBMS X" analogue)
};

/// Outcome of the snapshot-load attempt made when a raw table is opened
/// with a snapshot directory configured (src/snapshot). Reported per table
/// by Database::ListTables and the server's STATS verb.
enum class SnapshotState : uint8_t {
  kNone,     // no snapshot directory, or no snapshot file found
  kLoaded,   // a valid snapshot restored warm state at open
  kStale,    // snapshot found but its source fingerprint no longer matches
  kCorrupt,  // snapshot found but failed checksum/format validation
};

std::string_view SnapshotStateName(SnapshotState state);

/// Everything the executor needs to scan one table, owned by the engine's
/// catalog. A raw table is an adapter (the only format-specific piece) plus
/// the format-independent adaptive structures — positional map, cache,
/// statistics — that persist *across* queries; they are what turns the
/// straw-man in-situ scan into PostgresRaw, for any format that plugs in.
struct TableRuntime {
  std::string name;
  Schema schema;
  TableStorage storage = TableStorage::kRaw;

  // --- raw (in-situ) ---
  std::unique_ptr<RawSourceAdapter> adapter;  // file kept open across queries
  std::unique_ptr<PositionalMap> pmap;        // null when disabled
  std::unique_ptr<ColumnCache> cache;         // null when disabled

  // --- loaded ---
  std::unique_ptr<TableHeap> heap;
  std::unique_ptr<CompactTable> compact;

  // --- workload-driven auto-promotion (raw tables; src/adaptive) ---
  /// Per-column access accounting fed by the scans; always present for raw
  /// tables (cheap relaxed atomics) so STATS and snapshots can report it
  /// even when promotion itself is disabled.
  std::unique_ptr<ColumnAccessTracker> access;
  /// Promoted hot-column store; null unless EngineConfig::promotion.enabled.
  std::unique_ptr<PromotedColumns> promoted;

  // --- adaptive statistics (raw tables; loaded tables get exact stats at
  //     load time) ---
  std::unique_ptr<TableStats> stats;
  /// Atomic: set by whichever scan first completes while other queries'
  /// planners read it (one table may be queried from many threads).
  std::atomic<bool> stats_populated{false};

  /// Rows per stripe: the one stripe size the positional map is built with
  /// and the scan, cache, promoted tier and snapshots address chunks by.
  /// Set once at Open from EngineConfig::tuples_per_chunk.
  int tuples_per_chunk = 0;

  /// The table's one row count: -1 while unknown, else exact (0 is a real
  /// count). Written by whatever learns it — a raw scan reaching EOF, a
  /// promotion sweep, a snapshot load, the adapter's header at Open, or
  /// LoadCsv — and read by the catalog, the planner, snapshots and the
  /// scans that pin their population to it. Atomic for the same reason as
  /// stats_populated.
  std::atomic<int64_t> row_count{-1};

  /// Per-table override of EngineConfig::scan_threads (Database::Open
  /// options); 0 means "use the engine default".
  int scan_threads_override = 0;

  // --- warm-restart snapshots (raw tables; src/snapshot) ---
  /// Directory snapshots of this table load from / save to; empty when the
  /// feature is off for this table. Set once at Open.
  std::string snapshot_dir;
  /// Outcome of the load attempt at Open (atomics: ListTables and STATS may
  /// read while the background writer saves).
  std::atomic<SnapshotState> snapshot_state{SnapshotState::kNone};
  /// On-disk size of the snapshot last loaded or written, in bytes.
  std::atomic<uint64_t> snapshot_bytes{0};
  /// Warm-state signature at the last successful save; the background
  /// writer skips tables whose signature hasn't moved.
  std::atomic<uint64_t> snapshot_signature{0};
};

}  // namespace nodb

#endif  // NODB_EXEC_TABLE_RUNTIME_H_
