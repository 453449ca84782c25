#ifndef NODB_ADAPTIVE_COLUMN_ACCESS_H_
#define NODB_ADAPTIVE_COLUMN_ACCESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace nodb {

/// Per-column access counters accumulated by the raw scans (serial and
/// parallel). These are the observed-workload signals the promotion policy
/// scores columns with (ROADMAP "workload-driven auto-promotion"; the
/// resource-counter-driven direction of Patel/Bhise): how often a column is
/// requested, and how much raw-text conversion work the engine keeps paying
/// for it versus how often the warm representations (cache, promoted
/// columnar form) already absorb the cost.
struct ColumnAccessCounters {
  /// Scans that requested this column as an output attribute.
  uint64_t scans = 0;
  /// Values converted from raw text (the expensive tokenize+parse path).
  uint64_t rows_parsed = 0;
  /// Raw text bytes behind those conversions.
  uint64_t bytes_parsed = 0;
  /// Values served from the column cache instead of the file.
  uint64_t rows_from_cache = 0;
  /// Values served from the promoted columnar form.
  uint64_t rows_from_promoted = 0;

  /// Scalar "cost paid so far to serve this column from raw text": text
  /// bytes plus a fixed per-value conversion charge. The policy promotes
  /// columns whose un-absorbed parse work keeps growing.
  uint64_t ParseWork() const { return bytes_parsed + 16 * rows_parsed; }
};

/// Thread-safe per-column access accounting for one raw table. Scans
/// accumulate counts per morsel (MorselResult::access) and their merge step
/// flushes them here in one call per column, so the hot loops never touch
/// shared state per tuple. Counters are relaxed atomics: readers (the
/// promotion policy, STATS, snapshots) only need eventually-consistent
/// totals, never cross-counter invariants.
class ColumnAccessTracker {
 public:
  explicit ColumnAccessTracker(int num_attrs);

  ColumnAccessTracker(const ColumnAccessTracker&) = delete;
  ColumnAccessTracker& operator=(const ColumnAccessTracker&) = delete;

  int num_attrs() const { return num_attrs_; }

  /// One scan requested these output attributes.
  void RecordScan(const std::vector<int>& attrs);
  /// `rows` values of `attr` were converted from `bytes` raw text bytes.
  void RecordParsed(int attr, uint64_t rows, uint64_t bytes);
  void RecordCacheServed(int attr, uint64_t rows);
  void RecordPromotedServed(int attr, uint64_t rows);

  ColumnAccessCounters Snapshot(int attr) const;
  std::vector<ColumnAccessCounters> SnapshotAll() const;

  /// Adds restored counts onto the live counters (snapshot load at Open,
  /// when the tracker is still zero).
  void InstallSnapshot(int attr, const ColumnAccessCounters& c);

  /// Order-independent digest of all counters, mixed into the snapshot
  /// writer's warm-state signature so counter movement triggers re-saves.
  uint64_t Signature() const;

 private:
  /// One cacheline per column so concurrent parallel-scan merges and the
  /// background promoter never false-share.
  struct alignas(64) Cell {
    std::atomic<uint64_t> scans{0};
    std::atomic<uint64_t> rows_parsed{0};
    std::atomic<uint64_t> bytes_parsed{0};
    std::atomic<uint64_t> rows_from_cache{0};
    std::atomic<uint64_t> rows_from_promoted{0};
  };

  const int num_attrs_;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace nodb

#endif  // NODB_ADAPTIVE_COLUMN_ACCESS_H_
