#ifndef NODB_ADAPTIVE_PROMOTED_COLUMNS_H_
#define NODB_ADAPTIVE_PROMOTED_COLUMNS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "types/value.h"

namespace nodb {

/// The promoted (hot) columnar representation of a raw table: per column, a
/// complete run of stripe-aligned value chunks covering every row of the
/// file — the in-memory CompactTable-style column the background promoter
/// builds from the raw source once the workload proves a column hot.
///
/// Unlike the ColumnCache (which holds whatever stripes past scans happened
/// to parse, and evicts under pressure), a promoted column is all-or-nothing
/// and covers the whole table, so a scan serving from it reads zero raw-file
/// bytes — including the stripe spine: the scan needs no seek because every
/// stripe of every output column is resident.
///
/// Thread safety: readers take one mutex-guarded shared_ptr copy per
/// (stripe, column) — once per 4096 rows, not per tuple — and the chunk they
/// hold stays valid if the column is concurrently demoted (same snapshot
/// discipline as ColumnCache). Installation and demotion happen on the
/// promoter thread; a promotion or demotion racing a live scan changes only
/// *where* values are read from, never what they are, because the promoter
/// loads through the exact adapter parse semantics the scan uses.
class PromotedColumns {
 public:
  using Chunk = std::shared_ptr<const std::vector<Value>>;

  struct Counters {
    uint64_t promotions = 0;
    uint64_t demotions = 0;
  };

  /// Per-column state exposed to the promotion policy and STATS.
  struct ColumnInfo {
    bool promoted = false;
    uint64_t bytes = 0;  // resident bytes of the promoted column
    /// Tracker parse-work total consumed at the last promotion decision;
    /// the policy only acts on work accrued since.
    uint64_t work_mark = 0;
    /// Tracker rows_from_promoted total at the last cycle; a promoted
    /// column nobody read since is a demotion victim under pressure.
    uint64_t served_mark = 0;
  };

  explicit PromotedColumns(int num_attrs);

  PromotedColumns(const PromotedColumns&) = delete;
  PromotedColumns& operator=(const PromotedColumns&) = delete;

  int num_attrs() const { return num_attrs_; }

  /// Lock-free fast path for scans and the planner: is the column resident?
  bool IsPromoted(int attr) const {
    return flags_[attr].load(std::memory_order_acquire);
  }

  /// Chunk of `attr` covering stripe `stripe` (TableRuntime's
  /// tuples_per_chunk values, short for the last stripe), or nullptr when
  /// the column is not promoted.
  Chunk ChunkFor(uint64_t stripe, int attr) const;

  /// Resident bytes of every promoted column; 0 when nothing is promoted.
  uint64_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  std::vector<int> promoted_attrs() const;
  std::vector<ColumnInfo> InfoSnapshot() const;
  Counters counters() const;

  /// Installs a freshly loaded column: `chunks` must cover every row of the
  /// table (TableRuntime::row_count) in stripe order. Replaces any previous
  /// residency for `attr`.
  void Install(int attr, std::vector<Chunk> chunks, uint64_t bytes);

  /// Drops a promoted column; returns the bytes freed (0 if not promoted).
  /// Readers holding chunk snapshots keep serving them.
  uint64_t Demote(int attr);

  /// Policy bookkeeping, written by the promoter after each cycle.
  void SetMarks(int attr, uint64_t work_mark, uint64_t served_mark);

 private:
  const int num_attrs_;

  mutable std::mutex mu_;
  std::vector<std::vector<Chunk>> chunks_;  // [attr][stripe], guarded by mu_
  std::vector<ColumnInfo> info_;            // guarded by mu_
  Counters counters_;                       // guarded by mu_

  std::unique_ptr<std::atomic<bool>[]> flags_;
  std::atomic<uint64_t> memory_bytes_{0};
};

}  // namespace nodb

#endif  // NODB_ADAPTIVE_PROMOTED_COLUMNS_H_
