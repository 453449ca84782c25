#ifndef NODB_STATS_TABLE_STATS_H_
#define NODB_STATS_TABLE_STATS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "stats/attr_stats.h"
#include "types/schema.h"

namespace nodb {

/// Per-table statistics store, grown adaptively: a scan registers values for
/// the attributes it actually parsed, so coverage widens as the workload
/// touches more of the file (§4.4: "as queries request more attributes of a
/// raw file, statistics are incrementally augmented").
///
/// Thread-safe: concurrent scans may feed values while another query's
/// planner reads estimates. Snapshots are immutable and handed out as
/// shared_ptr, so a planner's estimate survives a concurrent re-finalize.
class TableStats {
 public:
  using AttrStatsPtr = std::shared_ptr<const AttrStats>;

  explicit TableStats(const Schema& schema);

  /// True if statistics exist for `attr`.
  bool HasAttr(int attr) const;

  /// Snapshot of the statistics for `attr`; nullptr when never collected.
  AttrStatsPtr Attr(int attr) const;

  /// Accumulates one value for `attr` (called by scans when stats collection
  /// is enabled). Sampling is handled internally; callers may feed every
  /// parsed value.
  void AddValue(int attr, const Value& v);

  /// Accumulates `n` values for `attr`, paying the lock once — the merge
  /// path of parallel scans, which replay each morsel's parsed values in
  /// file order so the resulting statistics match a serial scan's.
  void AddValues(int attr, const Value* values, size_t n);

  /// Folds pending data for `attr` into the queryable snapshot.
  void Finalize(int attr);
  /// Finalizes every attribute that has pending data.
  void FinalizeAll();

  /// Finalized statistics per attribute, ordered by attribute index;
  /// attributes never collected are absent. One consistent locked pass —
  /// the persistence export (snapshots serialize finalized snapshots only;
  /// in-flight builder state is not worth freezing).
  std::vector<std::pair<int, AttrStatsPtr>> ExportBuilt() const;

  /// Installs a previously exported snapshot for `attr` (warm restart).
  /// Later scans still accumulate into the builder; Finalize overwrites the
  /// installed snapshot only once fresh data exists, so a restored estimate
  /// survives until the live workload re-earns a better one.
  void InstallSnapshot(int attr, AttrStats stats);

  int num_attrs() const { return static_cast<int>(builders_.size()); }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<AttrStatsBuilder>> builders_;
  std::vector<AttrStatsPtr> built_;
};

}  // namespace nodb

#endif  // NODB_STATS_TABLE_STATS_H_
