#ifndef NODB_CACHE_COLUMN_CACHE_H_
#define NODB_CACHE_COLUMN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "types/data_type.h"
#include "types/value.h"

namespace nodb {

/// Adaptive binary-value cache (the paper's §4.3). Holds already-converted
/// attribute values per (attribute, tuple-stripe) so future queries skip both
/// the raw-file access and the text-to-binary conversion. Populated on the
/// fly during scans — only with attributes the current query actually parsed
/// ("caching does not force additional data to be parsed").
///
/// Eviction is LRU *within* a conversion-cost class, and cheap-to-convert
/// classes are evicted first: "the PostgresRaw cache always gives priority to
/// attributes more costly to convert" (ASCII numerics cost more to re-create
/// than strings, and are also smaller in binary form).
///
/// Thread-safe: one table may be scanned by many queries at once. Entries
/// are handed out as shared_ptr snapshots, so a reader keeps its column
/// alive even if a concurrent Put/eviction drops it from the cache;
/// population stays race-free because each chunk is written by exactly one
/// thread (the merge step of the scan that parsed it; see README
/// "Threading model").
class ColumnCache {
 public:
  struct Options {
    uint64_t budget_bytes = UINT64_MAX;
  };

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    /// Chunks dropped by ReleaseAttr (column promotion superseding the
    /// cached copies — distinct from budget-pressure evictions).
    uint64_t released = 0;
  };

  /// One cached column chunk, shared with readers.
  using Column = std::shared_ptr<const std::vector<Value>>;

  /// `types[attr]` drives the eviction priority of each attribute.
  ColumnCache(std::vector<TypeId> types, Options options);

  ColumnCache(const ColumnCache&) = delete;
  ColumnCache& operator=(const ColumnCache&) = delete;

  /// Cached values of `attr` for `stripe` (one Value per tuple in the
  /// stripe), or nullptr. The snapshot stays valid regardless of concurrent
  /// Put/Clear/eviction.
  Column Get(uint64_t stripe, int attr);

  /// True without touching recency (used when planning stripe access).
  bool Contains(uint64_t stripe, int attr) const;

  /// Inserts (or replaces) the cached values for (stripe, attr).
  void Put(uint64_t stripe, int attr, std::vector<Value> values);

  /// Drops every cached chunk of `attr`, whatever its stripe — called when
  /// the column is promoted to the columnar store, which fully supersedes
  /// the cached copies (keeping both would charge the shared byte budget
  /// twice for the same values). Returns the bytes freed; counted under
  /// Counters::released, not evictions.
  uint64_t ReleaseAttr(int attr);

  /// Reserves `bytes` of this cache's budget for an external co-tenant (the
  /// promoted column store, which shares the budget): eviction enforces
  /// `memory_bytes + reserved <= budget`. Raising the reservation evicts
  /// immediately; UINT64_MAX-budget caches ignore it.
  void SetReservedBytes(uint64_t bytes);
  uint64_t reserved_bytes() const;

  uint64_t memory_bytes() const;
  uint64_t budget_bytes() const { return options_.budget_bytes; }
  /// Fraction of the budget in use, in [0, 1] (1 if budget is unlimited
  /// and anything is cached).
  double utilization() const;
  /// Snapshot of the counters (copy: the cache may be mutated concurrently).
  Counters counters() const;

  /// Bytes a chunk of `values` occupies under this cache's accounting
  /// (public so the promoted column store charges the shared budget with
  /// the same formula).
  static uint64_t BytesOf(const std::vector<Value>& values, TypeId type);

  /// One cached chunk as handed out by ExportState. `values` is a shared
  /// snapshot (no copy): it stays valid even if a concurrent eviction drops
  /// the entry from the cache.
  struct ExportedChunk {
    uint64_t stripe = 0;
    int attr = 0;
    Column values;
  };

  /// Consistent view of every resident chunk, ordered by (stripe, attr),
  /// taken under the internal lock in one critical section. Cheap: only
  /// shared_ptrs are copied. Does not touch recency.
  std::vector<ExportedChunk> ExportState() const;

  void Clear();

 private:
  struct Entry;
  /// Cache key: stripe in the high bits, attribute in the low bits.
  static uint64_t KeyOf(uint64_t stripe, int attr) {
    return (stripe << 16) | static_cast<uint64_t>(attr);
  }

  struct Entry {
    Column values;
    uint64_t bytes = 0;
    int cost_class = 0;
    std::list<uint64_t>::iterator lru_pos;
  };

  void EnforceBudget();  // mu_ held
  /// Budget available to cached chunks after the external reservation.
  uint64_t EffectiveBudget() const;  // mu_ held

  std::vector<TypeId> types_;
  Options options_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  /// One LRU list per conversion-cost class; eviction drains the lowest
  /// non-empty class first, from its least-recently-used tail.
  std::vector<std::list<uint64_t>> lru_by_class_;
  uint64_t memory_bytes_ = 0;
  uint64_t reserved_bytes_ = 0;
  Counters counters_;
};

}  // namespace nodb

#endif  // NODB_CACHE_COLUMN_CACHE_H_
