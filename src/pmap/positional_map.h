#ifndef NODB_PMAP_POSITIONAL_MAP_H_
#define NODB_PMAP_POSITIONAL_MAP_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace nodb {

/// A scan's private, lock-free staging buffer for positional information
/// discovered while tokenizing one contiguous run of records: the absolute
/// row-start offset of every record (the spine) plus, per record, the
/// relative start offsets of a fixed attribute set. The decode kernel
/// stages one per morsel — cold byte-range morsels without knowing their
/// global tuple index yet. Either way the fragment is merged
/// into the shared PositionalMap with InstallFragment once the index of its
/// first record is known — that single entry point is where all budget
/// accounting and eviction happen, under the map's internal lock.
class PmapFragment {
 public:
  PmapFragment() = default;

  /// Starts a fresh fragment tracking `attrs` (file-order attribute ids;
  /// may be empty for a spine-only fragment). Storage is recycled.
  void Reset(std::vector<int> attrs) {
    attrs_ = std::move(attrs);
    row_starts_.clear();
    positions_.clear();
  }

  void Reserve(int n) {
    row_starts_.reserve(n);
    positions_.reserve(static_cast<size_t>(n) * attrs_.size());
  }

  /// Appends one record. `positions` holds attrs().size() entries in attrs
  /// order (kUnknown for undiscovered); ignored when no attrs are tracked.
  void AddRecord(uint64_t row_start, const uint32_t* positions) {
    row_starts_.push_back(row_start);
    if (!attrs_.empty()) {
      positions_.insert(positions_.end(), positions,
                        positions + attrs_.size());
    }
  }

  const std::vector<int>& attrs() const { return attrs_; }
  int num_records() const { return static_cast<int>(row_starts_.size()); }
  bool empty() const { return row_starts_.empty(); }
  uint64_t row_start(int i) const { return row_starts_[i]; }
  uint32_t position(int record, int attr_idx) const {
    return positions_[static_cast<size_t>(record) * attrs_.size() + attr_idx];
  }

 private:
  std::vector<int> attrs_;
  std::vector<uint64_t> row_starts_;
  std::vector<uint32_t> positions_;  // row-major [record][attr_idx]
};

/// Adaptive positional map (the paper's §4.2, the core NoDB data structure).
///
/// The map stores, for a single raw file, byte positions of attribute values
/// so that later queries jump (close) to the data instead of re-tokenizing.
/// Physical organization follows the paper:
///
///  * **Horizontal partitioning**: tuples are divided into fixed stripes of
///    `tuples_per_chunk` rows.
///  * **Vertical partitioning**: within a stripe, positions are grouped into
///    chunks holding the *combination* of attributes a query accessed
///    together ("the positional map does not mirror the raw file; it adapts
///    to the workload, keeping in the same chunk attributes accessed
///    together"). Attribute order inside a chunk is insertion order, not
///    file order; a per-attribute membership table (the paper's "higher
///    level plain array") locates an attribute's chunk and column.
///  * **Relative positions**: a per-stripe spine stores each tuple's row
///    start as an absolute 64-bit offset (this doubles as the "minimal map
///    maintaining positional information only for the end of lines" used by
///    the cache-only variant); attribute positions are 32-bit offsets
///    relative to the row start.
///  * **Budget + LRU + spill**: total footprint is capped by
///    `budget_bytes`; least-recently-used chunks are dropped, or serialized
///    to `spill_dir` and transparently reloaded on the next access.
///
/// The map is an auxiliary structure: dropping any part of it only costs
/// future re-tokenization, never correctness.
///
/// **Thread safety**: every method is safe to call concurrently — one table
/// may be scanned by many queries at once, and a parallel scan installs
/// fragments from several threads. All state (chunks, spine, LRU, budget
/// accounting) is guarded by one internal mutex; writers stage positions in
/// private PmapFragments and pay the lock once per fragment, not per tuple.
/// The legacy BeginStripeInsert/InsertPosition/EndStripeInsert path remains
/// for tests and micro-benchmarks; eviction is deferred while any stripe
/// insertion is open, so its cells cannot be freed mid-use.
class PositionalMap {
 public:
  struct Options {
    /// Tuples per horizontal stripe.
    int tuples_per_chunk = 4096;
    /// Storage threshold for positions + spine; UINT64_MAX = unlimited.
    uint64_t budget_bytes = UINT64_MAX;
    /// If non-empty, evicted chunks spill here instead of being dropped.
    std::string spill_dir;
  };

  /// A resolved anchor near a requested attribute: the indexed attribute and
  /// its offset relative to the row start.
  struct Anchor {
    int attr = 0;
    uint32_t rel_offset = 0;
  };

  /// Counters for tests and benchmarks.
  struct Counters {
    uint64_t lookups = 0;
    uint64_t exact_hits = 0;
    uint64_t anchor_hits = 0;
    uint64_t chunks_evicted = 0;
    uint64_t chunks_spilled = 0;
    uint64_t chunks_reloaded = 0;
    uint64_t fragments_installed = 0;
  };

  /// Sentinel for "position unknown" inside a chunk.
  static constexpr uint32_t kUnknown = UINT32_MAX;

  /// Sentinel for "row start unknown" in exported spine vectors.
  static constexpr uint64_t kNoRowStart = UINT64_MAX;

  /// Deep copy of one stripe's positional data, as handed out by
  /// ExportState: the spine (always tuples_per_chunk entries, kNoRowStart
  /// where undiscovered) plus a dense row-major position matrix over the
  /// union of the stripe's indexed attributes (kUnknown where a chunk had
  /// no position; kAbsentFieldPos — a real position value — passes through
  /// untouched). The chunk/group organization is deliberately *not*
  /// exported: a snapshot restores positions through InstallFragment, which
  /// re-derives grouping, budget accounting and epoch bookkeeping the same
  /// way a live scan does.
  struct ExportedStripe {
    uint64_t stripe = 0;
    std::vector<uint64_t> row_starts;
    std::vector<int> attrs;            // ascending
    std::vector<uint32_t> positions;   // [row][attrs index], row-major
  };

  PositionalMap(int num_attrs, Options options);

  PositionalMap(const PositionalMap&) = delete;
  PositionalMap& operator=(const PositionalMap&) = delete;

  // ------------------------------------------------------------------
  // Row starts (spine / end-of-line map)
  // ------------------------------------------------------------------

  /// Records that tuple `tuple` begins at absolute file offset `offset`.
  void SetRowStart(uint64_t tuple, uint64_t offset);

  /// Absolute offset of the tuple's first byte, if known.
  std::optional<uint64_t> RowStart(uint64_t tuple) const;

  /// Number of contiguous tuples from 0 whose row start is known. Once a
  /// full sequential scan completed this equals the table's row count.
  uint64_t contiguous_rows_known() const;

  // ------------------------------------------------------------------
  // Scan epochs
  // ------------------------------------------------------------------

  /// Marks the start of a new insertion epoch (one per scan); returns a
  /// token the scan passes to InstallFragment and hands back to EndEpoch
  /// when it closes. Under budget pressure the map refuses to evict chunks
  /// installed by a *still-active* epoch to make room for more insertions —
  /// otherwise a sequential scan bigger than the budget would evict its own
  /// fresh entries and retain nothing (classic LRU scan thrash), and one
  /// concurrent scan would silently cannibalize another's working set.
  /// Chunks from finished epochs remain evictable, so the map still adapts
  /// across queries.
  uint64_t BeginEpoch();

  /// Ends an epoch: its chunks become ordinary eviction candidates.
  void EndEpoch(uint64_t token);

  /// Number of scans currently holding an epoch open. Observability hook:
  /// a nonzero count with no query running means a leaked epoch (an
  /// abandoned scan that never reached EndEpoch), which pins its chunks
  /// against eviction forever and wedges the budget.
  size_t active_epoch_count() const;

  // ------------------------------------------------------------------
  // Attribute positions
  // ------------------------------------------------------------------

  /// Merges `frag` — whose first record is global tuple `first_tuple` —
  /// into the map: spine entries for every record, and attribute-position
  /// chunks per overlapped stripe. Per stripe, attributes the stripe
  /// already indexes are skipped (a concurrent scan may have landed first)
  /// and the rest are split into cache-sized sub-chunks (kMaxGroupAttrs
  /// each); each new chunk is admitted only if the budget can make room
  /// without evicting an active epoch's chunk (declined chunks cost future
  /// re-tokenization, never correctness). `epoch_token` is the installing
  /// scan's BeginEpoch token (0 = none). `filter_indexed = false` disables
  /// the already-indexed skip — the §4.2 combination policy deliberately
  /// re-indexes a query's full attribute set into one chunk run.
  void InstallFragment(const PmapFragment& frag, uint64_t first_tuple,
                       uint64_t epoch_token, bool filter_indexed = true);

  /// Legacy single-threaded insert path (tests and micro-benchmarks; scans
  /// use InstallFragment). Declares that the caller is about to insert
  /// positions of `attrs` for the stripe containing `tuple`; creates (or
  /// reuses) the chunk for this attribute combination. Returns an opaque
  /// chunk id to pass to InsertPosition, or -1 if `attrs` is empty.
  /// Eviction is deferred until the matching EndStripeInsert.
  int BeginStripeInsert(uint64_t stripe, const std::vector<int>& attrs);

  /// Stores the position of `attr` for `tuple` into the chunk returned by
  /// BeginStripeInsert. `rel_offset` is relative to the tuple's row start.
  void InsertPosition(int chunk_id, uint64_t tuple, int attr,
                      uint32_t rel_offset);

  /// Finishes a stripe insertion: applies budget enforcement.
  void EndStripeInsert();

  /// Maximum attributes stored together in one sub-chunk (4 x 4096 x 4 B =
  /// 64 KiB, comfortably cache-resident per the paper's storage format).
  static constexpr int kMaxGroupAttrs = 4;

  /// Exact position of (tuple, attr) relative to its row start, if indexed.
  std::optional<uint32_t> Lookup(uint64_t tuple, int attr);

  /// Nearest indexed attribute at or below `attr` for this tuple
  /// (for forward incremental tokenizing). Includes `attr` itself.
  std::optional<Anchor> AnchorAtOrBelow(uint64_t tuple, int attr);

  /// Nearest indexed attribute strictly above `attr` for this tuple
  /// (for backward incremental tokenizing).
  std::optional<Anchor> AnchorAbove(uint64_t tuple, int attr);

  /// True if every tuple of `stripe` currently has an in-memory (or
  /// spilled) position for `attr`.
  bool StripeHasAttr(uint64_t stripe, int attr);

  /// Copies the known positions of `attr` for `n` tuples of `stripe` into
  /// `out[0..n)`; cells without a position are set to kUnknown. Returns the
  /// number of known positions copied. This is the bulk accessor behind the
  /// temporary map: one chunk fetch serves a whole stripe.
  int FillStripePositions(uint64_t stripe, int attr, uint32_t* out, int n);

  /// Attributes that have (possibly partial) positional data for `stripe`,
  /// ascending. Used to pick incremental-tokenizing anchors.
  std::vector<int> IndexedAttrsForStripe(uint64_t stripe);

  /// True if a single chunk of `stripe` covers every attribute in `attrs`.
  /// Drives the paper's combination policy: "if all requested attributes for
  /// a query belong in different chunks, then the new combination is
  /// indexed" (§4.2, Adaptive Behavior).
  bool StripeAttrsShareChunk(uint64_t stripe, const std::vector<int>& attrs);

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  int num_attrs() const { return num_attrs_; }
  int tuples_per_chunk() const { return options_.tuples_per_chunk; }
  uint64_t stripe_of(uint64_t tuple) const {
    return tuple / options_.tuples_per_chunk;
  }
  /// Current in-memory footprint in bytes (chunks + spine).
  uint64_t memory_bytes() const;
  /// Number of attribute positions currently resident in memory.
  uint64_t num_positions() const;
  /// Snapshot of the counters (copy: the map may be mutated concurrently).
  Counters counters() const;
  const Options& options() const { return options_; }

  /// Consistent deep copy of everything worth persisting (spine and
  /// attribute positions), taken under the internal lock in one critical
  /// section so no stripe mixes states from different moments. Spilled
  /// chunks are skipped (reloading them here would thrash the budget; their
  /// positions merely cost re-tokenization later). Stripes are ordered by
  /// stripe index.
  std::vector<ExportedStripe> ExportState() const;

  /// Drops the entire map (it is auxiliary; next query rebuilds it).
  void Clear();

 private:
  /// A vertical chunk: positions of one attribute combination over one
  /// stripe, stored row-major [tuple_in_stripe][attr_idx_in_group].
  struct Chunk {
    int group_id = 0;
    uint64_t epoch = 0;          // installing epoch token (see BeginEpoch)
    std::vector<uint32_t> data;  // tuples_per_chunk * group_size entries
    bool spilled = false;        // true if currently only on disk
    std::list<std::pair<uint64_t, int>>::iterator lru_pos;  // key in lru_
    uint64_t bytes() const { return data.size() * sizeof(uint32_t); }
  };

  /// Attribute combination registry entry (never evicted; tiny).
  struct Group {
    std::vector<int> attrs;  // insertion order
  };

  struct Stripe {
    /// group_id -> chunk for this stripe.
    std::unordered_map<int, std::unique_ptr<Chunk>> chunks;
    /// Absolute row starts for tuples in this stripe; may be shorter than
    /// tuples_per_chunk while being discovered.
    std::vector<uint64_t> row_starts;
    uint64_t spine_bytes() const {
      return row_starts.capacity() * sizeof(uint64_t);
    }
  };

  // All private helpers assume mu_ is held by the caller.
  Stripe& GetStripe(uint64_t stripe);
  void SetRowStartLocked(uint64_t tuple, uint64_t offset);
  /// Group id for exactly this ordered attr set, creating it if new.
  int InternGroup(const std::vector<int>& attrs);
  /// True if a new chunk of `bytes` can be admitted without evicting a
  /// chunk belonging to a still-active epoch.
  bool CanAdmit(uint64_t bytes);
  /// Creates or reuses the chunk for (stripe, interned attrs); touches LRU.
  Chunk* GetOrCreateChunk(uint64_t stripe, const std::vector<int>& attrs,
                          int* gid_out);
  bool EpochActive(uint64_t token) const;
  /// Index of `attr` within group `gid`, or -1.
  int ColumnInGroup(int gid, int attr) const;
  /// Returns the chunk for (stripe, gid), reloading it from spill if needed;
  /// nullptr if absent. Touches LRU.
  Chunk* FetchChunk(uint64_t stripe, int gid);
  void TouchLru(uint64_t stripe, Chunk* chunk);
  void EnforceBudget();
  void EvictOne();
  std::string SpillPath(uint64_t stripe, int gid) const;
  Status SpillChunk(uint64_t stripe, Chunk* chunk);
  Status ReloadChunk(uint64_t stripe, Chunk* chunk);

  const int num_attrs_;
  const Options options_;

  mutable std::mutex mu_;

  std::vector<Group> groups_;
  /// Key: sorted attr list serialized -> group id (to reuse combinations).
  std::unordered_map<std::string, int> group_index_;
  /// attr -> list of (group_id, column index) containing it.
  std::vector<std::vector<std::pair<int, int>>> attr_membership_;

  std::unordered_map<uint64_t, Stripe> stripes_;
  /// LRU of (stripe, group_id), most-recent at front.
  std::list<std::pair<uint64_t, int>> lru_;

  uint64_t memory_bytes_ = 0;
  uint64_t num_positions_ = 0;
  uint64_t next_epoch_ = 0;
  std::vector<uint64_t> active_epochs_;
  uint64_t contiguous_rows_known_ = 0;
  int open_insert_chunks_ = 0;
  Counters counters_;
};

}  // namespace nodb

#endif  // NODB_PMAP_POSITIONAL_MAP_H_
