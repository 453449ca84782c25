#ifndef NODB_EXEC_RAW_SCAN_H_
#define NODB_EXEC_RAW_SCAN_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/exec_control.h"
#include "exec/operator.h"
#include "exec/table_runtime.h"
#include "plan/logical_plan.h"
#include "raw/raw_source.h"

namespace nodb {

class ThreadPool;

/// Feature toggles for the raw scan; each maps to one of the paper's
/// techniques so benchmarks can isolate its effect.
struct InSituOptions {
  /// §4.2 — consult/populate attribute positions in the positional map.
  /// (Row-start "spine" collection is governed by the table having a
  /// PositionalMap at all; the cache-only variant keeps the spine as the
  /// paper's "minimal map for end of lines".)
  bool use_positional_map = true;
  /// §4.3 — consult/populate the binary value cache.
  bool use_cache = true;
  /// §4.4 — feed adaptive statistics while scanning.
  bool collect_stats = true;
  /// §4.1 — stop tokenizing a tuple at the last attribute the query needs.
  bool selective_tokenizing = true;
  /// §4.1 — two-phase conversion: WHERE attributes for every tuple, other
  /// attributes only for qualifying tuples.
  bool selective_parsing = true;
  /// §4.1 — output tuples carry only needed attributes; when false, every
  /// attribute is parsed and materialized (external-files behaviour).
  bool selective_tuple_formation = true;
  /// §4.2 Adaptive Behavior — re-index the full attribute combination when
  /// a query's attributes are scattered across chunks. Off by default (see
  /// EngineConfig::index_combinations).
  bool index_combinations = false;
  /// §4.2 Map Population — record positions of every attribute crossed
  /// while tokenizing, not only the requested ones ("if a query requires
  /// attributes in positions 10 and 15, all positions from 1 to 15 may be
  /// kept"). This is what makes the second query dramatically faster.
  bool index_intermediates = true;
};

/// The §4.1 attribute decomposition of one scan: which attributes are
/// tokenized, parsed early, parsed late, or materialized.
struct ScanAttrPlan {
  std::vector<int> output_attrs;  // materialized into the output row
  std::vector<int> phase1_attrs;  // parsed for every tuple (WHERE)
  std::vector<int> phase2_attrs;  // parsed for qualifying tuples
  int max_token_attr = 0;         // last attribute tokenizing must reach
};

ScanAttrPlan ComputeScanAttrPlan(const PlannedScan& scan, int ncols,
                                 const InSituOptions& opts);

/// One unit of decode work: a byte range of record starts whose first
/// global tuple index is unknown (cold parallel scans), or a tuple range
/// inside one stripe (`by_index`; serial scans, warm parallel scans and
/// fixed-stride sources).
struct Morsel {
  uint64_t begin = 0;  // byte offset, or first tuple
  uint64_t end = 0;    // one past the last byte offset / tuple
  bool by_index = false;
  /// by_index: the table's row count when known up front, 0 when not. Warm
  /// columns serve a stripe only when it pins the stripe's population.
  uint64_t table_rows = 0;
};

/// Everything DecodeMorsel learned from one morsel. The merge step
/// (RawScanOp, or a ForEachRawStripe sink) publishes it once the global
/// index of the morsel's first record is known.
struct MorselResult {
  Status status;
  bool ready = false;      // parallel hand-off flag (guarded by the scan)
  bool eof = false;        // the source ran out inside this morsel
  bool from_file = false;  // records came from the file, not warm columns
  uint64_t records = 0;    // records consumed, qualifying or not
  /// Qualifying output rows, file order. A recycler: num_rows marks the
  /// live prefix and slots keep their storage across morsels.
  std::vector<Row> rows;
  size_t num_rows = 0;
  /// Staged spine + discovered positions; `filter_indexed` is false when
  /// the §4.2 combination policy re-indexes attributes the stripe has.
  PmapFragment frag;
  bool filter_indexed = true;
  /// Per attribute: cache_vals holds parsed values for records
  /// [0, size()) — phase-2 columns stop at the first non-qualifying
  /// record, so a short buffer marks a stripe that cannot be cached.
  /// stats_vals holds the statistics values the cache buffer does not
  /// already carry (stats replay cache_vals first, then stats_vals).
  std::vector<uint8_t> cache_attr;
  std::vector<uint8_t> stats_attr;
  std::vector<std::vector<Value>> cache_vals;
  std::vector<std::vector<Value>> stats_vals;
  /// Conversions performed and rows served from warm columns.
  std::vector<ColumnAccessCounters> access;

  /// Next recycled output row, `width` wide; claim it with ++num_rows.
  Row& NextRow(int width) {
    if (num_rows == rows.size()) rows.emplace_back();
    Row& row = rows[num_rows];
    if (row.size() != static_cast<size_t>(width)) row.assign(width, Value());
    return row;
  }
};

/// What the decode kernel reads besides the records, fixed per scan. The
/// structures are optional (null = absent); the kernel only reads them —
/// anchors, warm columns, what is already indexed or cached — and stages
/// what it learns in the MorselResult.
struct DecodeContext {
  const RawSourceAdapter* adapter = nullptr;
  const PlannedScan* scan = nullptr;  // conjuncts and the table's offset
  ScanAttrPlan attrs;
  InSituOptions opts;
  int width = 0;  // output row width
  int tuples_per_stripe = 0;
  PositionalMap* pm = nullptr;  // spine; positions if opts.use_positional_map
  ColumnCache* cache = nullptr;
  PromotedColumns* promo = nullptr;
  TableStats* stats = nullptr;
  const std::atomic<bool>* cancel = nullptr;  // polled every 128 records
};

/// Per-thread decode state: a lazily opened cursor and where it stands.
struct MorselDecoder {
  static constexpr uint64_t kUnknownTuple = UINT64_MAX;
  std::unique_ptr<RecordCursor> cursor;
  uint64_t next_tuple = kUnknownTuple;  // tuple the cursor returns next
  std::vector<int> temp_attrs;          // attrs tracked per tuple, sorted
  std::vector<int> slot_of;             // attr -> slot in temp_attrs, -1
  std::vector<uint32_t> tuple_pos;      // per-tuple positions per slot
  std::vector<uint32_t> frag_pos;       // per-tuple scratch, frag order
};

/// The one per-record decode loop of the NoDB access method (§4.1–4.3):
/// selective tokenizing (dense batch tokenizing on cold stripes, anchored
/// forward/backward walks on warm ones), two-phase parsing, positional-map
/// anchors through the temporary map, and warm columns served from the
/// promoted store or the cache — a stripe whose output columns are all
/// warm is answered without touching the file. Decodes `morsel` into
/// `out`, returning the first error (also left in out->status).
Status DecodeMorsel(const DecodeContext& ctx, const Morsel& morsel,
                    MorselDecoder* dec, MorselResult* out);

/// Sweeps every record of `adapter` through DecodeMorsel, one stripe of
/// `tuples_per_stripe` records at a time, decoding `attrs` (ascending)
/// with no filter and no adaptive structures — exactly the raw scan's
/// values, NULL rules and errors, which is why the bulk loaders and the
/// column promoter use it. `fn` receives each non-empty stripe with its
/// first tuple index: rows carry the attributes at their column index
/// and, when `spine` is set, frag carries the row starts. `stop`
/// (optional) cancels the sweep with a Cancelled status. Returns the
/// number of records swept.
Result<uint64_t> ForEachRawStripe(
    const RawSourceAdapter& adapter, const std::vector<int>& attrs,
    int tuples_per_stripe, PositionalMap* spine,
    const std::function<Status(uint64_t first_tuple, MorselResult&)>& fn,
    const std::atomic<bool>* stop = nullptr);

/// The NoDB access method (§4) over *any* registered RawSourceAdapter,
/// serial or morsel-parallel. The raw file is cut into morsels that
/// DecodeMorsel turns into rows plus staged positional-map fragments,
/// cache values, statistics values and access counts; one merge step
/// publishes them in file order, so the next query runs faster. The
/// adapter contributes only record iteration and field tokenize/parse
/// hooks, which is how CSV, FITS and JSON Lines share one scan operator.
///
/// With one thread (or when the file cannot be split) the consumer
/// decodes stripe-sized morsels inline. With more, pool workers decode
/// morsels concurrently and a reorder window of `num_threads` morsels
/// re-emits them in file order — the same rows in the same order as the
/// serial scan:
///
///  * cold scans split the file into byte ranges snapped to record starts
///    (the adapter's FindRecordBoundary); the merge re-bases each
///    fragment to global tuple indices and stitches cache values into
///    stripe-aligned chunks (only the merge thread Puts);
///  * once the positional map's spine covers the table (or the source is
///    fixed-stride), morsels are stripe-aligned tuple ranges, so parallel
///    warm scans use positional anchors and warm columns like serial ones.
///
/// Workers exit rather than block when the window is full; the consumer
/// resubmits them as it merges, so any number of scans can share one pool.
/// Close() (or the destructor) cancels outstanding morsels and joins the
/// workers, bounding reads after an early Close by the window. `control`
/// is polled once per morsel: a cancelled or deadline-expired query stops
/// with a typed error, and the destructor releases the scan epoch.
class RawScanOp final : public Operator {
 public:
  /// `runtime` (with a non-null adapter), `scan` and `pool` must outlive
  /// the operator. Output rows are `working_width` wide with this table's
  /// columns at scan->table.offset. `morsel_bytes` 0 means auto-size.
  RawScanOp(TableRuntime* runtime, const PlannedScan* scan, int working_width,
            InSituOptions options, ExecControlPtr control = nullptr,
            int num_threads = 1, uint64_t morsel_bytes = 0,
            ThreadPool* pool = nullptr);

  /// Joins the workers and ends the scan epoch if Close never ran
  /// (pipelines are abandoned without the Close protocol on error paths; a
  /// leaked epoch would keep its chunks eviction-protected forever).
  ~RawScanOp() override;

  Status Open() override;
  Result<size_t> Next(RowBatch* batch) override;
  Status Close() override;

  /// Stripe size of the loader's sweep, which runs without a table
  /// runtime (tables scan with TableRuntime::tuples_per_chunk).
  static constexpr int kDefaultStripe = 4096;

 private:
  /// A stripe's cache values being assembled from consecutive morsels.
  struct PendingStripe {
    uint64_t stripe = 0;
    int filled = 0;
    std::vector<std::vector<Value>> vals;  // [attr]
  };

  /// TableRuntime::row_count when it bounds this scan, 0 ("read to EOF")
  /// otherwise or while the count is unknown.
  uint64_t KnownTotalTuples() const;
  Status PlanMorsels(uint64_t total);
  /// Decodes (serial) or awaits (parallel) the next morsel, merges it and
  /// exposes its rows.
  Status NextMorsel();
  /// Tops the pool up with worker tasks, enough to cover the morsels the
  /// reorder window currently exposes (mu_ held).
  void SubmitWorkersLocked();
  void WorkerLoop();
  /// Publishes a decoded morsel into pmap, tracker, stats and cache.
  void MergeResult(MorselResult* result);
  void FlushPendingStripe(bool final_flush);
  void FinalizeEof();
  void CancelAndJoin();

  TableRuntime* runtime_;
  const PlannedScan* scan_;
  const int working_width_;
  const InSituOptions opts_;
  ExecControlPtr control_;
  const int num_threads_;
  const uint64_t morsel_bytes_option_;
  ThreadPool* pool_;
  uint64_t epoch_token_ = 0;  // BeginEpoch token, returned in Close

  DecodeContext ctx_;
  MorselDecoder decoder_;  // the consumer's own (inline decoding)
  std::vector<Morsel> morsels_;  // empty: decode stripes inline
  int window_ = 1;

  // --- shared worker/consumer state (guarded by mu_; cancel_ is also
  //     polled locklessly inside the record loop) ---
  std::mutex mu_;
  std::condition_variable result_cv_;  // consumer: a result became ready
  std::condition_variable done_cv_;    // join: a worker task exited
  std::vector<MorselResult> slots_;    // ring of window_ results
  size_t next_claim_ = 0;
  size_t merge_idx_ = 0;
  int active_tasks_ = 0;
  std::atomic<bool> cancel_{false};
  bool workers_started_ = false;

  // --- consumer-only state ---
  bool eof_ = false;
  uint64_t emitted_ = 0;  // global index of the next merged record
  PendingStripe pending_;
  // Rows of the merged morsel, swapped out of its slot (the slot gets the
  // already emitted vector back, so row storage is recycled).
  std::vector<Row> out_rows_;
  size_t out_size_ = 0;
  size_t out_idx_ = 0;
};

}  // namespace nodb

#endif  // NODB_EXEC_RAW_SCAN_H_
