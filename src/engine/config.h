#ifndef NODB_ENGINE_CONFIG_H_
#define NODB_ENGINE_CONFIG_H_

#include <cstdint>
#include <string>

#include "adaptive/promotion_policy.h"
#include "exec/table_runtime.h"

namespace nodb {

/// The systems under test in the paper's evaluation (§5), each realized as
/// a configuration of the same engine — mirroring how PostgresRaw shares
/// PostgreSQL's executor and differs only in access methods and auxiliary
/// structures. See DESIGN.md for the substitution rationale per system.
enum class SystemUnderTest : uint8_t {
  kPostgresRawPMC,       // PostgresRaw PM+C (positional map + cache)
  kPostgresRawPM,        // positional map only
  kPostgresRawC,         // cache + minimal end-of-line map
  kPostgresRawBaseline,  // straw-man in-situ: no auxiliary structures
  kExternalFiles,        // MySQL CSV engine / DBMS X external files
  kPostgreSQL,           // load-then-query, slotted pages, 24 B headers
  kDbmsX,                // load-then-query, packed rows (commercial analogue)
  kMySQL,                // load-then-query, heap + handler copy-out penalty
};

std::string_view SystemUnderTestName(SystemUnderTest sut);

/// Full engine configuration; use the factory for paper-faithful presets
/// and tweak fields for ablations.
struct EngineConfig {
  // --- in-situ auxiliary structures (§4.2–§4.4) ---
  bool positional_map = true;
  uint64_t pm_budget_bytes = UINT64_MAX;
  std::string pm_spill_dir;  // empty = drop on eviction
  int tuples_per_chunk = 4096;
  bool cache = true;
  uint64_t cache_budget_bytes = UINT64_MAX;
  bool statistics = true;

  // --- in-situ scan behaviour (§4.1) ---
  bool selective_tokenizing = true;
  bool selective_parsing = true;
  bool selective_tuple_formation = true;
  /// §4.2's combination policy (re-index a query's full attribute set when
  /// it spans chunks). Implemented and tested, but off by default: it pays
  /// off only when combinations repeat, and at laptop scale its duplicate
  /// insertions outweigh the locality gain (see DESIGN.md).
  bool index_combinations = false;
  /// §4.2's "learn as much as possible" policy: also index attributes the
  /// tokenizer crossed on the way to requested ones. Default on, as in the
  /// paper ("all positions from 1 to 15 may be kept").
  bool index_intermediates = true;

  // --- execution ---
  /// Rows per operator batch (RowBatch capacity) for the vectorized
  /// pipeline. 1 degenerates to tuple-at-a-time Volcano dispatch (useful
  /// for measuring what batching buys); benches sweep this knob.
  size_t batch_size = 1024;
  /// Worker threads per raw-file scan (morsel-driven parallelism over one
  /// shared per-Database ThreadPool). 1 — the default — decodes morsels
  /// inline on the querying thread; any count yields the same rows in the
  /// same order. Overridable per table through OpenOptions::scan_threads.
  int scan_threads = 1;
  /// Target bytes per parallel-scan morsel. 0 = auto: file_size / (8 x
  /// threads), clamped to [256 KiB, 16 MiB] so every worker gets several
  /// morsels (load balance) without per-morsel overhead dominating.
  uint64_t scan_morsel_bytes = 0;
  /// Use the scalar reference tokenize/parse path instead of the SWAR/SIMD
  /// parse kernels (raw/parse_kernels.h) for this engine's raw adapters
  /// and bulk loads. The differential-testing escape hatch; also forced
  /// globally by building with -DNODB_FORCE_SCALAR_KERNELS=ON.
  bool scalar_kernels = false;

  // --- compressed sources (src/io/inflate_file) ---
  /// Decompressed bytes between zran-style restart checkpoints for gzipped
  /// sources (`.csv.gz`, `.jsonl.gz`, ...). Smaller intervals make warm
  /// pmap-directed seeks cheaper (a seek re-inflates at most one interval)
  /// at ~32 KiB of index memory per checkpoint. Requires a build with zlib.
  uint64_t gz_checkpoint_bytes = 4ull << 20;

  // --- warm-restart snapshots (src/snapshot) ---
  /// Directory raw tables load auxiliary-structure snapshots from at Open
  /// and save them to (positional map, column cache, statistics). Empty =
  /// feature off. Overridable per table through OpenOptions::snapshot_dir.
  std::string snapshot_dir;
  /// Period of the background snapshot writer; 0 = no background writer
  /// (snapshots are still written by explicit Snapshot()/SnapshotAll()
  /// calls and by the server's graceful Stop). The writer only persists
  /// tables whose warm state moved since their last save.
  int snapshot_interval_ms = 0;

  // --- workload-driven column promotion (src/adaptive) ---
  /// Tiering policy for raw tables: per-column access accounting feeds a
  /// scoring policy, and hot columns are bulk-loaded into an in-memory
  /// columnar representation served in place of raw-file parsing (cold
  /// ones are demoted back under the byte budget). `promotion.enabled`
  /// turns the subsystem on; `promotion.interval_ms > 0` additionally runs
  /// cycles on a background thread (0 = explicit RunPromotionCycle calls
  /// only). `promotion.budget_bytes == 0` shares the cache budget by
  /// reserving promoted bytes out of it.
  PromotionConfig promotion;

  // --- loaded-engine storage ---
  TableStorage loaded_storage = TableStorage::kHeap;
  uint32_t tuple_header_bytes = 24;
  bool mysql_copy_penalty = false;
  uint32_t buffer_pool_pages = 4096;
  /// Directory for loaded table files; empty = alongside the source CSV.
  std::string data_dir;

  /// Paper-faithful preset for each system under test.
  static EngineConfig ForSystem(SystemUnderTest sut);
};

}  // namespace nodb

#endif  // NODB_ENGINE_CONFIG_H_
