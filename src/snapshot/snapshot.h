#ifndef NODB_SNAPSHOT_SNAPSHOT_H_
#define NODB_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "exec/table_runtime.h"
#include "util/result.h"
#include "util/status.h"

namespace nodb {

/// Persistent auxiliary-structure snapshots: warm restarts for the adaptive
/// structures (positional map, column cache, statistics) a raw table earns
/// during its lifetime. NoDB's whole advantage is that these structures
/// amortize raw-file cost across queries; without persistence they die with
/// the process and every restart re-pays full cold-scan cost. A snapshot is
/// a versioned, checksummed sidecar file — one per table, in a directory the
/// engine is pointed at — that serializes the structures' contents keyed by
/// a fingerprint of the raw source file, so a mutated or replaced source
/// invalidates cleanly and the engine falls back to the cold path.
///
/// Everything here is *auxiliary*: a missing, stale, truncated or bit-flipped
/// snapshot only costs re-tokenization, never correctness. Every load outcome
/// short of "loaded" degrades to exactly the behaviour of a never-snapshotted
/// engine.
///
/// On-disk layout (fixed-width little-endian fields, as the spill files):
///
///   header   magic "NODBSNAP" | u32 version | u32 flags |
///            u64 payload_size | u64 payload_checksum | u64 reserved
///   payload  source fingerprint (path, size, mtime_ns, head/tail hash)
///            format name + schema (must match the open table exactly)
///            tuples_per_chunk (the table's stripe size, always recorded;
///                              stripe addressing must agree)
///            positional-map section  (row count + spine + per-stripe
///                                     position matrix)
///            column-cache section    (typed value chunks)
///            statistics section      (row count + finalized AttrStats)
///
/// The checksum covers the entire payload, so truncation and bit flips are
/// detected before any field is interpreted; the decoder additionally bounds-
/// checks every read and validates attribute indices and types against the
/// live schema, so a snapshot from a different engine version degrades to
/// the cold path instead of crashing.
///
/// Crash safety: writers serialize to a buffer, write `<path>.tmp.<pid>`,
/// fsync, then rename(2) into place — a reader only ever sees the previous
/// complete snapshot or the new complete snapshot, never a partial write.

/// Identity of a raw source file at snapshot time. A snapshot is valid only
/// if *all* fields still match at load time — deliberately conservative
/// (touching the file invalidates warm state), because stale positions must
/// never produce wrong results. The head/tail sample hashes catch in-place
/// edits that preserve size, at the cost of two 64 KiB reads.
struct SourceFingerprint {
  std::string path;
  uint64_t size = 0;
  int64_t mtime_ns = 0;
  uint64_t head_hash = 0;  // first 64 KiB
  uint64_t tail_hash = 0;  // last 64 KiB

  bool operator==(const SourceFingerprint& other) const = default;
};

/// Fingerprints `path` via a private file handle (so snapshot validation
/// does not count against the table's raw-scan I/O accounting).
Result<SourceFingerprint> FingerprintSource(const std::string& path);

/// How a load attempt ended. Only kLoaded restored any state; the other
/// outcomes leave the table exactly as a cold open would.
enum class SnapshotLoadOutcome : uint8_t {
  kLoaded,
  kMissing,  // no snapshot file (or the table has no adaptive structures)
  kStale,    // fingerprint / schema / stripe-size mismatch
  kCorrupt,  // bad magic, bad checksum, or undecodable payload
};

struct SnapshotLoadInfo {
  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kMissing;
  /// Size of the snapshot file on disk (0 when missing).
  uint64_t bytes = 0;
  /// Human-readable reason for non-loaded outcomes (logs and tests).
  std::string detail;
};

struct SnapshotWriteInfo {
  std::string path;
  uint64_t bytes = 0;
};

/// Snapshot file path for table `name` under `dir`.
std::string SnapshotPathFor(const std::string& dir, const std::string& name);

/// Checksum used for both the payload and the fingerprint sample hashes:
/// word-at-a-time FNV-style mix, sensitive to any bit flip and to length.
uint64_t SnapshotChecksum(const char* data, size_t n);

/// Serializes `rt`'s current warm state (whatever structures exist) into
/// `rt->snapshot_dir` with the write-temp + fsync + rename protocol. The
/// structures are exported through their own locks (short critical sections;
/// live scans are not blocked for the duration of the disk write). Callers
/// must serialize concurrent writes for one table (Database does).
Result<SnapshotWriteInfo> WriteTableSnapshot(TableRuntime* rt);

/// Attempts to restore warm state into `rt` from `rt->snapshot_dir`. On
/// success, positions are installed through PositionalMap::InstallFragment
/// under a fresh epoch — the same entry point live scans use — so budget
/// admission and epoch protection hold (an over-budget snapshot is partially
/// declined, never force-installed); cache chunks and statistics follow, and
/// the table's row count becomes known. Must be called before the table
/// serves queries (Database::Open does). Never returns an error: every
/// failure mode is a typed outcome that leaves cold-path behaviour intact.
SnapshotLoadInfo LoadTableSnapshot(TableRuntime* rt);

/// Cheap signature of the table's warm state (structure counters + row
/// count). The background snapshot writer persists a table only when its
/// signature moved since the last save.
uint64_t WarmStateSignature(const TableRuntime& rt);

}  // namespace nodb

#endif  // NODB_SNAPSHOT_SNAPSHOT_H_
