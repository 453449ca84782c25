#ifndef NODB_SERVER_METRICS_H_
#define NODB_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "engine/database.h"

namespace nodb {

/// Plain snapshot of the server's live counters, returned by
/// QueryServer::Stats() and serialized by the STATS protocol verb. Every
/// field is a consistent-enough point-in-time read of an atomic counter;
/// the struct itself has no concurrency obligations.
struct ServerStats {
  // --- sessions ---
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  int64_t sessions_active = 0;

  // --- query lifecycle ---
  uint64_t queries_started = 0;    // admitted and begun executing
  uint64_t queries_finished = 0;   // drained to completion, status ok
  uint64_t queries_failed = 0;     // execution error (not cancel/deadline)
  uint64_t queries_cancelled = 0;  // CANCEL verb or client disconnect
  uint64_t queries_deadline = 0;   // killed by deadline expiry
  uint64_t queries_rejected = 0;   // refused by admission control

  // --- streamed volume ---
  uint64_t rows_streamed = 0;
  uint64_t bytes_streamed = 0;

  // --- admission (cold = first-ever scan of a raw table still pending) ---
  uint64_t cold_admitted = 0;
  uint64_t warm_admitted = 0;
  int64_t cold_active = 0;
  int64_t warm_active = 0;
  int64_t cold_queued = 0;
  int64_t warm_queued = 0;

  // --- latency over recently finished queries (ms) ---
  uint64_t latency_samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  // --- merged in by QueryServer::Stats from the engine ---
  /// Warm-restart snapshot outcomes; all zero when the feature is off.
  SnapshotCounters snapshot;
  /// Per-table catalog view (Database::ListTables): snapshot state plus the
  /// raw-file I/O accounting that proves (or disproves) a warm restart.
  std::vector<TableInfo> tables;
};

/// Fixed-size ring of recent query latencies; Percentile snapshots and
/// sorts a copy, so recording stays O(1) under a short critical section.
class LatencyRing {
 public:
  static constexpr size_t kCapacity = 1024;

  void Record(double ms);
  /// `p` in [0,100]; 0 when no samples were recorded yet.
  double Percentile(double p) const;
  uint64_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;  // ring once kCapacity reached
  size_t next_ = 0;
  uint64_t total_ = 0;
};

/// The server's live counters. Sessions bump these directly; the admission
/// controller owns the active/queued gauges and QueryServer::Stats()
/// composes the full ServerStats snapshot.
struct ServerMetrics {
  std::atomic<uint64_t> sessions_opened{0};
  std::atomic<uint64_t> sessions_closed{0};

  std::atomic<uint64_t> queries_started{0};
  std::atomic<uint64_t> queries_finished{0};
  std::atomic<uint64_t> queries_failed{0};
  std::atomic<uint64_t> queries_cancelled{0};
  std::atomic<uint64_t> queries_deadline{0};
  std::atomic<uint64_t> queries_rejected{0};

  std::atomic<uint64_t> rows_streamed{0};
  std::atomic<uint64_t> bytes_streamed{0};

  std::atomic<uint64_t> cold_admitted{0};
  std::atomic<uint64_t> warm_admitted{0};

  LatencyRing latency;

  /// Fills the counter-derived part of a snapshot (admission gauges are
  /// merged in by the server, which owns the controller).
  ServerStats Snapshot() const;
};

}  // namespace nodb

#endif  // NODB_SERVER_METRICS_H_
