#ifndef NODB_SERVER_SERVER_H_
#define NODB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/admission.h"
#include "server/metrics.h"

namespace nodb {

class Session;

/// Query-service knobs.
struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks a free port, read it back via port().
  int port = 0;
  /// Concurrent connections; excess connects get an error line and a close.
  int max_sessions = 64;
  AdmissionConfig admission;
  /// Applied to queries that don't carry their own deadline_ms; 0 = none.
  int64_t default_deadline_ms = 0;
  /// Structured per-query log lines (one JSON object per line) go here;
  /// nullptr disables logging.
  std::ostream* log = nullptr;
};

/// A long-lived concurrent query service in front of one Database: accepts
/// TCP connections, speaks the newline-delimited JSON protocol (see
/// protocol.h), and gives every connection its own Session thread. Queries
/// pass through two-lane admission control (cold raw scans vs warm ones)
/// before touching the engine, carry deadlines/cancellation end-to-end via
/// ExecControl, and bump live metrics served by the STATS verb.
///
///   Database db(config);
///   db.Open("t", "/data/t.csv", ...);
///   QueryServer server(&db, ServerConfig{});
///   NODB_RETURN_IF_ERROR(server.Start());
///   ... connect to 127.0.0.1:server.port() ...
///   server.Stop();   // drains sessions, releases epochs, joins threads
class QueryServer {
 public:
  /// `db` must outlive the server.
  QueryServer(Database* db, ServerConfig config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and spawns the accept thread. Fails (typed) when the
  /// address is unusable; safe to call once.
  Status Start();

  /// Graceful stop: stops accepting, cancels in-flight queries, wakes
  /// queued admission waiters, and joins every session thread. Idempotent;
  /// also run by the destructor.
  void Stop();

  /// The bound port (after Start); useful with ephemeral port 0.
  int port() const { return port_; }

  /// Point-in-time counters + admission gauges + latency percentiles.
  ServerStats Stats() const;

  // --- session-facing internals (sessions hold a QueryServer*) ---
  const ServerConfig& config() const { return config_; }
  Database* db() const { return db_; }
  AdmissionController* admission() { return &admission_; }
  ServerMetrics* metrics() { return &metrics_; }
  /// A query is cold when any table it touches is a raw source whose row
  /// count is still unknown: no complete scan, promotion sweep or snapshot
  /// load yet, and no header-stated count (pmap and cache still empty) —
  /// the expensive, pool-hogging case.
  bool IsColdQuery(const std::vector<std::string>& tables) const;
  /// Writes one structured log line, serialized across sessions.
  void LogLine(std::string_view line);

 private:
  void AcceptLoop();
  /// Joins and drops finished sessions (called from the accept thread).
  void ReapFinishedLocked();

  Database* const db_;
  const ServerConfig config_;
  AdmissionController admission_;
  ServerMetrics metrics_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  std::mutex log_mu_;
};

}  // namespace nodb

#endif  // NODB_SERVER_SERVER_H_
