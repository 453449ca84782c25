// Shared declarations of the repository benchmark (perfbench).
//
// The benchmark drives the engine only through its public API and measures
// every layer from outside: it times the calls it makes (Database::Open /
// Query, QueryCursor::Next, RunPromotionCycles, QueryServer round trips,
// RandomAccessFile / InflateFile reads, the ActiveKernels() tokenizer) and
// reads counter deltas from the public accessors (ListTables, the table
// runtimes' pmap / cache / access / promoted counters, InflateFile,
// QueryServer::Stats).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// A query that runs longer than this is killed by its QueryOptions
/// deadline and fails the run.
constexpr std::chrono::seconds kQueryDeadline{30};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for the generated inputs (inside the checkout).
  std::string data_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

// ---------------------------------------------------------------- outcomes

/// What happened to one attempted query. Everything but kOk counts in
/// failed_frac.
enum class Outcome { kOk, kError, kRefused, kTimeout, kWrong };

const char* OutcomeName(Outcome outcome);

/// Attempted/failed accounting behind `failed_frac`.
class Tally {
 public:
  void Record(Outcome outcome);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  /// failed / attempted; 0 before the first attempt.
  double failed_frac() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

// ---------------------------------------------------------------- samples

/// Nearest-rank percentile (p in (0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it (p50 needs 20 samples, p95 needs 200).
bool PercentileSupported(size_t samples, double p);

// ---------------------------------------------------------------- report

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metrics BENCHMARK.json lists, with their units: every run without
/// tracing reports all of kEndToEnd, every traced run all of kPerLayer
/// (layers a workload does not exercise read 0).
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// The metrics of one run, printed by name and unit and then as the final
/// JSON line.
class Report {
 public:
  /// Adds a metric named in kEndToEnd or kPerLayer (its unit comes from
  /// there); an unknown name aborts the run.
  void Add(const std::string& name, double value);
  bool Has(const std::string& name) const;
  /// Prints one line a person reads next to the value: sample counts,
  /// failure accounting, self times.
  void Note(const std::string& line);
  /// Prints every note and metric, then the JSON result line.
  void Print(bool correct, const Tally& tally) const;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run. Span ids are handed out up
/// front (NewId) so a parent's id exists before its children end; spans are
/// recorded when they end. Spans of one query share `query`. A disabled
/// tracer (the default) hands out id 0 and drops everything.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(); }
  /// Switched only between measured phases, never while spans are added.
  void SetEnabled(bool enabled) { enabled_.store(enabled); }
  uint64_t NewId();
  void Add(uint64_t id, uint64_t parent, uint64_t query, const char* name,
           Clock::time_point start, Clock::time_point end);
  /// Attaches one query's counter deltas (serialized with the spans).
  void AddCounters(uint64_t query, const std::string& counters_json);
  struct SelfTime {
    double ms = 0;       // duration minus the children's durations, summed
    uint64_t spans = 0;  // spans of this name
  };
  /// Self time per span name.
  std::map<std::string, SelfTime> SelfTimes() const;
  /// Writes the spans and counter deltas as JSON lines.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t id, parent, query;
    const char* name;
    Clock::time_point start, end;
  };
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<std::pair<uint64_t, std::string>> counters_;  // guarded by mu_
};

// ---------------------------------------------------------------- counters

/// Layer counters summed over every raw table of one Database. Monotonic
/// counters subtract; gauges (the *_bytes footprints) keep the later value.
struct Counters {
  uint64_t bytes_read = 0;
  uint64_t gz_bytes_inflated = 0;
  uint64_t gz_checkpoint_restarts = 0;
  uint64_t gz_full_restarts = 0;
  uint64_t rows_parsed = 0;
  uint64_t bytes_parsed = 0;
  uint64_t rows_from_cache = 0;
  uint64_t rows_from_promoted = 0;
  uint64_t pmap_lookups = 0;
  uint64_t pmap_hits = 0;  // exact + anchor
  uint64_t pmap_fragments = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t promotions = 0;
  uint64_t pmap_bytes = 0;
  uint64_t cache_bytes = 0;
  uint64_t promoted_bytes = 0;

  static Counters Read(nodb::Database* db);
  /// Counter deltas `*this - before`; gauges from *this.
  Counters Since(const Counters& before) const;
  std::string ToJson() const;
  /// pmap + cache + promoted footprint in MB (the `aux_mb` metric).
  double aux_mb() const;
};

// ---------------------------------------------------------------- watchdog

/// Process watchdog for the known lost wakeup in the parallel scan: a
/// consumer parked on a condition variable never reaches a batch boundary,
/// so the query deadline alone cannot end it. When the current query (or
/// the whole run) outlives its limit, the watchdog names the workload, seed
/// and query on stderr and exits the process with code 3, printing no
/// result.
class Watchdog {
 public:
  Watchdog(std::string workload, uint64_t seed, double query_limit_s,
           double run_limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Arms the watchdog for `query`; `limit_s` overrides the query limit
  /// for a longer phase (0 keeps it).
  void Enter(const std::string& query, double limit_s = 0);
  void Leave();

 private:
  void Loop();

  const std::string workload_;
  const uint64_t seed_;
  const double query_limit_s_;
  const double run_limit_s_;
  const Clock::time_point run_start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;            // guarded by mu_
  std::string query_;            // guarded by mu_
  Clock::time_point query_start_;  // guarded by mu_
  double limit_s_ = 0;             // guarded by mu_
  bool in_query_ = false;        // guarded by mu_
  std::thread thread_;           // declared last: uses the members above
};

// ---------------------------------------------------------------- answers

/// One result cell, normalized so the direct API, the reference engine and
/// the server's JSON compare equal: integers (and integral doubles) are
/// kInt, other doubles kReal, strings and dates kText.
struct Cell {
  enum Kind : uint8_t { kNull, kInt, kReal, kText };
  Kind kind = kNull;
  int64_t i = 0;
  double d = 0;
  std::string s;

  static Cell FromValue(const nodb::Value& v);
  static Cell FromDouble(double d);
};
using CellRow = std::vector<Cell>;

/// A checked answer: row count plus a digest (order-insensitive unless the
/// query has ORDER BY). Small answers also keep their rows, so doubles can
/// be compared with a relative tolerance.
struct Answer {
  bool ordered = false;
  uint64_t rows = 0;
  uint64_t digest = 0;
  std::vector<CellRow> kept;  // all rows while rows <= kKeepRows
  static constexpr uint64_t kKeepRows = 2000;
};

class AnswerCollector {
 public:
  explicit AnswerCollector(bool ordered) { answer_.ordered = ordered; }
  void Add(CellRow row);
  void AddBatch(const nodb::RowBatch& batch, size_t n);
  Answer Finish();

 private:
  Answer answer_;
};

/// True when `got` matches `want`; otherwise explains why in `*why`.
bool Matches(const Answer& got, const Answer& want, std::string* why);

/// True when the SQL text has an ORDER BY (row order is then checked).
bool HasOrderBy(const std::string& sql);

/// Parses the row lines of one server response (every line before the
/// terminal status line) into `*collector`. False on malformed JSON.
bool ParseResponseRows(const std::string& body, AnswerCollector* collector);

/// FNV-1a over `data`.
uint64_t HashBytes(const std::string& data, uint64_t seed = 0);

// ---------------------------------------------------------------- queries

/// A query of a workload together with its reference answer.
struct QuerySpec {
  std::string label;  // names the query in failures and traces
  std::string sql;
  Answer expected;
};

/// Per-query timings of one direct-API run (seconds). The latency the
/// benchmark reports is plan + open + drain: time spent inside the engine's
/// calls, without the benchmark's own answer checking.
struct QueryTiming {
  double plan_s = 0;   // Database::Query (parse, bind, plan)
  double open_s = 0;   // first QueryCursor::Next (pipeline open, join builds)
  double drain_s = 0;  // every later Next
  double check_s = 0;  // digesting the rows (benchmark side)
  double wall_s = 0;   // the whole query, Query() to the last Next
  uint64_t rows = 0;
  Counters counters;   // the query's counter deltas (traced runs only)
  double latency_s() const { return plan_s + open_s + drain_s; }
};

/// Shared state of one run.
struct Context {
  Args args;
  Tally tally;
  Tracer tracer;
  Watchdog* watchdog = nullptr;
  Report report;
  std::atomic<bool> correct{true};

  /// Records a failed check: prints why on stderr and marks the run wrong.
  void Fail(const std::string& what);
};

/// Runs one query through Database::Query and QueryCursor::Next under a
/// deadline, timing each layer boundary and recording spans (query → plan /
/// open / drain → check) when tracing, then checks the answer. Failures are
/// counted in ctx->tally and reported through ctx->Fail.
Outcome RunDirect(Context* ctx, nodb::Database* db, const QuerySpec& spec,
                  uint64_t parent_span, QueryTiming* timing);

/// Executes `sql` on a reference engine (a loaded table) and returns its
/// answer; a reference failure aborts the run.
Answer ReferenceAnswer(nodb::Database* reference, const std::string& sql);

// ---------------------------------------------------------------- probes

/// Files the io/raw probes time.
struct ProbeFiles {
  std::string read_path;     // sequential pass through RandomAccessFile
  std::string inflate_path;  // sequential pass through InflateFile ("" = none)
  std::string csv_path;      // tokenized with ActiveKernels()
  int columns = 0;
};

/// A direct-API workload (explore_gz, tpch): one session opens
/// the tables on an empty Database and runs `queries` in order.
struct SessionPlan {
  nodb::EngineConfig config;
  /// Registers the workload's tables on a fresh Database (timed as setup).
  std::function<nodb::Status(nodb::Database*)> open;
  std::vector<QuerySpec> queries;
  /// Database::RunPromotionCycles() runs after this many queries, inside
  /// the session's time; never when npos.
  size_t promote_after = std::string::npos;
};

/// Runs a direct-API workload. Untraced: two setup probes (each timed up to
/// its first answer) before every whole session, until --seconds have
/// passed, at least 200 queries ran and at least 9 setups were timed;
/// reports the end-to-end metrics. Traced: one untraced and two traced
/// sessions plus the io/raw probes; reports the per-layer metrics, checks
/// that plan + open + drain account for the traced queries' wall time and,
/// for `serial` workloads, that the two traced sessions' per-query counter
/// deltas are identical.
void RunDirectWorkload(Context* ctx, const SessionPlan& plan,
                       const ProbeFiles& probes, bool serial);

/// plan.query_ms, exec.open_ms and exec.drain_ms (means per query) and
/// trace.unaccounted_share from traced query timings. Fails the run when
/// plan + open + drain leave more than 3% of the traced queries' wall time
/// (less the benchmark's own checking) unaccounted.
void ReportExecLayers(Context* ctx, const std::vector<QueryTiming>& timings);

/// The io, raw, pmap, cache and adaptive metrics from counter deltas.
void ReportCounterLayers(Context* ctx, const Counters& delta,
                         double promote_s);

/// self.*_ms: self time per layer from the recorded spans, in ms per traced
/// query (direct-API layers) or per traced request (server layers).
void ReportSelfTimes(Context* ctx);

/// Times the io/raw probes (spans "probe.read", "probe.inflate",
/// "probe.tokenize") and adds io.read_mb_s, io.inflate_mb_s,
/// raw.tokenize_mb_s and self.probe_ms (their total time).
void RunProbes(Context* ctx, const ProbeFiles& files);

// ---------------------------------------------------------------- workloads

int RunExploreGz(Context* ctx);
int RunServe(Context* ctx);
int RunTpch(Context* ctx);

/// Checks the percentile rule and the failed_frac accounting; returns the
/// number of failed checks (printed on stderr).
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
