// Direct-API query execution with per-layer timing, the reference oracle,
// the metrics shared by the direct-API workloads, and the io/raw probes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "io/file.h"
#include "io/inflate_file.h"
#include "raw/parse_kernels.h"

namespace perfbench {

namespace {

double Ms(double seconds) { return seconds * 1e3; }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Fixed(double v, int decimals = 3) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace

Outcome RunDirect(Context* ctx, nodb::Database* db, const QuerySpec& spec,
                  uint64_t parent_span, QueryTiming* timing) {
  Tracer& tracer = ctx->tracer;
  *timing = QueryTiming{};
  const Counters before =
      tracer.enabled() ? Counters::Read(db) : Counters{};
  ctx->watchdog->Enter(spec.label);
  const uint64_t query_span = tracer.NewId();
  const uint64_t qid = query_span;
  const uint64_t drain_span = tracer.NewId();

  nodb::QueryOptions options;
  options.deadline = Clock::now() + kQueryDeadline;
  const Clock::time_point t0 = Clock::now();
  nodb::Result<nodb::QueryCursor> cursor = db->Query(spec.sql, options);
  const Clock::time_point t1 = Clock::now();
  tracer.Add(tracer.NewId(), query_span, qid, "plan", t0, t1);
  timing->plan_s = Seconds(t0, t1);

  nodb::Status status = cursor.status();
  AnswerCollector got(spec.expected.ordered);
  if (status.ok()) {
    nodb::RowBatch batch = cursor->MakeBatch();
    Clock::time_point open_end{};
    for (bool first = true;; first = false) {
      const Clock::time_point n0 = Clock::now();
      nodb::Result<size_t> n = cursor->Next(&batch);
      const Clock::time_point n1 = Clock::now();
      if (first) {
        tracer.Add(tracer.NewId(), query_span, qid, "open", n0, n1);
        timing->open_s = Seconds(n0, n1);
        open_end = n1;
      } else {
        timing->drain_s += Seconds(n0, n1);
      }
      if (!n.ok()) {
        status = n.status();
        break;
      }
      if (*n == 0) break;
      got.AddBatch(batch, *n);
      const Clock::time_point c1 = Clock::now();
      tracer.Add(tracer.NewId(), drain_span, qid, "check", n1, c1);
      timing->check_s += Seconds(n1, c1);
      timing->rows += *n;
    }
    tracer.Add(drain_span, query_span, qid, "drain", open_end, Clock::now());
  }
  const Clock::time_point t_end = Clock::now();
  tracer.Add(query_span, parent_span, qid, "query", t0, t_end);
  timing->wall_s = Seconds(t0, t_end);
  ctx->watchdog->Leave();
  if (tracer.enabled()) {
    timing->counters = Counters::Read(db).Since(before);
    tracer.AddCounters(qid, timing->counters.ToJson());
  }

  Outcome outcome = Outcome::kOk;
  std::string why;
  if (!status.ok()) {
    outcome = status.code() == nodb::StatusCode::kDeadlineExceeded
                  ? Outcome::kTimeout
                  : Outcome::kError;
    why = status.ToString();
  } else if (!Matches(got.Finish(), spec.expected, &why)) {
    outcome = Outcome::kWrong;
  }
  ctx->tally.Record(outcome);
  if (outcome != Outcome::kOk) {
    ctx->Fail(std::string(OutcomeName(outcome)) + " on query " + spec.label +
              " [" + spec.sql + "]: " + why);
  }
  return outcome;
}

Answer ReferenceAnswer(nodb::Database* reference, const std::string& sql) {
  nodb::Result<nodb::QueryResult> result = reference->Execute(sql);
  if (!result.ok()) {
    fprintf(stderr, "perfbench: reference engine failed on [%s]: %s\n",
            sql.c_str(), result.status().ToString().c_str());
    exit(2);
  }
  AnswerCollector collector(HasOrderBy(sql));
  for (const nodb::Row& row : result->rows) {
    CellRow cells;
    for (const nodb::Value& v : row) cells.push_back(Cell::FromValue(v));
    collector.Add(std::move(cells));
  }
  return collector.Finish();
}

namespace {

/// Everything one direct-API session measured.
struct SessionResult {
  double setup_s = 0;
  double first_query_s = 0;
  double session_s = 0;  // engine time of every query plus promotion
  double promote_s = 0;
  std::vector<QueryTiming> timings;
  Counters delta;  // whole-session counter deltas
  double aux_mb = 0;
};

void ReportDirectEndToEnd(Context* ctx, const std::vector<double>& setup_s,
                          const std::vector<double>& first_query_s,
                          const std::vector<SessionResult>& sessions) {
  std::vector<double> session_s, aux, latencies;
  double engine_s = 0;
  for (const SessionResult& s : sessions) {
    session_s.push_back(s.session_s);
    aux.push_back(s.aux_mb);
    for (const QueryTiming& t : s.timings) latencies.push_back(Ms(t.latency_s()));
    engine_s += s.session_s;
  }
  const size_t n = latencies.size();
  if (!PercentileSupported(n, 0.95)) {
    fprintf(stderr, "perfbench: %zu query samples cannot support p95\n", n);
    exit(2);
  }
  ctx->report.Add("setup_s", Median(setup_s));
  ctx->report.Add("first_query_s", Median(first_query_s));
  ctx->report.Add("session_s", Median(session_s));
  ctx->report.Add("qps", Ratio(static_cast<double>(n), engine_s));
  ctx->report.Add("query_p50_ms", Percentile(latencies, 0.50));
  ctx->report.Add("query_p95_ms", Percentile(latencies, 0.95));
  ctx->report.Add("aux_mb", Median(aux));
  ctx->report.Note("samples: setup_s n=" + std::to_string(setup_s.size()) +
                   ", first_query_s n=" + std::to_string(first_query_s.size()) +
                   ", session_s n=" + std::to_string(session_s.size()) +
                   ", query_p50_ms/query_p95_ms n=" + std::to_string(n));
  std::string each = "session_s per session:";
  for (double v : session_s) each.append(" ").append(Fixed(v));
  ctx->report.Note(each);
}

void ReportDirectLayers(Context* ctx, const SessionResult& untraced,
                        const std::vector<SessionResult>& traced,
                        bool serial) {
  std::vector<QueryTiming> timings;
  std::vector<double> traced_session_s;
  for (const SessionResult& s : traced) {
    timings.insert(timings.end(), s.timings.begin(), s.timings.end());
    traced_session_s.push_back(s.session_s);
  }
  ReportExecLayers(ctx, timings);
  ctx->report.Add("trace.overhead",
                  Ratio(Median(traced_session_s), untraced.session_s));

  // Counters: the first traced session; serial sessions must repeat it.
  const SessionResult& first = traced.front();
  if (serial) {
    for (size_t k = 1; k < traced.size(); ++k) {
      bool same = traced[k].timings.size() == first.timings.size();
      for (size_t q = 0; same && q < first.timings.size(); ++q) {
        same = traced[k].timings[q].counters.ToJson() ==
               first.timings[q].counters.ToJson();
      }
      if (!same) {
        ctx->Fail("per-query counter deltas of a serial workload differ "
                  "between two traced sessions");
      }
    }
  }
  uint64_t rows_out = 0;
  for (const QueryTiming& t : first.timings) rows_out += t.rows;
  ctx->report.Add("exec.rows_out", static_cast<double>(rows_out));
  ReportCounterLayers(ctx, first.delta, first.promote_s);
  ReportSelfTimes(ctx);
}

/// One session: an empty Database opens the tables (setup), then the first
/// `limit` queries of the plan run in order.
SessionResult RunSession(Context* ctx, const SessionPlan& plan, size_t limit) {
  Tracer& tracer = ctx->tracer;
  SessionResult r;
  const uint64_t session_span = tracer.NewId();
  const Clock::time_point s0 = Clock::now();
  nodb::Database db(plan.config);
  const nodb::Status opened = plan.open(&db);
  const Clock::time_point s1 = Clock::now();
  tracer.Add(tracer.NewId(), session_span, 0, "setup", s0, s1);
  r.setup_s = Seconds(s0, s1);
  if (!opened.ok()) {
    fprintf(stderr, "perfbench: opening the tables failed: %s\n",
            opened.ToString().c_str());
    exit(2);
  }
  const Counters before = Counters::Read(&db);
  for (size_t i = 0; i < std::min(limit, plan.queries.size()); ++i) {
    if (i == plan.promote_after) {
      ctx->watchdog->Enter("promotion cycle");
      const Clock::time_point p0 = Clock::now();
      const auto reports = db.RunPromotionCycles();
      const Clock::time_point p1 = Clock::now();
      ctx->watchdog->Leave();
      tracer.Add(tracer.NewId(), session_span, 0, "promote", p0, p1);
      r.promote_s = Seconds(p0, p1);
      r.session_s += r.promote_s;
      for (const auto& report : reports) {
        if (!report.status.ok()) {
          ctx->Fail("promotion of " + report.table + " failed: " +
                    report.status.ToString());
        }
      }
    }
    QueryTiming timing;
    RunDirect(ctx, &db, plan.queries[i], session_span, &timing);
    if (i == 0) r.first_query_s = timing.latency_s();
    r.session_s += timing.latency_s();
    r.timings.push_back(timing);
  }
  r.delta = Counters::Read(&db).Since(before);
  r.aux_mb = r.delta.aux_mb();
  tracer.Add(session_span, 0, 0, "session", s0, Clock::now());
  return r;
}

}  // namespace

void ReportExecLayers(Context* ctx, const std::vector<QueryTiming>& timings) {
  double plan = 0, open = 0, drain = 0, accounted = 0, engine_wall = 0;
  for (const QueryTiming& t : timings) {
    plan += t.plan_s;
    open += t.open_s;
    drain += t.drain_s;
    accounted += t.latency_s();
    engine_wall += t.wall_s - t.check_s;
  }
  const double unaccounted = Ratio(engine_wall - accounted, engine_wall);
  if (unaccounted > 0.03) {
    ctx->Fail("plan+open+drain leave " + Fixed(100 * unaccounted, 2) +
              "% of the traced queries' wall time unaccounted");
  }
  const double n = static_cast<double>(std::max<size_t>(timings.size(), 1));
  ctx->report.Add("plan.query_ms", Ms(plan) / n);
  ctx->report.Add("exec.open_ms", Ms(open) / n);
  ctx->report.Add("exec.drain_ms", Ms(drain) / n);
  ctx->report.Add("trace.unaccounted_share", unaccounted);
}

void ReportCounterLayers(Context* ctx, const Counters& d, double promote_s) {
  const double scanned = static_cast<double>(d.rows_parsed + d.rows_from_cache +
                                             d.rows_from_promoted);
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  ctx->report.Add("io.bytes_read", count(d.bytes_read));
  ctx->report.Add("io.gz_bytes_inflated", count(d.gz_bytes_inflated));
  ctx->report.Add("io.gz_checkpoint_restarts", count(d.gz_checkpoint_restarts));
  ctx->report.Add("io.gz_full_restarts", count(d.gz_full_restarts));
  ctx->report.Add("io.gz_inflate_per_payload",
                  Ratio(count(d.gz_bytes_inflated), count(d.bytes_read)));
  ctx->report.Add("raw.rows_parsed", count(d.rows_parsed));
  ctx->report.Add("raw.bytes_parsed", count(d.bytes_parsed));
  ctx->report.Add("raw.parsed_per_read",
                  Ratio(count(d.bytes_parsed), count(d.bytes_read)));
  ctx->report.Add("pmap.lookups", count(d.pmap_lookups));
  ctx->report.Add("pmap.hit_ratio",
                  Ratio(count(d.pmap_hits), count(d.pmap_lookups)));
  ctx->report.Add("pmap.fragments_installed", count(d.pmap_fragments));
  ctx->report.Add("pmap.mb", count(d.pmap_bytes) / 1e6);
  ctx->report.Add("cache.hit_ratio",
                  Ratio(count(d.cache_hits), count(d.cache_hits + d.cache_misses)));
  ctx->report.Add("cache.inserts", count(d.cache_inserts));
  ctx->report.Add("cache.evictions", count(d.cache_evictions));
  ctx->report.Add("cache.mb", count(d.cache_bytes) / 1e6);
  ctx->report.Add("adaptive.cycle_ms", Ms(promote_s));
  ctx->report.Add("adaptive.promotions", count(d.promotions));
  ctx->report.Add("adaptive.promoted_mb", count(d.promoted_bytes) / 1e6);
  ctx->report.Add("adaptive.served_share",
                  Ratio(count(d.rows_from_promoted), scanned));
}

void ReportSelfTimes(Context* ctx) {
  const auto self = ctx->tracer.SelfTimes();
  auto get = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? Tracer::SelfTime{} : it->second;
  };
  const double queries = static_cast<double>(get("query").spans);
  const double requests = static_cast<double>(get("request").spans);
  for (const char* name : {"plan", "open", "drain", "check", "query", "promote"}) {
    ctx->report.Add(std::string("self.") + name + "_ms",
                    Ratio(get(name).ms, queries));
  }
  for (const char* name : {"request", "first_byte", "stream"}) {
    ctx->report.Add(std::string("self.") + name + "_ms",
                    Ratio(get(name).ms, requests));
  }
  std::string table = "self time per layer (ms total / spans):";
  for (const auto& [name, t] : self) {
    table += " " + name + "=" + Fixed(t.ms, 2) + "/" + std::to_string(t.spans);
  }
  ctx->report.Note(table);
}

void RunDirectWorkload(Context* ctx, const SessionPlan& plan,
                       const ProbeFiles& probes, bool serial) {
  constexpr int kSetups = 24;
  constexpr size_t kMinQueries = 200;
  if (ctx->args.trace) {
    const SessionResult untraced = RunSession(ctx, plan, plan.queries.size());
    ctx->tracer.SetEnabled(true);
    std::vector<SessionResult> traced;
    for (int i = 0; i < 2; ++i) {
      traced.push_back(RunSession(ctx, plan, plan.queries.size()));
    }
    RunProbes(ctx, probes);
    ReportDirectLayers(ctx, untraced, traced, serial);
    return;
  }
  // Setup probes (a fresh Database up to its first answer) are interleaved
  // with the sessions, so slow and fast phases of a shared machine reach
  // every metric alike.
  std::vector<double> setup_s, first_query_s;
  std::vector<SessionResult> sessions;
  size_t queries = 0;
  auto probe_setup = [&] {
    const SessionResult s = RunSession(ctx, plan, 1);
    setup_s.push_back(s.setup_s);
    first_query_s.push_back(s.first_query_s);
  };
  // One untimed session first: the first session of a process runs up to a
  // fifth slower than the rest (cold allocator, page tables, branch state).
  // Its answers are still checked.
  RunSession(ctx, plan, plan.queries.size());
  const Clock::time_point start = Clock::now();
  while (sessions.empty() || queries < kMinQueries ||
         Seconds(start, Clock::now()) < ctx->args.seconds) {
    probe_setup();
    probe_setup();
    sessions.push_back(RunSession(ctx, plan, plan.queries.size()));
    setup_s.push_back(sessions.back().setup_s);
    first_query_s.push_back(sessions.back().first_query_s);
    queries += sessions.back().timings.size();
  }
  while (setup_s.size() < kSetups) probe_setup();
  ReportDirectEndToEnd(ctx, setup_s, first_query_s, sessions);
}

// ---------------------------------------------------------------- probes

namespace {

/// Median MB/s of three sequential passes over `file` in 1 MiB reads.
double SequentialMbPerS(Context* ctx, const nodb::RandomAccessFile& file,
                        const char* span, uint64_t parent) {
  std::vector<char> buf(1 << 20);
  std::vector<double> rates;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point t0 = Clock::now();
    uint64_t offset = 0;
    while (offset < file.size()) {
      nodb::Result<uint64_t> n = file.Read(offset, buf.size(), buf.data());
      if (!n.ok() || *n == 0) {
        ctx->Fail(std::string(span) + " read failed at offset " +
                  std::to_string(offset));
        return 0;
      }
      offset += *n;
    }
    const Clock::time_point t1 = Clock::now();
    ctx->tracer.Add(ctx->tracer.NewId(), parent, 0, span, t0, t1);
    rates.push_back(static_cast<double>(offset) / 1e6 / Seconds(t0, t1));
  }
  return Median(rates);
}

}  // namespace

void RunProbes(Context* ctx, const ProbeFiles& files) {
  const uint64_t probe_span = ctx->tracer.NewId();
  const Clock::time_point start = Clock::now();
  auto open = [ctx](const std::string& path) {
    auto file = nodb::RandomAccessFile::Open(path);
    if (!file.ok()) {
      fprintf(stderr, "perfbench: cannot open %s\n", path.c_str());
      exit(2);
    }
    return std::move(*file);
  };
  ctx->report.Add("io.read_mb_s",
                  SequentialMbPerS(ctx, *open(files.read_path), "probe.read",
                                   probe_span));
  double inflate_mb_s = 0;
  if (!files.inflate_path.empty()) {
    auto gz = nodb::InflateFile::Open(open(files.inflate_path));
    if (!gz.ok()) {
      fprintf(stderr, "perfbench: %s\n", gz.status().ToString().c_str());
      exit(2);
    }
    inflate_mb_s = SequentialMbPerS(ctx, **gz, "probe.inflate", probe_span);
  }
  ctx->report.Add("io.inflate_mb_s", inflate_mb_s);

  // Tokenize every line of the plain CSV with the active kernel table.
  auto csv = open(files.csv_path);
  std::string text(csv->size(), '\0');
  if (!csv->Read(0, text.size(), text.data()).ok()) {
    fprintf(stderr, "perfbench: cannot read %s\n", files.csv_path.c_str());
    exit(2);
  }
  const nodb::ParseKernels& kernels = nodb::ActiveKernels();
  const nodb::CsvDialect dialect;
  std::vector<uint32_t> starts(files.columns);
  std::vector<double> rates;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point t0 = Clock::now();
    uint64_t bad_lines = 0;
    for (size_t pos = 0; pos < text.size();) {
      const size_t len = kernels.find_newline(text.data() + pos, text.size() - pos);
      const int fields = kernels.csv_tokenize(
          std::string_view(text.data() + pos, len), dialect, files.columns - 1,
          starts.data());
      bad_lines += fields < files.columns ? 1 : 0;
      pos += len + 1;
    }
    const Clock::time_point t1 = Clock::now();
    ctx->tracer.Add(ctx->tracer.NewId(), probe_span, 0, "probe.tokenize", t0, t1);
    if (bad_lines > 0) {
      ctx->Fail("tokenize probe found " + std::to_string(bad_lines) +
                " short lines in " + files.csv_path);
    }
    rates.push_back(static_cast<double>(text.size()) / 1e6 / Seconds(t0, t1));
  }
  ctx->report.Add("raw.tokenize_mb_s", Median(rates));
  const Clock::time_point end = Clock::now();
  ctx->tracer.Add(probe_span, 0, 0, "probe", start, end);
  ctx->report.Add("self.probe_ms", Ms(Seconds(start, end)));
}

}  // namespace perfbench
