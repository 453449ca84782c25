// Run bookkeeping: outcome accounting, percentiles, the result report,
// spans, layer counters, the hang watchdog and the self-test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include <unistd.h>

#include "bench.h"
#include "io/inflate_file.h"

namespace perfbench {

// ---------------------------------------------------------------- outcomes

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kError: return "error";
    case Outcome::kRefused: return "refused";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kWrong: return "wrong answer";
  }
  return "?";
}

void Tally::Record(Outcome outcome) {
  attempted_.fetch_add(1);
  if (outcome != Outcome::kOk) failed_.fetch_add(1);
}

double Tally::failed_frac() const {
  const uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(n);
}

void Context::Fail(const std::string& what) {
  fprintf(stderr, "perfbench: FAILED [workload=%s seed=%llu] %s\n",
          args.workload.c_str(), static_cast<unsigned long long>(args.seed),
          what.c_str());
  correct = false;
}

// ---------------------------------------------------------------- samples

namespace {

size_t NearestRank(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool PercentileSupported(size_t samples, double p) {
  return samples > 0 && samples - NearestRank(samples, p) >= 10;
}

// ---------------------------------------------------------------- report

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"first_query_s", "s"}, {"session_s", "s"},
    {"qps", "1/s"},           {"query_p50_ms", "ms"}, {"query_p95_ms", "ms"},
    {"aux_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"plan.query_ms", "ms"},
    {"exec.open_ms", "ms"},
    {"exec.drain_ms", "ms"},
    {"exec.rows_out", "count"},
    {"io.bytes_read", "bytes"},
    {"io.read_mb_s", "MB/s"},
    {"io.gz_bytes_inflated", "bytes"},
    {"io.gz_checkpoint_restarts", "count"},
    {"io.gz_full_restarts", "count"},
    {"io.gz_inflate_per_payload", "ratio"},
    {"io.inflate_mb_s", "MB/s"},
    {"raw.tokenize_mb_s", "MB/s"},
    {"raw.rows_parsed", "count"},
    {"raw.bytes_parsed", "bytes"},
    {"raw.parsed_per_read", "ratio"},
    {"pmap.lookups", "count"},
    {"pmap.hit_ratio", "ratio"},
    {"pmap.fragments_installed", "count"},
    {"pmap.mb", "MB"},
    {"cache.hit_ratio", "ratio"},
    {"cache.inserts", "count"},
    {"cache.evictions", "count"},
    {"cache.mb", "MB"},
    {"adaptive.cycle_ms", "ms"},
    {"adaptive.promotions", "count"},
    {"adaptive.promoted_mb", "MB"},
    {"adaptive.served_share", "ratio"},
    {"server.first_byte_ms", "ms"},
    {"server.stream_ms", "ms"},
    {"server.engine_p50_ms", "ms"},
    {"server.overhead_ms", "ms"},
    {"server.bytes_per_row", "bytes"},
    {"server.rejected", "count"},
    {"self.plan_ms", "ms"},
    {"self.open_ms", "ms"},
    {"self.drain_ms", "ms"},
    {"self.check_ms", "ms"},
    {"self.query_ms", "ms"},
    {"self.promote_ms", "ms"},
    {"self.probe_ms", "ms"},
    {"self.request_ms", "ms"},
    {"self.first_byte_ms", "ms"},
    {"self.stream_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.unaccounted_share", "ratio"},
};

void Report::Add(const std::string& name, double value) {
  for (const auto* defs : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& def : *defs) {
      if (name != def.name) continue;
      metrics_.push_back({name, std::isfinite(value) ? value : 0, def.unit});
      return;
    }
  }
  fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&name](const Metric& m) { return m.name == name; });
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(bool correct, const Tally& tally) const {
  for (const std::string& note : notes_) printf("%s\n", note.c_str());
  printf("failed_frac = %.6f fraction (%llu of %llu attempted)\n",
         tally.failed_frac(), static_cast<unsigned long long>(tally.failed()),
         static_cast<unsigned long long>(tally.attempted()));
  for (const Metric& m : metrics_) {
    printf("%-28s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
}

// ---------------------------------------------------------------- tracing

uint64_t Tracer::NewId() { return enabled() ? next_id_.fetch_add(1) : 0; }

void Tracer::Add(uint64_t id, uint64_t parent, uint64_t query,
                 const char* name, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, query, name, start, end});
}

void Tracer::AddCounters(uint64_t query, const std::string& counters_json) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.emplace_back(query, counters_json);
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent may run concurrently (the serve clients), so a
  // parent loses the union of its children's intervals, not their sum.
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, SelfTime> self;
  for (const Span& s : spans_) {
    double covered_ms = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<Interval>& parts = it->second;
      std::sort(parts.begin(), parts.end());
      Clock::time_point reach = s.start;
      for (const auto& [begin, end] : parts) {
        const Clock::time_point from = std::max(begin, reach);
        const Clock::time_point to = std::min(end, s.end);
        if (to > from) covered_ms += Seconds(from, to) * 1e3;
        reach = std::max(reach, to);
      }
    }
    SelfTime& t = self[s.name];
    t.ms += std::max(0.0, Seconds(s.start, s.end) * 1e3 - covered_ms);
    ++t.spans;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{}
                     : std::min_element(spans_.begin(), spans_.end(),
                                        [](const Span& a, const Span& b) {
                                          return a.start < b.start;
                                        })->start;
  for (const Span& s : spans_) {
    out << "{\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << ",\"name\":\"" << s.name
        << "\",\"start_us\":"
        << static_cast<int64_t>(Seconds(origin, s.start) * 1e6)
        << ",\"dur_us\":" << Seconds(s.start, s.end) * 1e6 << "}\n";
  }
  for (const auto& [query, json] : counters_) {
    out << "{\"query\":" << query << ",\"counters\":" << json << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- counters

Counters Counters::Read(nodb::Database* db) {
  Counters c;
  for (const nodb::TableInfo& info : db->ListTables()) {
    if (info.storage != nodb::TableStorage::kRaw) continue;
    c.bytes_read += info.bytes_read;
    c.gz_bytes_inflated += info.gz_bytes_inflated;
    c.pmap_bytes += info.pmap_bytes;
    c.cache_bytes += info.cache_bytes;
    c.promoted_bytes += info.promoted_bytes;
    nodb::TableRuntime* rt = db->runtime(info.name);
    if (rt == nullptr) continue;
    if (const nodb::InflateFile* gz = rt->adapter->file()->AsInflateFile()) {
      c.gz_checkpoint_restarts += gz->checkpoint_restarts();
      c.gz_full_restarts += gz->full_restarts();
    }
    if (rt->pmap != nullptr) {
      const auto pc = rt->pmap->counters();
      c.pmap_lookups += pc.lookups;
      c.pmap_hits += pc.exact_hits + pc.anchor_hits;
      c.pmap_fragments += pc.fragments_installed;
    }
    if (rt->cache != nullptr) {
      const auto cc = rt->cache->counters();
      c.cache_hits += cc.hits;
      c.cache_misses += cc.misses;
      c.cache_inserts += cc.inserts;
      c.cache_evictions += cc.evictions;
    }
    if (rt->access != nullptr) {
      for (const auto& a : rt->access->SnapshotAll()) {
        c.rows_parsed += a.rows_parsed;
        c.bytes_parsed += a.bytes_parsed;
        c.rows_from_cache += a.rows_from_cache;
        c.rows_from_promoted += a.rows_from_promoted;
      }
    }
    if (rt->promoted != nullptr) c.promotions += rt->promoted->counters().promotions;
  }
  return c;
}

Counters Counters::Since(const Counters& b) const {
  Counters d = *this;
  d.bytes_read -= b.bytes_read;
  d.gz_bytes_inflated -= b.gz_bytes_inflated;
  d.gz_checkpoint_restarts -= b.gz_checkpoint_restarts;
  d.gz_full_restarts -= b.gz_full_restarts;
  d.rows_parsed -= b.rows_parsed;
  d.bytes_parsed -= b.bytes_parsed;
  d.rows_from_cache -= b.rows_from_cache;
  d.rows_from_promoted -= b.rows_from_promoted;
  d.pmap_lookups -= b.pmap_lookups;
  d.pmap_hits -= b.pmap_hits;
  d.pmap_fragments -= b.pmap_fragments;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.cache_inserts -= b.cache_inserts;
  d.cache_evictions -= b.cache_evictions;
  d.promotions -= b.promotions;
  return d;
}

std::string Counters::ToJson() const {
  const std::pair<const char*, uint64_t> fields[] = {
      {"bytes_read", bytes_read},
      {"gz_bytes_inflated", gz_bytes_inflated},
      {"gz_checkpoint_restarts", gz_checkpoint_restarts},
      {"gz_full_restarts", gz_full_restarts},
      {"rows_parsed", rows_parsed},
      {"bytes_parsed", bytes_parsed},
      {"rows_from_cache", rows_from_cache},
      {"rows_from_promoted", rows_from_promoted},
      {"pmap_lookups", pmap_lookups},
      {"pmap_hits", pmap_hits},
      {"pmap_fragments", pmap_fragments},
      {"cache_hits", cache_hits},
      {"cache_misses", cache_misses},
      {"cache_inserts", cache_inserts},
      {"cache_evictions", cache_evictions},
      {"promotions", promotions},
      {"pmap_bytes", pmap_bytes},
      {"cache_bytes", cache_bytes},
      {"promoted_bytes", promoted_bytes},
  };
  std::string json = "{";
  for (const auto& [name, value] : fields) {
    if (json.size() > 1) json += ",";
    json += std::string("\"") + name + "\":" + std::to_string(value);
  }
  return json + "}";
}

double Counters::aux_mb() const {
  return static_cast<double>(pmap_bytes + cache_bytes + promoted_bytes) / 1e6;
}

// ---------------------------------------------------------------- watchdog

Watchdog::Watchdog(std::string workload, uint64_t seed, double query_limit_s,
                   double run_limit_s)
    : workload_(std::move(workload)),
      seed_(seed),
      query_limit_s_(query_limit_s),
      run_limit_s_(run_limit_s),
      run_start_(Clock::now()),
      thread_([this] { Loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Enter(const std::string& query, double limit_s) {
  std::lock_guard<std::mutex> lock(mu_);
  query_ = query;
  limit_s_ = limit_s > 0 ? limit_s : query_limit_s_;
  query_start_ = Clock::now();
  in_query_ = true;
}

void Watchdog::Leave() {
  std::lock_guard<std::mutex> lock(mu_);
  in_query_ = false;
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                       [this] { return stop_; })) {
    const Clock::time_point now = Clock::now();
    const bool query_hung = in_query_ && Seconds(query_start_, now) > limit_s_;
    if (!query_hung && Seconds(run_start_, now) <= run_limit_s_) continue;
    const std::string where = in_query_ ? "query " + query_ : "between queries";
    fprintf(stderr,
            "perfbench: HANG [workload=%s seed=%llu] %s did not finish "
            "within %.0f s (%s); aborting without a result\n",
            workload_.c_str(), static_cast<unsigned long long>(seed_),
            query_hung ? where.c_str() : "the run",
            query_hung ? limit_s_ : run_limit_s_,
            query_hung ? "query limit" : where.c_str());
    fflush(stderr);
    _exit(3);
  }
}

// ---------------------------------------------------------------- self-test

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      fprintf(stderr, "perfbench self-test failed: %s\n", what);
      ++failures;
    }
  };
  // Percentile rule: at least ten samples beyond the reported percentile.
  expect(PercentileSupported(200, 0.95), "p95 is reportable from 200 samples");
  expect(!PercentileSupported(199, 0.95), "p95 needs 200 samples");
  expect(PercentileSupported(20, 0.50), "p50 is reportable from 20 samples");
  expect(!PercentileSupported(19, 0.50), "p50 needs 20 samples");
  expect(!PercentileSupported(0, 0.50), "no percentile without samples");
  std::vector<double> ramp;
  for (int i = 1; i <= 200; ++i) ramp.push_back(i);
  std::reverse(ramp.begin(), ramp.end());
  expect(Percentile(ramp, 0.95) == 190, "nearest-rank p95 of 1..200 is 190");
  expect(Percentile(ramp, 0.50) == 100, "nearest-rank p50 of 1..200 is 100");
  size_t beyond = 0;
  for (double v : ramp) beyond += v > Percentile(ramp, 0.95) ? 1 : 0;
  expect(beyond == 10, "ten samples lie beyond p95 of 200");
  expect(Median({3, 1, 2, 4}) == 2.5, "median of an even sample");
  // failed_frac: every failure kind counts once against attempted.
  Tally tally;
  expect(tally.failed_frac() == 0, "empty tally has failed_frac 0");
  for (Outcome o : {Outcome::kOk, Outcome::kOk, Outcome::kError,
                    Outcome::kRefused, Outcome::kTimeout, Outcome::kWrong}) {
    tally.Record(o);
  }
  expect(tally.attempted() == 6, "every outcome counts as attempted");
  expect(tally.failed() == 4, "error/refused/timeout/wrong count as failed");
  expect(std::fabs(tally.failed_frac() - 4.0 / 6.0) < 1e-12,
         "failed_frac is failed over attempted");
  // Answer digests: order-insensitive unless ordered, tolerant on doubles.
  auto answer = [](bool ordered, std::vector<double> values) {
    AnswerCollector b(ordered);
    for (double v : values) b.Add({Cell::FromDouble(v)});
    return b.Finish();
  };
  std::string why;
  expect(Matches(answer(false, {1, 2.5}), answer(false, {2.5, 1}), &why),
         "unordered answers ignore row order");
  expect(!Matches(answer(true, {1, 2.5}), answer(true, {2.5, 1}), &why),
         "ordered answers check row order");
  expect(Matches(answer(false, {0.1 + 0.2}), answer(false, {0.3}), &why),
         "doubles compare with a relative tolerance");
  expect(!Matches(answer(false, {1, 2}), answer(false, {1, 3}), &why),
         "a changed value is a mismatch");
  AnswerCollector parsed(false);
  expect(ParseResponseRows("{\"schema\":[]}\n{\"rows\":[[1,\"a\\\"b\",null],"
                           "[2.5,true,-3]]}\n",
                           &parsed),
         "server row lines parse");
  AnswerCollector direct(false);
  Cell text;
  text.kind = Cell::kText;
  text.s = "a\"b";
  direct.Add({Cell::FromDouble(1), text, Cell{}});
  direct.Add({Cell::FromDouble(2.5), Cell::FromDouble(1), Cell::FromDouble(-3)});
  expect(Matches(parsed.Finish(), direct.Finish(), &why),
         "parsed server rows equal the direct cells");
  return failures;
}

}  // namespace perfbench
