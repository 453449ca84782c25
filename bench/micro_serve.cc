// Serving-layer throughput sweep: a QueryServer fronting a warmed micro
// table, driven by 1/4/16 concurrent loopback clients each running the
// same selective warm scan back-to-back. Reports, per client count:
//
//   * queries/sec across all clients (wall-clock, full wire round trips),
//   * p50 and p99 per-query latency measured at the client,
//   * the direct Database::Query latency for the same statement, so the
//     1-client row isolates the protocol + socket overhead the service
//     front-end adds on top of the engine.
//
// All clients run warm: the table is fully scanned once before the sweep,
// so the positional map / cache serve every measured query and the sweep
// exercises the server path (sessions, admission, JSON framing), not the
// in-situ parse. The 16-client row saturates the default warm admission
// lane (max_warm = 16) without queueing.
//
// Writes BENCH_serve.json (machine-readable rows, each with its p50 over
// the direct latency, plus the scaling summary).
//
//   ./bench_micro_serve [--scale=F] [--seed=N]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common.h"
#include "server/server.h"
#include "util/str_conv.h"

using namespace nodb;
using namespace nodb::bench;

namespace {

/// Minimal blocking line client: one query round trip per call.
class BenchClient {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends `request` (newline-framed) and drains lines until the terminal
  /// status line. Returns false on socket failure or error status.
  bool RoundTrip(const std::string& request) {
    std::string framed = request + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    while (true) {
      size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        bool terminal = buf_.compare(0, 11, "{\"status\":\"") == 0;
        bool ok = terminal && buf_.compare(0, 14, "{\"status\":\"ok\"") == 0;
        if (terminal && !ok) {
          fprintf(stderr, "query failed: %.*s\n", static_cast<int>(nl),
                  buf_.c_str());
        }
        buf_.erase(0, nl + 1);
        if (terminal) return ok;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct SweepRow {
  int clients;
  uint64_t queries;
  double qps, p50_ms, p99_ms, p50_over_direct;
};

double Percentile(std::vector<double>* latencies_ms, double p) {
  if (latencies_ms->empty()) return 0;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  size_t idx = static_cast<size_t>(p * (latencies_ms->size() - 1) + 0.5);
  return (*latencies_ms)[std::min(idx, latencies_ms->size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);

  MicroDataSpec spec;
  spec.rows = static_cast<uint64_t>(200000 * args.scale);
  spec.cols = 5;
  spec.seed = args.seed;
  std::string csv = MicroCsv(spec, "serve");

  EngineConfig config = EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  Database db(config);
  OpenOptions options;
  options.schema = MicroSchema(spec);
  Status s = db.Open("t", csv, options);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Selective warm scan: touches 2 of 5 attributes, returns ~10% of rows.
  const std::string sql = "SELECT a2 FROM t WHERE a4 >= 900000000";

  // Warm the adaptive structures (and get the direct-path reference): the
  // first run is the cold in-situ parse, the best of the next three is the
  // engine-side warm latency every served query should be paying.
  (void)RunQuery(&db, sql);
  double direct_s = RunQuery(&db, sql);
  for (int r = 0; r < 2; ++r) direct_s = std::min(direct_s, RunQuery(&db, sql));

  QueryServer server(&db, ServerConfig{});
  s = server.Start();
  if (!s.ok()) {
    fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  PrintBanner("Query service throughput (concurrent loopback clients)",
              "not in the paper — the serving front-end must not squander "
              "what adaptive loading won: warm queries served over the wire "
              "should scale with client count until the warm admission lane "
              "saturates, with per-query latency near the direct engine path");
  printf("data: %llu rows x %d cols; warm selective scan (~10%% of rows); "
         "direct engine latency %.3f ms\n\n",
         static_cast<unsigned long long>(spec.rows), spec.cols,
         direct_s * 1e3);

  const int kItersPerClient = 40;
  const std::string request = "{\"q\":\"" + sql + "\"}";

  std::vector<SweepRow> rows;
  TextTable table({"clients", "queries", "qps", "p50 (ms)", "p99 (ms)",
                   "p50 vs direct"});
  for (int clients : {1, 4, 16}) {
    std::vector<std::thread> threads;
    std::vector<std::vector<double>> lat(clients);
    std::atomic<int> failures{0};
    const auto begin = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        BenchClient client;
        if (!client.Connect(server.port())) {
          failures.fetch_add(1);
          return;
        }
        lat[c].reserve(kItersPerClient);
        for (int i = 0; i < kItersPerClient; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          if (!client.RoundTrip(request)) {
            failures.fetch_add(1);
            return;
          }
          lat[c].push_back(
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count() *
              1e3);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    if (failures.load() != 0) {
      fprintf(stderr, "%d client(s) failed at concurrency %d\n",
              failures.load(), clients);
      return 1;
    }
    std::vector<double> all;
    for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    SweepRow row;
    row.clients = clients;
    row.queries = all.size();
    row.qps = static_cast<double>(all.size()) / wall;
    row.p50_ms = Percentile(&all, 0.50);
    row.p99_ms = Percentile(&all, 0.99);
    row.p50_over_direct = row.p50_ms / (direct_s * 1e3);
    rows.push_back(row);
    table.AddRow({std::to_string(clients), std::to_string(row.queries),
                  Fmt(row.qps, 1), Fmt(row.p50_ms), Fmt(row.p99_ms),
                  Fmt(row.p50_over_direct, 2) + "x"});
  }
  server.Stop();
  table.Print();

  double scaling = rows.back().qps / rows.front().qps;
  printf("\n16-client qps is %.2fx the 1-client qps; p50 vs direct is the "
         "wire + session + admission overhead per query.\n",
         scaling);

  FILE* f = fopen("BENCH_serve.json", "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  fprintf(f, "{\n  \"direct_ms\": %.3f,\n  \"rows\": [\n", direct_s * 1e3);
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    fprintf(f,
            "    {\"clients\": %d, \"queries\": %llu, \"qps\": %.1f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"p50_over_direct\": %.3f}%s\n",
            r.clients, static_cast<unsigned long long>(r.queries), r.qps,
            r.p50_ms, r.p99_ms, r.p50_over_direct,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(f, "  ],\n  \"summary\": {\"qps_scaling_16_over_1\": %.3f}\n}\n",
          scaling);
  fclose(f);
  printf("wrote BENCH_serve.json\n");
  return 0;
}
