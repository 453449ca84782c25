// Workload `serve`: a warm QueryServer over loopback newline-JSON, driven by
// two closed-loop clients (each connection also takes a session thread in
// the same process, so four busy threads on a four-core machine). The table
// fits in the column cache, so the parse layers do almost nothing; server,
// protocol, planning and cache-served execution do the work. The request
// mix is round-robin over three shapes:
//   scan10  a projection returning ~10% of rows (JSON framing dominates),
//   agg     a filtered COUNT/SUM returning one row (the engine dominates),
//   point   a filter returning a few rows (plan, admission and session
//           costs dominate).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "engine/engines.h"
#include "server/server.h"
#include "util/rng.h"
#include "workload/micro.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 40000;
constexpr int kCols = 6;
constexpr int kVariantsPerShape = 16;
constexpr int kClients = 2;
constexpr int kSetups = 9;
constexpr size_t kMinRequests = 200;
constexpr int kRecvTimeoutS = 40;
const char* const kShapes[] = {"scan10", "agg", "point"};

/// One distinct request: its SQL, the request line and the checked answer.
struct Request {
  std::string label;
  std::string line;
  QuerySpec direct;
};

/// Blocking newline-JSON client: one request, then lines until the
/// terminal status line.
class Client {
 public:
  struct Reply {
    std::string body;      // every line before the terminal one
    std::string terminal;  // the status line ("" when the socket failed)
    bool timed_out = false;
    Clock::time_point sent, first_byte, end;
  };

  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{kRecvTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  void RoundTrip(const std::string& line, Reply* reply) {
    *reply = Reply{};
    reply->sent = Clock::now();
    for (size_t off = 0; off < line.size();) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
    bool first = true;
    while (true) {
      for (size_t nl; (nl = buf_.find('\n')) != std::string::npos;) {
        if (buf_.compare(0, 10, "{\"status\":") == 0) {
          reply->terminal = buf_.substr(0, nl);
          buf_.erase(0, nl + 1);
          reply->end = Clock::now();
          return;
        }
        reply->body.append(buf_, 0, nl + 1);
        buf_.erase(0, nl + 1);
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        reply->timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        reply->end = Clock::now();
        return;
      }
      if (first) {
        reply->first_byte = Clock::now();
        first = false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Checks served replies: the first reply of each request is parsed and
/// compared with the checked direct-API answer; later replies must repeat
/// its bytes exactly.
class Verifier {
 public:
  explicit Verifier(const std::vector<Request>* requests)
      : requests_(requests), body_hash_(requests->size(), 0) {}

  Outcome Check(size_t index, const Client::Reply& reply, std::string* why) {
    if (reply.terminal.empty()) {
      *why = reply.timed_out ? "no reply within the receive timeout"
                             : "connection failed";
      return reply.timed_out ? Outcome::kTimeout : Outcome::kError;
    }
    if (reply.terminal.compare(0, 14, "{\"status\":\"ok\"") != 0) {
      *why = reply.terminal;
      if (reply.terminal.find("\"ResourceExhausted\"") != std::string::npos) {
        return Outcome::kRefused;
      }
      if (reply.terminal.find("\"DeadlineExceeded\"") != std::string::npos) {
        return Outcome::kTimeout;
      }
      return Outcome::kError;
    }
    const uint64_t hash = HashBytes(reply.body);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (body_hash_[index] != 0) {
        if (hash == body_hash_[index]) return Outcome::kOk;
        *why = "reply bytes differ from the verified reply";
        return Outcome::kWrong;
      }
    }
    AnswerCollector got((*requests_)[index].direct.expected.ordered);
    if (!ParseResponseRows(reply.body, &got)) {
      *why = "malformed row lines";
      return Outcome::kWrong;
    }
    if (!Matches(got.Finish(), (*requests_)[index].direct.expected, why)) {
      return Outcome::kWrong;
    }
    std::lock_guard<std::mutex> lock(mu_);
    body_hash_[index] = hash;
    return Outcome::kOk;
  }

 private:
  const std::vector<Request>* requests_;
  std::mutex mu_;
  std::vector<uint64_t> body_hash_;  // guarded by mu_; 0 = not verified yet
};

/// Checks one served reply and counts it.
Outcome Record(Context* ctx, Verifier* verifier,
               const std::vector<Request>& reqs, size_t index,
               const Client::Reply& reply) {
  std::string why;
  const Outcome outcome = verifier->Check(index, reply, &why);
  ctx->tally.Record(outcome);
  if (outcome != Outcome::kOk) {
    ctx->Fail(std::string(OutcomeName(outcome)) + " on served request " +
              reqs[index].label + ": " + why);
  }
  return outcome;
}

/// A Database with the table open and warm, and a started server.
struct Instance {
  std::unique_ptr<nodb::Database> db;
  std::unique_ptr<nodb::QueryServer> server;  // declared last: stops first
};

struct LoopResult {
  double wall_s = 0;
  uint64_t ok = 0;
  std::vector<double> latency_ms, first_byte_ms, stream_ms;
};

/// Closed loop: each client sends its next request when the previous reply
/// has arrived, round-robin over the shapes, until `seconds` have passed and
/// at least kMinRequests completed.
LoopResult RunLoop(Context* ctx, Verifier* verifier,
                   const std::vector<Request>& reqs, int port, double seconds) {
  std::vector<LoopResult> per(kClients);
  std::atomic<uint64_t> completed{0};
  Tracer& tracer = ctx->tracer;
  const uint64_t loop_span = tracer.NewId();
  const Clock::time_point start = Clock::now();
  ctx->watchdog->Enter("serve loop", seconds + 3 * kRecvTimeoutS);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect(port)) {
        ctx->tally.Record(Outcome::kError);
        ctx->Fail("client cannot connect to the server");
        return;
      }
      nodb::Rng rng(ctx->args.seed * 31 + static_cast<uint64_t>(c));
      LoopResult& r = per[c];
      Client::Reply reply;
      for (uint64_t i = 0;; ++i) {
        if (Seconds(start, Clock::now()) >= seconds &&
            completed.load() >= kMinRequests) {
          break;
        }
        const size_t shape = (i + static_cast<uint64_t>(c)) % std::size(kShapes);
        const size_t index =
            shape * kVariantsPerShape + rng.Uniform(0, kVariantsPerShape - 1);
        client.RoundTrip(reqs[index].line, &reply);
        const uint64_t id = tracer.NewId();
        if (!reply.terminal.empty()) {
          const Clock::time_point fb =
              reply.first_byte == Clock::time_point{} ? reply.end
                                                      : reply.first_byte;
          tracer.Add(tracer.NewId(), id, id, "first_byte", reply.sent, fb);
          tracer.Add(tracer.NewId(), id, id, "stream", fb, reply.end);
        }
        tracer.Add(id, loop_span, id, "request", reply.sent, reply.end);
        if (Record(ctx, verifier, reqs, index, reply) != Outcome::kOk) {
          if (reply.terminal.empty()) return;  // the connection is gone
          continue;
        }
        const Clock::time_point fb = reply.first_byte;
        r.latency_ms.push_back(Seconds(reply.sent, reply.end) * 1e3);
        r.first_byte_ms.push_back(Seconds(reply.sent, fb) * 1e3);
        r.stream_ms.push_back(Seconds(fb, reply.end) * 1e3);
        ++r.ok;
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ctx->watchdog->Leave();
  const Clock::time_point end = Clock::now();
  tracer.Add(loop_span, 0, 0, "serve_loop", start, end);
  LoopResult all;
  all.wall_s = Seconds(start, end);
  for (LoopResult& r : per) {
    all.ok += r.ok;
    for (auto [to, from] : {std::pair{&all.latency_ms, &r.latency_ms},
                            std::pair{&all.first_byte_ms, &r.first_byte_ms},
                            std::pair{&all.stream_ms, &r.stream_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  return all;
}

}  // namespace

int RunServe(Context* ctx) {
  nodb::MicroDataSpec spec;
  spec.rows = kRows;
  spec.cols = kCols;
  spec.seed = ctx->args.seed;
  const std::string csv = ctx->args.data_dir + "/serve.csv";
  if (!nodb::GenerateWideCsv(csv, spec).ok()) {
    fprintf(stderr, "perfbench: cannot write %s\n", csv.c_str());
    return 2;
  }
  const nodb::Schema schema = nodb::MicroSchema(spec);

  // The seeded request variants, with answers from the reference engine.
  auto reference = nodb::MakeEngine(nodb::SystemUnderTest::kDbmsX);
  if (!reference->LoadCsv("t", csv, schema).ok()) {
    fprintf(stderr, "perfbench: reference load failed\n");
    return 2;
  }
  nodb::Rng rng(ctx->args.seed * 104729 + 3);
  const int64_t point_width = 3 * 1000000000LL / static_cast<int64_t>(kRows);
  std::vector<Request> reqs;
  for (const char* shape : kShapes) {
    for (int v = 0; v < kVariantsPerShape; ++v) {
      std::string sql;
      if (std::string(shape) == "scan10") {
        sql = "SELECT a1, a2, a3 FROM t WHERE a4 >= " +
              std::to_string(rng.Uniform(880000000, 920000000));
      } else if (std::string(shape) == "agg") {
        sql = "SELECT COUNT(*), SUM(a2), MIN(a3), MAX(a5) FROM t WHERE a6 < " +
              std::to_string(rng.Uniform(100000000, 900000000));
      } else {
        const int64_t lo = rng.Uniform(0, 999999999 - point_width);
        sql = "SELECT a1, a2, a3, a4, a5, a6 FROM t WHERE a1 >= " +
              std::to_string(lo) + " AND a1 < " +
              std::to_string(lo + point_width);
      }
      Request r;
      r.label = std::string(shape) + ".v" + std::to_string(v);
      r.line = "{\"q\":\"" + sql + "\",\"deadline_ms\":" +
               std::to_string(std::chrono::milliseconds(kQueryDeadline).count()) +
               ",\"id\":\"" + r.label + "\"}\n";
      r.direct = {r.label, sql, ReferenceAnswer(reference.get(), sql)};
      reqs.push_back(std::move(r));
    }
  }
  std::string warm_sql = "SELECT COUNT(*) FROM t WHERE a1 >= 0";
  for (int c = 2; c <= kCols; ++c) warm_sql += " AND a" + std::to_string(c) + " >= 0";
  const QuerySpec warm{"warmup", warm_sql,
                       ReferenceAnswer(reference.get(), warm_sql)};
  reference.reset();
  Verifier verifier(&reqs);

  // Setup: empty Database → Open → warm the cache → server start → one
  // served request per shape. Repeated; the last instance serves the loop.
  const nodb::EngineConfig config =
      nodb::EngineConfig::ForSystem(nodb::SystemUnderTest::kPostgresRawPMC);
  const int setups = ctx->args.trace ? 1 : kSetups;
  std::vector<double> setup_s, first_query_s;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < setups; ++i) {
    inst.reset();
    inst = std::make_unique<Instance>();
    const Clock::time_point s0 = Clock::now();
    inst->db = std::make_unique<nodb::Database>(config);
    nodb::OpenOptions options;
    options.schema = schema;
    if (!inst->db->Open("t", csv, options).ok()) {
      fprintf(stderr, "perfbench: open failed\n");
      return 2;
    }
    QueryTiming timing;
    RunDirect(ctx, inst->db.get(), warm, 0, &timing);
    inst->server = std::make_unique<nodb::QueryServer>(inst->db.get(),
                                                       nodb::ServerConfig{});
    if (!inst->server->Start().ok()) {
      fprintf(stderr, "perfbench: server start failed\n");
      return 2;
    }
    Client client;
    if (!client.Connect(inst->server->port())) {
      fprintf(stderr, "perfbench: cannot connect to the server\n");
      return 2;
    }
    std::vector<Client::Reply> warm_replies(std::size(kShapes));
    for (size_t s = 0; s < std::size(kShapes); ++s) {
      client.RoundTrip(reqs[s * kVariantsPerShape].line, &warm_replies[s]);
    }
    const Clock::time_point s1 = Clock::now();
    setup_s.push_back(Seconds(s0, s1));
    for (size_t s = 0; s < std::size(kShapes); ++s) {
      Record(ctx, &verifier, reqs, s * kVariantsPerShape, warm_replies[s]);
    }
    // The first query after setup: a served scan10 on a fresh variant.
    Client::Reply reply;
    client.RoundTrip(reqs[1].line, &reply);
    first_query_s.push_back(Seconds(reply.sent, reply.end));
    Record(ctx, &verifier, reqs, 1, reply);
  }

  // Verify every distinct request, direct and served, before measuring.
  {
    Client client;
    if (!client.Connect(inst->server->port())) {
      fprintf(stderr, "perfbench: cannot connect to the server\n");
      return 2;
    }
    Client::Reply reply;
    for (size_t i = 0; i < reqs.size(); ++i) {
      QueryTiming timing;
      RunDirect(ctx, inst->db.get(), reqs[i].direct, 0, &timing);
      client.RoundTrip(reqs[i].line, &reply);
      Record(ctx, &verifier, reqs, i, reply);
    }
  }

  nodb::QueryServer& server = *inst->server;
  if (!ctx->args.trace) {
    const LoopResult loop =
        RunLoop(ctx, &verifier, reqs, server.port(), ctx->args.seconds);
    const size_t n = loop.latency_ms.size();
    if (!PercentileSupported(n, 0.95)) {
      fprintf(stderr, "perfbench: %zu request samples cannot support p95\n", n);
      return 2;
    }
    ctx->report.Add("setup_s", Median(setup_s));
    ctx->report.Add("first_query_s", Median(first_query_s));
    ctx->report.Add("session_s", loop.wall_s);
    ctx->report.Add("qps", static_cast<double>(loop.ok) / loop.wall_s);
    ctx->report.Add("query_p50_ms", Percentile(loop.latency_ms, 0.50));
    ctx->report.Add("query_p95_ms", Percentile(loop.latency_ms, 0.95));
    ctx->report.Add("aux_mb", Counters::Read(inst->db.get()).aux_mb());
    ctx->report.Note("samples: setup_s n=" + std::to_string(setup_s.size()) +
                     ", first_query_s n=" + std::to_string(first_query_s.size()) +
                     ", query_p50_ms/query_p95_ms n=" + std::to_string(n) +
                     " (" + std::to_string(kClients) + " closed-loop clients)");
    return 0;
  }

  // Traced run: half the time untraced, half traced, then a traced
  // direct-API pass over every distinct request for the plan/exec layers.
  const double half = std::max(1.0, ctx->args.seconds / 2.0);
  const LoopResult untraced = RunLoop(ctx, &verifier, reqs, server.port(), half);
  ctx->tracer.SetEnabled(true);
  const Counters before = Counters::Read(inst->db.get());
  const nodb::ServerStats stats0 = server.Stats();
  const LoopResult traced = RunLoop(ctx, &verifier, reqs, server.port(), half);
  const nodb::ServerStats stats1 = server.Stats();
  const Counters delta = Counters::Read(inst->db.get()).Since(before);

  std::vector<QueryTiming> timings;
  uint64_t rows_out = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Request& r : reqs) {
      QueryTiming timing;
      RunDirect(ctx, inst->db.get(), r.direct, 0, &timing);
      timings.push_back(timing);
      if (pass == 0) rows_out += timing.rows;
    }
  }
  ReportExecLayers(ctx, timings);
  ctx->report.Add("exec.rows_out", static_cast<double>(rows_out));
  ReportCounterLayers(ctx, delta, 0);
  const double client_p50 = Percentile(traced.latency_ms, 0.50);
  const double rows =
      static_cast<double>(stats1.rows_streamed - stats0.rows_streamed);
  ctx->report.Add("server.first_byte_ms", Percentile(traced.first_byte_ms, 0.50));
  ctx->report.Add("server.stream_ms", Percentile(traced.stream_ms, 0.50));
  ctx->report.Add("server.engine_p50_ms", stats1.p50_ms);
  ctx->report.Add("server.overhead_ms", client_p50 - stats1.p50_ms);
  ctx->report.Add(
      "server.bytes_per_row",
      rows == 0 ? 0
                : static_cast<double>(stats1.bytes_streamed -
                                      stats0.bytes_streamed) /
                      rows);
  ctx->report.Add("server.rejected", static_cast<double>(
                                         stats1.queries_rejected -
                                         stats0.queries_rejected));
  ctx->report.Add("trace.overhead",
                  (static_cast<double>(untraced.ok) / untraced.wall_s) /
                      (static_cast<double>(traced.ok) / traced.wall_s));
  ReportSelfTimes(ctx);
  ProbeFiles probes;
  probes.read_path = csv;
  probes.csv_path = csv;
  probes.columns = kCols;
  RunProbes(ctx, probes);
  return 0;
}

}  // namespace perfbench
