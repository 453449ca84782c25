#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/engines.h"
#include "json/json_text.h"
#include "pmap/positional_map.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/fs_util.h"
#include "workload/micro.h"

namespace nodb {
namespace {

// =====================================================================
// The query service, tested the way it will be abused: many concurrent
// clients over real sockets against warming in-situ tables, mid-stream
// disconnects, CANCEL verbs, deadlines, and admission overflow. Every
// result a client receives is compared against the direct Database::Query
// path — the server is a transport, it must never change an answer.
// Runs under TSan/ASan in CI (label: unit).
// =====================================================================

// ------------------------------------------------------------------ client

/// Minimal blocking line-oriented test client.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() { Close(); }

  bool connected() const { return connected_; }

  /// Abrupt close — no QUIT, no drain; what a crashed client looks like.
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool Send(const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next response line, or false on EOF / 10s of silence.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, /*timeout_ms=*/10000);
      if (ready <= 0) return false;
      char chunk[8192];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

struct Exchange {
  bool transport_ok = false;  // all lines arrived
  std::string schema;
  std::vector<std::string> row_lines;  // the raw {"rows":...} lines
  std::string terminal;                // the {"status":...} line
};

/// One full query round trip over an open client.
Exchange RunQuery(TestClient* client, const std::string& sql,
                  int64_t deadline_ms = 0) {
  Exchange ex;
  std::string req = "{\"q\":";
  AppendJsonQuoted(&req, sql);
  if (deadline_ms > 0) {
    req += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  req += "}";
  if (!client->Send(req)) return ex;
  std::string line;
  while (client->ReadLine(&line)) {
    if (line.find("\"status\"") != std::string::npos) {
      ex.terminal = line;
      ex.transport_ok = true;
      return ex;
    }
    if (line.find("\"schema\"") != std::string::npos) {
      ex.schema = line;
    } else {
      ex.row_lines.push_back(line);
    }
  }
  return ex;
}

bool IsOk(const Exchange& ex) {
  return ex.transport_ok &&
         ex.terminal.find("\"status\":\"ok\"") != std::string::npos;
}

bool IsErrorCode(const Exchange& ex, const std::string& code) {
  return ex.transport_ok &&
         ex.terminal.find("\"code\":\"" + code + "\"") != std::string::npos;
}

/// Joins the row arrays of `{"rows":[...]}` lines into one framing-free
/// byte string — batch boundaries may legitimately differ between a cold
/// parse and a cache-served rescan, the row bytes may not.
std::string JoinRowLines(const std::vector<std::string>& row_lines) {
  std::string joined;
  for (const std::string& line : row_lines) {
    constexpr std::string_view kPrefix = "{\"rows\":[";
    constexpr std::string_view kSuffix = "]}";
    EXPECT_EQ(line.substr(0, kPrefix.size()), kPrefix) << line;
    if (line.size() < kPrefix.size() + kSuffix.size()) continue;
    std::string_view body(line);
    body.remove_prefix(kPrefix.size());
    body.remove_suffix(kSuffix.size());
    if (!joined.empty() && !body.empty()) joined.push_back(',');
    joined.append(body);
  }
  return joined;
}

/// The reference serialization: drains a direct Database::Query cursor
/// through the same wire formatter the server uses. Server responses must
/// be byte-identical to this, modulo batch framing.
std::string DirectWireRows(Database* db, const std::string& sql,
                           std::string* schema_line) {
  std::vector<std::string> lines;
  auto cursor = db->Query(sql);
  EXPECT_TRUE(cursor.ok()) << sql << "\n" << cursor.status();
  if (!cursor.ok()) return "";
  *schema_line = SchemaLine(cursor->schema());
  schema_line->pop_back();  // strip the trailing newline for comparison
  RowBatch batch = cursor->MakeBatch();
  while (true) {
    auto n = cursor->Next(&batch);
    EXPECT_TRUE(n.ok()) << sql << "\n" << n.status();
    if (!n.ok() || *n == 0) break;
    std::string line;
    AppendBatchLine(&line, batch, *n);
    line.pop_back();
    lines.push_back(std::move(line));
  }
  return JoinRowLines(lines);
}

// ------------------------------------------------------------------ setup

struct ServedDb {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryServer> server;  // before db: destroyed first
  std::unique_ptr<TempDir> dir;
};

/// One raw CSV table `t` and its relationally-equal JSONL twin `tj`,
/// both registered in situ and cold, served on an ephemeral port.
ServedDb Serve(uint64_t rows, ServerConfig config = ServerConfig{},
               EngineConfig engine_cfg =
                   EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC)) {
  ServedDb s;
  s.dir = std::make_unique<TempDir>();
  MicroDataSpec spec;
  spec.rows = rows;
  spec.cols = 6;
  spec.seed = 20260807;
  std::string csv = s.dir->File("t.csv");
  std::string jsonl = s.dir->File("t.jsonl");
  EXPECT_TRUE(GenerateWideCsv(csv, spec).ok());
  EXPECT_TRUE(GenerateWideJsonl(jsonl, spec).ok());
  s.db = std::make_unique<Database>(engine_cfg);
  EXPECT_TRUE(s.db->RegisterCsv("t", csv, MicroSchema(spec)).ok());
  EXPECT_TRUE(s.db->Open("tj", jsonl).ok());
  s.server = std::make_unique<QueryServer>(s.db.get(), config);
  EXPECT_TRUE(s.server->Start().ok());
  return s;
}

/// Spins until `pred(stats)` holds (10s cap) — for draining races where the
/// client saw its terminal line but the session hasn't parked yet.
bool WaitForStats(QueryServer* server,
                  const std::function<bool(const ServerStats&)>& pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred(server->Stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// ------------------------------------------------------------------ tests

TEST(ServerProtocol, ParseRequestForms) {
  auto q = ParseRequest("{\"q\": \"SELECT 1\", \"deadline_ms\": 250, "
                        "\"id\": \"abc\", \"future_key\": [1,2]}");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, Request::Kind::kQuery);
  EXPECT_EQ(q->sql, "SELECT 1");
  EXPECT_EQ(q->deadline_ms, 250);
  EXPECT_EQ(q->id, "abc");

  auto stats = ParseRequest("  stats  ");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->kind, Request::Kind::kStats);
  auto cancel = ParseRequest("{\"op\": \"cancel\"}");
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->kind, Request::Kind::kCancel);

  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(ParseRequest("{\"deadline_ms\": 5}").ok());  // no q/op
  EXPECT_FALSE(ParseRequest("{\"q\": 42}").ok());           // not a string
  EXPECT_FALSE(ParseRequest("{\"q\": \"SELECT 1\"").ok());  // unterminated
  EXPECT_FALSE(ParseRequest("{\"deadline_ms\": -1, \"q\": \"x\"}").ok());
  EXPECT_FALSE(ParseRequest("EXPLODE").ok());
}

TEST(ServerAdmission, OverflowRejectsAndShutdownWakes) {
  AdmissionConfig cfg;
  cfg.max_cold = 1;
  cfg.cold_queue_limit = 1;
  AdmissionController ac(cfg);

  auto first = ac.Admit(/*cold=*/true, nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(ac.active(true), 1);

  // Queue slot 1: a waiter parks. Fill it from another thread, then a third
  // request must be rejected immediately (queue at bound).
  std::atomic<bool> waiter_done{false};
  std::atomic<bool> release_ok{false};
  Status waiter_status;
  std::thread waiter([&] {
    auto t = ac.Admit(true, nullptr);
    waiter_status = t.ok() ? Status::OK() : t.status();
    waiter_done.store(true);
    // Hold the ticket (RAII) until the main thread is done asserting.
    while (!release_ok.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (ac.queued(true) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto overflow = ac.Admit(true, nullptr);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);

  // Releasing the slot admits the queued waiter.
  first->Release();
  while (!waiter_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(waiter_status.ok()) << waiter_status;
  EXPECT_EQ(ac.active(true), 1);

  // A cancelled control aborts a queued wait with the cancel error (the
  // waiter still holds the lane's only slot).
  auto control = std::make_shared<ExecControl>();
  control->cancelled.store(true);
  auto cancelled = ac.Admit(true, control);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  release_ok.store(true);
  waiter.join();

  // Shutdown fails new admissions.
  ac.Shutdown();
  auto after = ac.Admit(false, nullptr);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
}

TEST(ServerDirectApi, ExecuteHonorsDeadlineAndCancel) {
  // Satellite regression: Execute() used to drop the caller's ExecOptions
  // entirely. Both Query and Execute now honor QueryOptions.
  TempDir dir;
  MicroDataSpec spec;
  spec.rows = 20000;
  spec.cols = 6;
  std::string csv = dir.File("t.csv");
  ASSERT_TRUE(GenerateWideCsv(csv, spec).ok());
  Database db(EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC));
  ASSERT_TRUE(db.RegisterCsv("t", csv, MicroSchema(spec)).ok());

  QueryOptions expired;
  expired.deadline = std::chrono::steady_clock::now();  // already past
  auto r = db.Execute("SELECT SUM(a2) FROM t", expired);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status();

  QueryOptions cancelled;
  cancelled.control = std::make_shared<ExecControl>();
  cancelled.control->cancelled.store(true);
  auto c = db.Execute("SELECT SUM(a2) FROM t", cancelled);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCancelled) << c.status();

  // A cursor already streaming reacts to a cancel flipped mid-flight.
  QueryOptions streaming;
  streaming.control = std::make_shared<ExecControl>();
  streaming.batch_size = 16;
  auto cursor = db.Query("SELECT a1 FROM t WHERE a1 >= 0", streaming);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  RowBatch batch = cursor->MakeBatch();
  auto first = cursor->Next(&batch);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(*first, 0u);
  streaming.control->cancelled.store(true);
  Result<size_t> next = cursor->Next(&batch);
  while (next.ok() && *next > 0) next = cursor->Next(&batch);  // bounded
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCancelled) << next.status();

  // And the options-free paths still work.
  auto plain = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(plain.ok()) << plain.status();
}

TEST(ServerTest, RoundTripAndVerbs) {
  ServedDb s = Serve(2000);
  TestClient client(s.server->port());
  ASSERT_TRUE(client.connected());

  Exchange ex = RunQuery(&client, "SELECT COUNT(*), SUM(a1) FROM t");
  ASSERT_TRUE(IsOk(ex)) << ex.terminal;
  EXPECT_EQ(ex.row_lines.size(), 1u);
  EXPECT_NE(ex.terminal.find("\"rows\":1"), std::string::npos);
  EXPECT_NE(ex.terminal.find("\"cold\":true"), std::string::npos);

  // Same query again: the table is warm now.
  ex = RunQuery(&client, "SELECT COUNT(*), SUM(a1) FROM t");
  ASSERT_TRUE(IsOk(ex));
  EXPECT_NE(ex.terminal.find("\"cold\":false"), std::string::npos);

  // PING, STATS, a malformed line (connection survives), and a SQL error.
  std::string line;
  ASSERT_TRUE(client.Send("PING"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("pong"), std::string::npos);
  ASSERT_TRUE(client.Send("STATS"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("\"queries_finished\":2"), std::string::npos) << line;
  ASSERT_TRUE(client.Send("this is not a request"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("InvalidArgument"), std::string::npos);
  Exchange bad = RunQuery(&client, "SELECT nope FROM t");
  ASSERT_TRUE(bad.transport_ok);
  EXPECT_NE(bad.terminal.find("\"status\":\"error\""), std::string::npos);

  // The connection still serves queries after both error shapes.
  ex = RunQuery(&client, "SELECT COUNT(*) FROM tj");
  EXPECT_TRUE(IsOk(ex)) << ex.terminal;
}

/// Replaces the value of every `"key":<number>` in `line` with `#`, for
/// the keys listed (values that depend on timing or on temp-dir paths).
std::string MaskNumbers(std::string line,
                        std::initializer_list<std::string_view> keys) {
  for (std::string_view key : keys) {
    const std::string tag = "\"" + std::string(key) + "\":";
    for (size_t at = line.find(tag); at != std::string::npos;
         at = line.find(tag, at + 1)) {
      const size_t begin = at + tag.size();
      size_t end = begin;
      while (end < line.size() &&
             std::string_view("0123456789.-+eE").find(line[end]) !=
                 std::string_view::npos) {
        ++end;
      }
      line.replace(begin, end - begin, "#");
    }
  }
  return line;
}

TEST(ServerTest, StatsLineIsPinnedForSnapshottedPromotedTable) {
  // The full STATS payload for a fixed table that was restored from a
  // snapshot and then promoted: every key, its order and its value, with
  // only latency and path-dependent snapshot sizes masked.
  TempDir dir;
  MicroDataSpec spec;
  spec.rows = 5000;
  spec.cols = 3;
  spec.seed = 20260807;
  const std::string csv = dir.File("t.csv");
  ASSERT_TRUE(GenerateWideCsv(csv, spec).ok());
  EngineConfig cfg = EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  cfg.snapshot_dir = dir.File("snaps");
  cfg.promotion.enabled = true;
  cfg.promotion.min_scans = 2;
  {
    Database warm(cfg);
    ASSERT_TRUE(warm.RegisterCsv("t", csv, MicroSchema(spec)).ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(warm.Execute("SELECT SUM(a1), SUM(a2) FROM t").ok());
    }
    ASSERT_TRUE(warm.Snapshot("t").ok());
  }
  Database db(cfg);
  ASSERT_TRUE(db.RegisterCsv("t", csv, MicroSchema(spec)).ok());
  auto report = db.RunPromotionCycle("t");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->promoted, (std::vector<int>{0, 1}));

  QueryServer server(&db, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(IsOk(RunQuery(&client, "SELECT SUM(a1) FROM t")));
  std::string line;
  ASSERT_TRUE(client.Send("STATS"));
  ASSERT_TRUE(client.ReadLine(&line));
  // bytes_streamed includes the terminal line, whose "seconds" varies.
  EXPECT_EQ(MaskNumbers(line, {"bytes_streamed", "p50_ms", "p99_ms",
                               "snapshot_bytes_loaded", "snapshot_bytes"}),
            R"({"stats":{"sessions_opened":1,"sessions_closed":0,)"
            R"("sessions_active":1,"queries_started":1,"queries_finished":1,)"
            R"("queries_failed":0,"queries_cancelled":0,"queries_deadline":0,)"
            R"("queries_rejected":0,"rows_streamed":1,"bytes_streamed":#,)"
            R"("cold_admitted":0,"warm_admitted":1,"cold_active":0,)"
            R"("warm_active":0,"cold_queued":0,"warm_queued":0,)"
            R"("latency_samples":1,"p50_ms":#,"p99_ms":#,"snapshot_loads":1,)"
            R"("snapshot_load_misses":0,"snapshot_load_stale":0,)"
            R"("snapshot_load_corrupt":0,"snapshot_saves":0,)"
            R"("snapshot_save_failures":0,"snapshot_bytes_loaded":#,)"
            R"("snapshot_bytes_saved":0,"tables":[{"name":"t",)"
            R"("snapshot_state":"loaded","snapshot_bytes":#,)"
            R"("bytes_read":148282,"compressed":false,"gz_checkpoints":0,)"
            R"("gz_bytes_inflated":0,"rows":5000,"promoted_columns":[0,1],)"
            R"("promoted_bytes":480256,"promotions":2,"demotions":0}],)"
            R"("session":{"id":1,"queries":1,"rows_streamed":1,)"
            R"("bytes_streamed":#}}})");
}

TEST(ServerTest, SixteenClientsMatchDirectQueryByteForByte) {
  ServedDb s = Serve(12000);

  const std::string queries[] = {
      "SELECT COUNT(*) AS n, SUM(a2) AS s FROM t WHERE a1 >= 0",
      "SELECT a1, a2 FROM t WHERE a1 < 120000000",
      "SELECT SUM(a5) AS s FROM t WHERE a2 >= 250000000 AND a2 < 750000000",
      "SELECT a3, a4 FROM tj WHERE a3 < 80000000",
      "SELECT COUNT(*) AS n FROM tj WHERE a6 < 500000000",
  };
  constexpr int kQueries = 5;

  // Reference wire bytes from the direct cursor path. Computed up front, so
  // the server threads race against *warming* adaptive structures while the
  // expected answers are pinned.
  std::string expected_schema[kQueries];
  std::string expected_rows[kQueries];
  for (int q = 0; q < kQueries; ++q) {
    expected_rows[q] =
        DirectWireRows(s.db.get(), queries[q], &expected_schema[q]);
  }

  constexpr int kClients = 16;
  constexpr int kIters = 6;
  std::atomic<int> transport_failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(s.server->port());
      if (!client.connected()) {
        ++transport_failures;
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        int q = (c + i) % kQueries;
        Exchange ex = RunQuery(&client, queries[q]);
        if (!IsOk(ex)) {
          ++transport_failures;
          continue;
        }
        if (ex.schema != expected_schema[q] ||
            JoinRowLines(ex.row_lines) != expected_rows[q]) {
          ++mismatches;
        }
      }
      client.Send("QUIT");
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(transport_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Counter consistency across the whole storm: every started query has
  // exactly one terminal outcome, and the volume counters moved.
  ASSERT_TRUE(WaitForStats(s.server.get(), [](const ServerStats& st) {
    return st.sessions_active == 0;
  }));
  ServerStats st = s.server->Stats();
  EXPECT_EQ(st.queries_started, static_cast<uint64_t>(kClients * kIters));
  EXPECT_EQ(st.queries_started,
            st.queries_finished + st.queries_failed + st.queries_cancelled +
                st.queries_deadline + st.queries_rejected);
  EXPECT_EQ(st.queries_finished, static_cast<uint64_t>(kClients * kIters));
  EXPECT_EQ(st.sessions_opened, static_cast<uint64_t>(kClients));
  EXPECT_EQ(st.cold_admitted + st.warm_admitted, st.queries_started);
  EXPECT_GT(st.rows_streamed, 0u);
  EXPECT_GT(st.bytes_streamed, 0u);
  EXPECT_EQ(st.latency_samples, st.queries_finished);
  EXPECT_EQ(st.cold_active, 0);
  EXPECT_EQ(st.warm_active, 0);
}

TEST(ServerTest, DeadlineExpiryIsTypedAndReleasesSlots) {
  ServedDb s = Serve(60000);
  TestClient client(s.server->port());
  ASSERT_TRUE(client.connected());

  // 1ms against a cold 60k-row parse: expires mid-scan, deterministically.
  Exchange ex = RunQuery(&client, "SELECT SUM(a2), SUM(a3) FROM t",
                         /*deadline_ms=*/1);
  ASSERT_TRUE(ex.transport_ok);
  EXPECT_TRUE(IsErrorCode(ex, "DeadlineExceeded")) << ex.terminal;

  // The lane slot came back with the failed query; the next query (no
  // deadline) runs to completion on the same connection.
  ex = RunQuery(&client, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(IsOk(ex)) << ex.terminal;

  ServerStats st = s.server->Stats();
  EXPECT_EQ(st.queries_deadline, 1u);
  EXPECT_EQ(st.cold_active, 0);
  EXPECT_EQ(st.warm_active, 0);
}

TEST(ServerTest, MidStreamCancelVerb) {
  EngineConfig engine_cfg =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  engine_cfg.batch_size = 64;  // many batch boundaries to catch CANCEL at
  ServedDb s = Serve(30000, ServerConfig{}, engine_cfg);
  TestClient client(s.server->port());
  ASSERT_TRUE(client.connected());

  // Full-table projection: tens of thousands of rows across hundreds of
  // batches. Read a couple of row lines, then CANCEL mid-stream.
  std::string req = "{\"q\":";
  AppendJsonQuoted(&req, std::string("SELECT a1, a2, a3 FROM t WHERE a1 >= 0"));
  req += "}";
  ASSERT_TRUE(client.Send(req));
  std::string line;
  int row_lines = 0;
  bool saw_terminal = false;
  std::string terminal;
  while (client.ReadLine(&line)) {
    if (line.find("\"status\"") != std::string::npos) {
      terminal = line;
      saw_terminal = true;
      break;
    }
    if (line.find("\"rows\"") != std::string::npos && ++row_lines == 2) {
      ASSERT_TRUE(client.Send("CANCEL"));
    }
  }
  ASSERT_TRUE(saw_terminal);
  // Either the cancel landed mid-stream (typed Cancelled terminal) or the
  // query finished first — with 30k rows against a cold scan the cancel
  // wins in practice; both keep the session alive.
  if (terminal.find("\"status\":\"ok\"") == std::string::npos) {
    EXPECT_NE(terminal.find("\"code\":\"Cancelled\""), std::string::npos)
        << terminal;
    ServerStats st = s.server->Stats();
    EXPECT_EQ(st.queries_cancelled, 1u);
  }

  // The session survives a cancel and serves the next query.
  Exchange ex = RunQuery(&client, "SELECT COUNT(*) FROM t");
  EXPECT_TRUE(IsOk(ex)) << ex.terminal;
}

TEST(ServerTest, MidStreamDisconnectReleasesEpochAndSlot) {
  // The server-side twin of PositionalMapBudget.AbandonedQueryReleasesItsEpoch:
  // a client that vanishes mid-stream abandons the session's cursor; the
  // scan's pmap epoch and its cold admission slot must both come back, or
  // the tight-budget map wedges shut and the cold lane starves.
  EngineConfig engine_cfg =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPM);
  engine_cfg.batch_size = 32;
  engine_cfg.tuples_per_chunk = 64;
  engine_cfg.pm_budget_bytes = 220 * 1024;  // spine + a few chunks only
  ServerConfig config;
  config.admission.max_cold = 1;  // a leaked ticket would block the retry
  ServedDb s = Serve(20000, config, engine_cfg);
  PositionalMap* pm = s.db->runtime("t")->pmap.get();
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->active_epoch_count(), 0u);

  {
    TestClient victim(s.server->port());
    ASSERT_TRUE(victim.connected());
    std::string req = "{\"q\":";
    AppendJsonQuoted(&req,
                     std::string("SELECT a1, a2, a3, a4 FROM t WHERE a1 >= 0"));
    req += "}";
    ASSERT_TRUE(victim.Send(req));
    // Read two lines (schema + first rows): the scan is mid-stream and
    // holds its insertion epoch open. Then vanish without a word.
    std::string line;
    ASSERT_TRUE(victim.ReadLine(&line));
    ASSERT_TRUE(victim.ReadLine(&line));
    EXPECT_EQ(pm->active_epoch_count(), 1u);
    victim.Close();
  }

  // The abandoned query must be detected and fully torn down: the session
  // cancels the cursor, whose teardown releases the cold admission slot
  // AND ends the scan's epoch (the session counts the cancel only after
  // both, so this wait is race-free).
  ASSERT_TRUE(WaitForStats(s.server.get(), [](const ServerStats& st) {
    return st.queries_cancelled == 1 && st.cold_active == 0;
  })) << "disconnect did not release the cold admission slot";
  EXPECT_EQ(pm->active_epoch_count(), 0u)
      << "abandoned session leaked its scan epoch — under budget pressure "
         "the map would refuse every future eviction and wedge shut";

  // The cold lane (capacity 1) has its slot back and the map keeps
  // learning: full scans over fresh attributes run to completion.
  TestClient retry(s.server->port());
  ASSERT_TRUE(retry.connected());
  Exchange ex = RunQuery(&retry, "SELECT SUM(a5), SUM(a6) FROM t");
  ASSERT_TRUE(IsOk(ex)) << ex.terminal;
  ex = RunQuery(&retry, "SELECT COUNT(*) FROM t WHERE a5 >= 0");
  ASSERT_TRUE(IsOk(ex)) << ex.terminal;
  EXPECT_EQ(pm->active_epoch_count(), 0u);
}

TEST(ServerTest, AdmissionOverflowRejectsDeterministically) {
  // Cold lane of 1 with no queue: while one cold query is mid-stream, any
  // other cold query must bounce immediately with ResourceExhausted.
  EngineConfig engine_cfg =
      EngineConfig::ForSystem(SystemUnderTest::kPostgresRawPMC);
  engine_cfg.batch_size = 128;
  ServerConfig config;
  config.admission.max_cold = 1;
  config.admission.cold_queue_limit = 0;
  ServedDb s = Serve(60000, config, engine_cfg);

  // Occupant: a full-table projection (tens of MB — far beyond the socket
  // buffers), with the client never reading past the schema line. The
  // server blocks in send() mid-stream, holding its cold ticket.
  TestClient occupant(s.server->port());
  ASSERT_TRUE(occupant.connected());
  std::string req = "{\"q\":";
  AppendJsonQuoted(
      &req, std::string("SELECT a1, a2, a3, a4, a5, a6 FROM t WHERE a1 >= 0"));
  req += "}";
  ASSERT_TRUE(occupant.Send(req));
  std::string line;
  ASSERT_TRUE(occupant.ReadLine(&line));  // schema: the query was admitted
  ASSERT_TRUE(WaitForStats(s.server.get(), [](const ServerStats& st) {
    return st.cold_active == 1;
  }));

  // Deterministic rejection for the second cold query.
  TestClient rejected(s.server->port());
  ASSERT_TRUE(rejected.connected());
  Exchange ex = RunQuery(&rejected, "SELECT SUM(a2) FROM tj");
  ASSERT_TRUE(ex.transport_ok);
  EXPECT_TRUE(IsErrorCode(ex, "ResourceExhausted")) << ex.terminal;
  ASSERT_TRUE(WaitForStats(s.server.get(), [](const ServerStats& st) {
    return st.queries_rejected == 1;
  }));

  // Free the lane (abrupt disconnect) and the rejected client's retry goes
  // through — overflow is load shedding, not a dead server.
  occupant.Close();
  ASSERT_TRUE(WaitForStats(s.server.get(), [](const ServerStats& st) {
    return st.cold_active == 0;
  }));
  ex = RunQuery(&rejected, "SELECT SUM(a2) FROM tj");
  EXPECT_TRUE(IsOk(ex)) << ex.terminal;
}

TEST(ServerTest, SessionLimitAndGracefulStop) {
  ServerConfig config;
  config.max_sessions = 1;
  ServedDb s = Serve(2000, config);

  TestClient first(s.server->port());
  ASSERT_TRUE(first.connected());
  Exchange ex = RunQuery(&first, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(IsOk(ex));

  // Second connection: typed refusal, then EOF.
  TestClient second(s.server->port());
  ASSERT_TRUE(second.connected());
  std::string line;
  ASSERT_TRUE(second.ReadLine(&line));
  EXPECT_NE(line.find("ResourceExhausted"), std::string::npos) << line;
  EXPECT_FALSE(second.ReadLine(&line));

  // Stop with a live session: drains cleanly, and the client sees EOF.
  s.server->Stop();
  EXPECT_FALSE(first.ReadLine(&line));
  ServerStats st = s.server->Stats();
  EXPECT_EQ(st.sessions_active, 0);
  // Stop is idempotent (the fixture destructor will run it again).
  s.server->Stop();
}

TEST(ServerTest, SequentialRepliesDoNotWaitForDelayedAck) {
  // A reply is a schema line then a rows line. If the server's socket
  // batches small writes (Nagle), the rows line waits for the client's
  // delayed ACK of the schema line: ~40 ms per round trip on Linux,
  // against well under 1 ms for this warm 200-row query.
  ServedDb s = Serve(200);
  TestClient client(s.server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(IsOk(RunQuery(&client, "SELECT * FROM t")));  // warm

  std::vector<double> ms;
  for (int i = 0; i < 30; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Exchange ex = RunQuery(&client, "SELECT COUNT(*) FROM t WHERE a1 >= 0");
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    ASSERT_TRUE(IsOk(ex)) << ex.terminal;
  }
  std::vector<double> tail(ms.end() - 25, ms.end());
  std::nth_element(tail.begin(), tail.begin() + 12, tail.end());
  EXPECT_LT(tail[12], 20.0) << "median of the last 25 round trips, ms";
}

}  // namespace
}  // namespace nodb
