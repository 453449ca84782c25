#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/protocol.h"
#include "server/session.h"

namespace nodb {

QueryServer::QueryServer(Database* db, ServerConfig config)
    : db_(db), config_(std::move(config)), admission_(config_.admission) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address '" + config_.host +
                                   "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status err = Status::IOError("bind " + config_.host + ":" +
                                 std::to_string(config_.port) + ": " +
                                 std::strerror(errno));
    ::close(fd);
    return err;
  }
  if (::listen(fd, 128) != 0) {
    Status err =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return err;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status err =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return err;
  }
  port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      ReapFinishedLocked();
    }
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down (or unusable): stop accepting
    }
    // Every reply is a small schema line followed by row lines. With
    // Nagle on, the rows line waits behind the unACKed schema line until
    // the client's delayed-ACK timer fires (~40 ms per round trip).
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(client);
      break;
    }
    if (sessions_.size() >= static_cast<size_t>(config_.max_sessions)) {
      // Full house: a typed goodbye instead of a silent close.
      std::string line = ErrorLine(
          Status::ResourceExhausted(
              "session limit reached (" + std::to_string(config_.max_sessions) +
              " active connections)"),
          /*id=*/"");
      (void)::send(client, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(client);
      continue;
    }
    auto session =
        std::make_unique<Session>(next_session_id_++, client, this);
    session->Start();
    sessions_.push_back(std::move(session));
  }
}

void QueryServer::ReapFinishedLocked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished()) {
      (*it)->Join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  // Break the accept thread out of poll()/accept() and prevent new
  // connections, then let queued admission waiters fail fast.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  admission_.Shutdown();

  std::vector<std::unique_ptr<Session>> drained;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    drained.swap(sessions_);
  }
  for (auto& session : drained) session->RequestStop();
  for (auto& session : drained) session->Join();
  drained.clear();
  // With every session drained the structures are quiescent: persist the
  // warm state they earned, so the next server start is warm. Best-effort —
  // a failed save only costs the restart a cold first scan.
  Status snapshot_status = db_->SnapshotAll();
  (void)snapshot_status;
  started_ = false;
}

ServerStats QueryServer::Stats() const {
  ServerStats s = metrics_.Snapshot();
  const auto* admission = &admission_;
  s.cold_active = admission->active(true);
  s.warm_active = admission->active(false);
  s.cold_queued = admission->queued(true);
  s.warm_queued = admission->queued(false);
  s.snapshot = db_->snapshot_counters();
  s.tables = db_->ListTables();
  return s;
}

bool QueryServer::IsColdQuery(const std::vector<std::string>& tables) const {
  for (const std::string& name : tables) {
    TableRuntime* rt = db_->runtime(name);
    if (rt == nullptr) continue;  // binder already vetted; be permissive
    if (rt->storage == TableStorage::kRaw &&
        rt->row_count.load(std::memory_order_acquire) < 0) {
      return true;
    }
  }
  return false;
}

void QueryServer::LogLine(std::string_view line) {
  if (config_.log == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  (*config_.log) << line << '\n';
  config_.log->flush();
}

}  // namespace nodb
