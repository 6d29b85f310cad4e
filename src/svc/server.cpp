#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace edacloud::svc {

using util::JsonParseResult;
using util::parse_json;

namespace {

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

void ServerStats::export_to(obs::Registry& registry) const {
  const auto count = [&](const char* name,
                         const std::atomic<std::uint64_t>& value) {
    registry.counter(std::string("svc.server.") + name).add(value.load());
  };
  count("connections_accepted", connections_accepted);
  count("connections_rejected", connections_rejected);
  count("requests_dispatched", requests_dispatched);
  count("requests_completed", requests_completed);
  count("overload_rejections", overload_rejections);
  count("deadline_rejections", deadline_rejections);
  count("protocol_errors", protocol_errors);
  count("batches_executed", batches_executed);
  count("batched_requests", batched_requests);
}

JobServer::JobServer(Service& service, ServerConfig config)
    : service_(service), config_(config) {
  if (config_.threads < 1) config_.threads = 1;
  if (config_.max_connections < 1) config_.max_connections = 1;
  if (config_.max_queue < 1) config_.max_queue = 1;
  config_.default_deadline_ms =
      std::clamp(config_.default_deadline_ms, 0.0, kMaxDeadlineMs);
}

JobServer::~JobServer() {
  stop_and_join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

bool JobServer::listen(std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  if (pipe(wake_pipe_) != 0) return fail("pipe");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, std::min(config_.max_connections, 128)) != 0) {
    return fail("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (!set_nonblocking(listen_fd_)) return fail("fcntl");
  return true;
}

void JobServer::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  // Async-signal-safe wake: write(2) on the nonblocking self-pipe.
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void JobServer::wake() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void JobServer::start() { run_thread_ = std::thread([this] { run(); }); }

void JobServer::stop_and_join() {
  if (!run_thread_.joinable()) return;
  request_stop();
  run_thread_.join();
}

void JobServer::run() {
  for (int i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  io_loop();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
}

void JobServer::io_loop() {
  obs::Registry& registry = obs::Registry::global();
  bool accepting = true;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn_ids;

  while (true) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if (stopping && accepting) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      accepting = false;
    }

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_conn_ids.push_back(0);
    bool writes_pending = false;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      // Listen stays in the poll set even at the connection cap: excess
      // connections must be accepted so accept_ready can answer
      // `overloaded` and close, instead of leaving them in the backlog.
      if (accepting) {
        fds.push_back({listen_fd_, POLLIN, 0});
        fd_conn_ids.push_back(0);
      }
      for (const auto& [id, conn] : conns_) {
        short events = 0;
        // During drain no new requests are read; pending responses still
        // flush.
        if (!stopping) events |= POLLIN;
        if (conn.out_offset < conn.outbox.size()) {
          events |= POLLOUT;
          writes_pending = true;
        }
        // events may stay 0 during drain: poll still reports
        // POLLERR/POLLHUP so dead peers are reaped.
        fds.push_back({conn.fd, events, 0});
        fd_conn_ids.push_back(id);
      }
    }

    const std::uint64_t inflight =
        inflight_total_.load(std::memory_order_acquire);
    registry.gauge("svc.queue_depth").set(static_cast<double>(inflight));
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      tracer.emit_counter("svc/queue_depth", tracer.now_us(),
                          static_cast<double>(inflight));
    }

    if (stopping && inflight == 0 && !writes_pending) return;

    const int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready < 0 && errno != EINTR) {
      EDACLOUD_WARN << "svc: poll failed: " << std::strerror(errno);
      return;
    }
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& pfd = fds[i];
      if (pfd.revents == 0) continue;
      if (pfd.fd == wake_pipe_[0]) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (accepting && pfd.fd == listen_fd_ && fd_conn_ids[i] == 0) {
        accept_ready();
        continue;
      }
      const std::uint64_t conn_id = fd_conn_ids[i];
      if (conn_id == 0) continue;
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        close_connection(conn_id);
        continue;
      }
      if ((pfd.revents & POLLIN) != 0) read_ready(conn_id);
      if ((pfd.revents & POLLOUT) != 0) write_ready(conn_id);
    }
  }
}

void JobServer::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next poll round
    std::size_t open_conns = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      open_conns = conns_.size();
    }
    if (open_conns >= static_cast<std::size_t>(config_.max_connections)) {
      // Bounded accept queue: shed the connection with an explicit reply
      // instead of letting it hang in the backlog.
      stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      const std::string reply = encode_frame(
          error_response(0, kErrOverloaded, "connection limit reached"));
      (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    Connection conn;
    conn.fd = fd;
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

void JobServer::read_ready(std::uint64_t conn_id) {
  Connection* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = &it->second;  // map nodes are stable; only this thread erases
  }
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      close_connection(conn_id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(conn_id);
      return;
    }
    conn->decoder.feed(buf, static_cast<std::size_t>(n));
  }
  std::string payload;
  while (conn->decoder.next(&payload)) {
    dispatch_frame(conn_id, std::move(payload));
    payload.clear();
  }
  if (conn->decoder.error()) {
    // No frame boundary to resynchronize on: reply and hang up.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(
        conn_id,
        error_response(0, kErrBadRequest,
                       "frame length " +
                           std::to_string(conn->decoder.rejected_length()) +
                           " exceeds limit"));
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const auto it = conns_.find(conn_id);
    if (it != conns_.end()) it->second.close_after_flush = true;
  }
}

void JobServer::dispatch_frame(std::uint64_t conn_id, std::string payload) {
  const JsonParseResult parsed_json = parse_json(payload);
  if (!parsed_json.ok) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(conn_id,
                     error_response(0, kErrBadRequest,
                                    "invalid JSON: " + parsed_json.error));
    return;
  }
  ParsedRequest parsed = parse_request(parsed_json.value);
  if (!parsed.ok) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(
        conn_id,
        error_response(parsed.request.id, parsed.code, parsed.error));
    return;
  }

  // Bounded request queue: shed load with an explicit reply instead of
  // queueing without limit.
  if (inflight_total_.load(std::memory_order_acquire) >= config_.max_queue) {
    stats_.overload_rejections.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(conn_id,
                     error_response(parsed.request.id, kErrOverloaded,
                                    "request queue full"));
    return;
  }

  WorkItem item;
  item.conn_id = conn_id;
  double deadline_ms = parsed.request.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = config_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    item.deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(
                        static_cast<std::int64_t>(deadline_ms * 1000.0));
    item.has_deadline = true;
  }
  item.request = std::move(parsed.request);

  inflight_total_.fetch_add(1, std::memory_order_acq_rel);
  stats_.requests_dispatched.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    conns_mutex_.lock();
    const auto it = conns_.find(conn_id);
    if (it != conns_.end()) ++it->second.inflight;
    conns_mutex_.unlock();
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void JobServer::worker_loop() {
  std::vector<WorkItem> batch;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ and drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (config_.batch_max > 1 &&
          batch.front().request.type == RequestType::kPredict) {
        collect_predict_batch(batch);
      }
    }
    execute_batch(batch);
  }
}

void JobServer::collect_predict_batch(std::vector<WorkItem>& batch) {
  const std::size_t max = static_cast<std::size_t>(config_.batch_max);
  for (auto it = queue_.begin(); it != queue_.end() && batch.size() < max;) {
    if (it->request.type == RequestType::kPredict) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void JobServer::execute_batch(std::vector<WorkItem>& batch) {
  std::vector<std::string> responses(batch.size());
  std::vector<Request> live;
  std::vector<std::size_t> live_index;
  // Deadlines are checked once at execution start, matching the
  // single-item contract (execution itself is never preempted).
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const WorkItem& item = batch[i];
    if (item.has_deadline && now > item.deadline) {
      stats_.deadline_rejections.fetch_add(1, std::memory_order_relaxed);
      responses[i] = error_response(item.request.id, kErrDeadlineExceeded,
                                    "deadline elapsed before dispatch");
    } else {
      live.push_back(item.request);
      live_index.push_back(i);
    }
  }
  if (live.size() == 1) {
    responses[live_index[0]] = service_.handle(live[0]);
  } else if (live.size() > 1) {
    std::vector<std::string> merged = service_.handle_predict_batch(live);
    for (std::size_t k = 0; k < merged.size(); ++k) {
      responses[live_index[k]] = std::move(merged[k]);
    }
    stats_.batches_executed.fetch_add(1, std::memory_order_relaxed);
    stats_.batched_requests.fetch_add(live.size(),
                                      std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    enqueue_response(batch[i].conn_id, responses[i]);
    stats_.requests_completed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const auto it = conns_.find(batch[i].conn_id);
    if (it != conns_.end() && it->second.inflight > 0) {
      --it->second.inflight;
    }
  }
  inflight_total_.fetch_sub(batch.size(), std::memory_order_acq_rel);
  wake();
}

void JobServer::enqueue_response(std::uint64_t conn_id,
                                 const std::string& payload) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client went away; drop the reply
  it->second.outbox += encode_frame(payload);
}

void JobServer::write_ready(std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  while (conn.out_offset < conn.outbox.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbox.data() + conn.out_offset,
               conn.outbox.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      ::close(conn.fd);
      conns_.erase(it);
      return;
    }
    conn.out_offset += static_cast<std::size_t>(n);
  }
  conn.outbox.clear();
  conn.out_offset = 0;
  if (conn.close_after_flush) {
    ::close(conn.fd);
    conns_.erase(it);
  }
}

void JobServer::close_connection(std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
}

}  // namespace edacloud::svc
