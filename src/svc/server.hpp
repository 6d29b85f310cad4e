#pragma once
// The job server: a poll()-readiness I/O loop (accept, frame reassembly,
// buffered writes) in front of a bounded worker pool that executes
// svc::Service handlers. Design points, per docs/SERVING.md:
//
//   * Bounded everywhere. At most `max_connections` sockets (excess
//     accepts get one `overloaded` frame and an immediate close) and at
//     most `max_queue` dispatched-but-unfinished requests — a request that
//     would exceed the queue is answered `overloaded` from the I/O thread
//     without ever touching a worker. The server never blocks on a slow
//     client either: responses buffer per connection and drain on
//     POLLOUT.
//   * Deadlines at dispatch. A request whose `deadline_ms` elapsed while
//     it sat in the queue is answered `deadline_exceeded` instead of
//     being executed (execution itself is not preempted).
//   * Graceful drain. request_stop() is async-signal-safe (atomic flag +
//     self-pipe write); the loop then stops accepting, lets queued work
//     finish, flushes every write buffer and returns — the SIGINT/SIGTERM
//     path the CLI wires up, asserted by the scripts/check.sh drain leg.
//   * Observability. svc/queue_depth is sampled into the global registry
//     from the I/O thread; per-request svc/<type> spans come from
//     Service::handle; ServerStats counters export after the run.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace edacloud::svc {

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; port() reports the bound port
  int threads = 2;
  int max_connections = 64;
  std::size_t max_queue = 128;
  /// Default per-request deadline applied when a request carries none
  /// (0 = unlimited); clamped to [0, kMaxDeadlineMs].
  double default_deadline_ms = 0.0;
  /// Micro-batching: a worker that pops a predict request greedily takes
  /// up to batch_max-1 more predict items already queued (skipping over
  /// other types) and executes them as ONE merged GCN forward pass via
  /// Service::handle_predict_batch. <= 1 disables. Responses are
  /// byte-identical to unbatched execution — batching trades nothing but
  /// scheduling.
  /// A worker never waits for stragglers: batching only amortizes queues
  /// that are already deep, adding zero latency.
  int batch_max = 8;
};

struct ServerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::uint64_t> requests_dispatched{0};
  std::atomic<std::uint64_t> requests_completed{0};
  std::atomic<std::uint64_t> overload_rejections{0};
  std::atomic<std::uint64_t> deadline_rejections{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> batches_executed{0};  // merged batches (>= 2)
  std::atomic<std::uint64_t> batched_requests{0};  // requests inside them

  void export_to(obs::Registry& registry) const;
};

class JobServer {
 public:
  JobServer(Service& service, ServerConfig config);
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Bind + listen. False (with *error filled) on failure; the bound port
  /// is available from port() afterwards.
  [[nodiscard]] bool listen(std::string* error);
  [[nodiscard]] int port() const { return port_; }

  /// Serve until request_stop(); drains and tears down before returning.
  void run();

  /// Async-signal-safe stop: atomic store plus a self-pipe write. Safe to
  /// call from any thread or from a signal handler, repeatedly.
  void request_stop();

  // ---- test/bench conveniences -------------------------------------------
  /// run() on a background thread (listen() must have succeeded).
  void start();
  /// request_stop() + join the background thread.
  void stop_and_join();

  [[nodiscard]] const ServerStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::string outbox;        // encoded frames awaiting write
    std::size_t out_offset = 0;
    bool close_after_flush = false;
    std::uint64_t inflight = 0;  // requests dispatched, not yet answered
  };

  struct WorkItem {
    std::uint64_t conn_id = 0;
    Request request;  // parsed on the I/O thread; malformed frames never
                      // reach a worker
    std::chrono::steady_clock::time_point deadline{};  // epoch = none
    bool has_deadline = false;
  };

  void worker_loop();
  /// Grow `batch` (holding one predict item) from queued predict items, up
  /// to batch_max, without waiting. Called with queue_mutex_ held.
  void collect_predict_batch(std::vector<WorkItem>& batch);
  /// Deadline-check, execute (merged when >= 2 live predicts) and answer
  /// every item; per-item accounting matches the single-item path.
  void execute_batch(std::vector<WorkItem>& batch);
  void io_loop();
  void accept_ready();
  void read_ready(std::uint64_t conn_id);
  void write_ready(std::uint64_t conn_id);
  void dispatch_frame(std::uint64_t conn_id, std::string payload);
  /// Append an encoded response to conn's outbox (I/O thread or worker;
  /// takes conns_mutex_).
  void enqueue_response(std::uint64_t conn_id, const std::string& payload);
  void close_connection(std::uint64_t conn_id);
  void wake();

  Service& service_;
  ServerConfig config_;
  ServerStats stats_;

  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_requested_{false};

  std::mutex conns_mutex_;
  std::map<std::uint64_t, Connection> conns_;
  std::uint64_t next_conn_id_ = 1;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  bool workers_stop_ = false;
  std::atomic<std::uint64_t> inflight_total_{0};  // queued + executing
  std::vector<std::thread> workers_;

  std::thread run_thread_;  // start()/stop_and_join()
};

}  // namespace edacloud::svc
