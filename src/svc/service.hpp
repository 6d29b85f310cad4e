#pragma once
// The serving façade: one Service owns the cell library, a GCN runtime
// predictor trained at startup from a small seeded corpus, and per-design
// caches, and turns parsed svc::Requests into JSON response payloads by
// dispatching onto the existing core APIs —
//
//   characterize -> core::Characterizer        (Fig. 2 rows)
//   predict      -> core::RuntimePredictor     (GCN runtime ladder)
//   optimize     -> core::DeploymentOptimizer  (MCKP deployment plan)
//   run-stage    -> core::make_flow_engines    (StageEngine contract)
//   tune         -> tune::RecipeTuner          (joint recipe x VM plan)
//
// handle() is thread-safe: predict/optimize/run-stage execute fully in
// parallel (engines run serially per request, requests spread across the
// server's worker threads), while characterize serializes internally
// because instrumented flows publish into the process-global obs
// registry. Every response is deterministic for a fixed ServiceConfig —
// same request, same bytes, at any worker-thread count — which the
// loadgen digest checks and the threads-1-vs-8 loopback test enforce.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "ml/batch.hpp"
#include "ml/gcn.hpp"
#include "nl/cell_library.hpp"
#include "obs/metrics.hpp"
#include "svc/protocol.hpp"

namespace edacloud::svc {

struct ServiceConfig {
  /// Startup training corpus: first `train_designs` families at their
  /// smallest corpus size, `train_recipes` recipe variants each. Small by
  /// design — the service must come up in seconds; accuracy-critical
  /// deployments raise these (and train_epochs) via the CLI flags.
  std::size_t train_designs = 8;
  std::size_t train_recipes = 1;
  int train_epochs = 30;
  /// Seed for generated request designs (the CLI convention is 7 — the
  /// same designs `edacloud_cli gen/flow` produce).
  std::uint64_t design_seed = 7;
  /// Content-addressed prediction cache entries (ml::PredictionCache LRU;
  /// 0 disables). Keys are the memoized graph content hash salted per
  /// job, so repeated-design predict/optimize queries skip the forward
  /// pass entirely — and return the exact bytes the miss path computed.
  std::size_t predict_cache_capacity = 4096;
};

/// Lifetime request counters (relaxed atomics — workers bump them
/// concurrently; export_to reads after the server drained).
struct ServiceStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> by_type[kRequestTypeCount] = {};

  void export_to(obs::Registry& registry) const;
};

class Service {
 public:
  explicit Service(ServiceConfig config = {});
  ~Service();

  /// Train the runtime predictor from the seeded corpus. Idempotent;
  /// deterministic for a fixed config. Call before serving — predict and
  /// optimize answer `internal` errors until trained.
  void initialize();
  [[nodiscard]] bool ready() const { return trained_; }

  /// Parse one frame payload and dispatch; never throws — malformed JSON,
  /// invalid requests and handler failures all come back as error
  /// responses (kErrBadRequest / kErrUnknownType / kErrInternal).
  [[nodiscard]] std::string handle_payload(const std::string& payload);

  /// Dispatch one parsed request; returns the dumped response.
  [[nodiscard]] std::string handle(const Request& request);

  /// Micro-batched predict path (the server's batch collector lands here):
  /// cache lookups first, then ONE merged forward pass per job over the
  /// misses. responses[i] is byte-identical to handle(requests[i]) —
  /// non-predict items fall back to handle() individually.
  [[nodiscard]] std::vector<std::string> handle_predict_batch(
      const std::vector<Request>& requests);

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  /// Non-null when predict_cache_capacity > 0.
  [[nodiscard]] const ml::PredictionCache* predict_cache() const {
    return predict_cache_.get();
  }
  /// Request counters plus prediction-cache hit/miss/eviction counters.
  void export_metrics(obs::Registry& registry) const;

 private:
  /// Feature graph + memoized content key, shared via the per-design cache.
  struct CachedSample {
    std::shared_ptr<const ml::GraphSample> sample;
    ml::ContentKey key;  // content_key(*sample), computed once at build
  };
  util::JsonValue do_characterize(const Request& request);
  util::JsonValue do_predict(const Request& request);
  util::JsonValue do_optimize(const Request& request);
  util::JsonValue do_run_stage(const Request& request);
  util::JsonValue do_echo(const Request& request);
  util::JsonValue do_tune(const Request& request);

  [[nodiscard]] nl::Aig make_design(const Request& request) const;
  /// Feature graph for `job` on the request's design, via the per-design
  /// cache (AIG graph for synthesis, synthesized-netlist graph otherwise).
  [[nodiscard]] CachedSample sample_for(const Request& request,
                                        core::JobKind job);
  /// Cache-fronted predicted runtimes (the shared predict/optimize path).
  [[nodiscard]] std::array<double, 4> predict_runtimes(
      core::JobKind job, const CachedSample& cached);
  /// The predict response payload — one builder for both the serial and
  /// the batched path, so their bytes cannot diverge.
  [[nodiscard]] static util::JsonValue predict_payload(
      const Request& request, const std::array<double, 4>& runtimes);

  ServiceConfig config_;
  nl::CellLibrary library_;
  core::RuntimePredictor predictor_;
  bool trained_ = false;
  ServiceStats stats_;

  /// Serializes instrumented flows: they publish QoR gauges and perf
  /// measurements into the process-global obs::Registry.
  std::mutex instrumented_mutex_;

  /// family:size -> feature graphs (predict/optimize hot path).
  std::mutex cache_mutex_;
  std::map<std::string, CachedSample> aig_samples_;
  std::map<std::string, CachedSample> netlist_samples_;

  /// Content-addressed prediction results (internally locked).
  std::unique_ptr<ml::PredictionCache> predict_cache_;
};

}  // namespace edacloud::svc
