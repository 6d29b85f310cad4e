#pragma once
// Global routing — the paper's best-scaling, most branch-missing job.
// A congestion-aware A* maze router over a 2D grid-cell graph with
// PathFinder-style rip-up-and-reroute: nets are decomposed into star-model
// two-pin connections, routed in bounding-box order, and iteratively
// rerouted with growing history costs until overflow clears (or the
// iteration budget is spent).
//
// Parallelism model (modeled): connections whose bounding boxes do not
// overlap touch disjoint grid state and route concurrently; the engine
// groups them into waves and emits one task per connection with barriers
// between waves and rip-up iterations. Large designs produce wide waves
// (near-linear speedup); small designs cap out — exactly Fig. 3.
//
// Parallelism model (measured): with RouterOptions::threads > 1 the engine
// actually routes in batched conflict-resolution rounds on the shared
// util::ThreadPool — every pending connection is routed in parallel against
// a frozen grid, then committed serially in a fixed order; a path whose
// coarse region overlaps an earlier commit from the same round is deferred
// to the next round against the updated grid. Commit order — and therefore
// usage, history, QoR and the replayed perf-event stream — depends only on
// the connection order, never the thread count, so results are bit-identical
// at any width. A round is decided in fixed slices of pending attempts; an
// attempt whose source or target coarse cell an earlier commit of the round
// already covers is deferred without a search (its path would cross that
// cell), and only the rest of the slice is searched. Instrumented rounds
// search unlogged first and then re-run only the committing searches with
// event logs, still against the frozen grid, so deferred attempts record
// nothing.

#include <cstdint>
#include <vector>

#include "nl/netlist.hpp"
#include "perf/event_log.hpp"
#include "perf/runtime_model.hpp"
#include "place/placer.hpp"

namespace edacloud::route {

struct RouterOptions {
  int cells_per_gcell = 1;     // grid sizing: ~cells per grid cell
  int min_grid = 8;
  int max_grid = 256;
  int edge_capacity = 32;      // routing tracks per grid-cell edge
  int max_rrr_iterations = 3;  // rip-up-and-reroute rounds
  double congestion_weight = 2.0;
  double history_weight = 1.5;
  /// Worker threads for the batched parallel maze search (0 = the global
  /// default from util::global_thread_count(); 1 = serial). Any value
  /// produces bit-identical results — see the header comment.
  int threads = 0;
};

struct RoutingResult {
  int grid_size = 0;
  std::size_t connection_count = 0;  // two-pin (driver, sink) pairs
  std::size_t routed_count = 0;
  std::uint64_t wirelength_gedges = 0;  // total grid edges used
  std::size_t overflowed_edges = 0;     // after the final iteration
  int rrr_iterations = 0;
  /// A* node pops of the searches the commit decisions read (attempts
  /// deferred for a covered endpoint count none).
  std::uint64_t total_expansions = 0;
  std::size_t wave_count = 0;           // parallel wave depth
  /// Per-connection grid-edge lists (backtrack order); consumed by the
  /// layer-assignment stage.
  std::vector<std::vector<std::uint32_t>> connection_edges;
  perf::JobProfile profile;
};

class GridRouter {
 public:
  explicit GridRouter(RouterOptions options = {}) : options_(options) {}

  /// Route the placed netlist; instrumented when configs is non-empty.
  /// An instrumented run appends a copy of every event log it replays, in
  /// replay order, to `replayed` when that is non-null (kernel benchmarks
  /// time the replay alone from these).
  [[nodiscard]] RoutingResult run(
      const nl::Netlist& netlist, const place::Placement& placement,
      const std::vector<perf::VmConfig>& configs,
      std::vector<perf::EventLog>* replayed = nullptr) const;

  [[nodiscard]] const RouterOptions& options() const { return options_; }

 private:
  RouterOptions options_;
};

}  // namespace edacloud::route
