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
// Routing order: each batch — the initial connection order, then each
// rip-up set — is routed in pending order against live grid state, every
// connection searched once and committed at once. Instrumented searches
// report straight into the run's perf::Sink. The router takes no thread
// width: exact speculation over windows of pending connections was
// measured on a 4-vCPU host and was faster on no design (EXPERIMENTS.md
// "Routing in pending order").

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nl/netlist.hpp"
#include "perf/runtime_model.hpp"
#include "perf/sink.hpp"
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
};

/// A* step cost of one grid edge: 1, plus congestion past 80% of capacity,
/// plus history. Below the knee a usage change leaves it bit-identical.
[[nodiscard]] inline float step_cost(std::uint16_t usage,
                                     std::uint16_t capacity, float history,
                                     const RouterOptions& options) {
  const float congestion =
      static_cast<float>(usage) / static_cast<float>(capacity);
  return 1.0f +
         static_cast<float>(options.congestion_weight) *
             std::max(0.0f, congestion - 0.8f) +
         static_cast<float>(options.history_weight) * history;
}

struct RoutingResult {
  int grid_size = 0;
  std::size_t connection_count = 0;  // two-pin (driver, sink) pairs
  std::size_t routed_count = 0;
  std::uint64_t wirelength_gedges = 0;  // total grid edges used
  std::size_t overflowed_edges = 0;     // after the final iteration
  int rrr_iterations = 0;
  /// A* node pops of the committed searches (one per connection per batch).
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
  [[nodiscard]] RoutingResult run(
      const nl::Netlist& netlist, const place::Placement& placement,
      const std::vector<perf::VmConfig>& configs) const;

  /// The same routing, reporting every instrumentation event into `sink`
  /// (the profile's configs and counts stay empty).
  [[nodiscard]] RoutingResult route(const nl::Netlist& netlist,
                                    const place::Placement& placement,
                                    perf::Sink sink) const;

  [[nodiscard]] const RouterOptions& options() const { return options_; }

 private:
  RouterOptions options_;
};

}  // namespace edacloud::route
