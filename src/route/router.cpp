#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "obs/trace.hpp"
#include "perf/sink.hpp"

namespace edacloud::route {

using nl::Netlist;
using nl::NodeId;
using perf::TaskGraph;
using perf::TaskId;

namespace {

constexpr std::uint64_t kGridBase = 0x50ULL << 23;
constexpr std::uint64_t kCostBase = 0x51ULL << 23;
constexpr std::uint64_t kHeapBase = 0x52ULL << 23;

struct Connection {
  std::uint32_t source;  // grid index
  std::uint32_t target;
  std::uint32_t bbox_lo_x, bbox_lo_y, bbox_hi_x, bbox_hi_y;
};

/// 64x64 coarse occupancy signature of a path, for wave grouping.
constexpr int kMaskSide = 64;
constexpr int kMaskWords = kMaskSide * kMaskSide / 64;

struct BboxMask {
  std::uint64_t bits[kMaskWords] = {};

  [[nodiscard]] bool overlaps(const BboxMask& other) const {
    for (int i = 0; i < kMaskWords; ++i) {
      if ((bits[i] & other.bits[i]) != 0) return true;
    }
    return false;
  }
  void merge(const BboxMask& other) {
    for (int i = 0; i < kMaskWords; ++i) bits[i] |= other.bits[i];
  }
  void set(std::uint32_t bit) { bits[bit >> 6] |= 1ULL << (bit & 63); }
};

/// Coarse mask coordinate of grid coordinate `v`.
std::uint32_t coarse(std::uint32_t v, int grid) {
  return std::min<std::uint32_t>(kMaskSide - 1,
                                 v * kMaskSide / std::max(1, grid));
}

/// Mask bit of the coarse cell holding grid cell (x, y).
std::uint32_t coarse_bit(std::uint32_t x, std::uint32_t y, int grid) {
  return coarse(y, grid) * kMaskSide + coarse(x, grid);
}

/// Mask of the coarse cells actually crossed by a routed path — far
/// thinner than the bounding box, so independent nets pack densely.
BboxMask make_path_mask(const std::vector<std::uint32_t>& edges, int grid) {
  BboxMask mask;
  const std::uint32_t side = static_cast<std::uint32_t>(grid);
  const std::uint32_t h_edges = side * (side - 1);
  for (std::uint32_t e : edges) {
    if (e < h_edges) {
      const std::uint32_t y = e / (side - 1);
      const std::uint32_t x = e % (side - 1);
      mask.set(coarse_bit(x, y, grid));
      mask.set(coarse_bit(x + 1, y, grid));
    } else {
      const std::uint32_t v = e - h_edges;
      const std::uint32_t x = v / (side - 1);
      const std::uint32_t y = v % (side - 1);
      mask.set(coarse_bit(x, y, grid));
      mask.set(coarse_bit(x, y + 1, grid));
    }
  }
  return mask;
}

/// The cells a connection's search may visit: its bounding box inflated
/// by a margin that lets detours route around congestion. A connected
/// rectangle holding both endpoints, so a search inside it always reaches
/// its target.
struct SearchWindow {
  int lo_x, lo_y, hi_x, hi_y;

  [[nodiscard]] bool holds(int x, int y) const {
    return x >= lo_x && x <= hi_x && y >= lo_y && y <= hi_y;
  }
};

SearchWindow search_window(const Connection& connection, int grid) {
  const int margin = 2 + grid / 32;
  return {std::max(0, static_cast<int>(connection.bbox_lo_x) - margin),
          std::max(0, static_cast<int>(connection.bbox_lo_y) - margin),
          std::min(grid - 1, static_cast<int>(connection.bbox_hi_x) + margin),
          std::min(grid - 1, static_cast<int>(connection.bbox_hi_y) + margin)};
}

struct RouteOp {
  std::uint32_t connection;
  double cost;     // expansions
  int iteration;   // rip-up round (0 = initial routing)
};

/// Grid edge indexing: horizontal edge (x,y)->(x+1,y) id = y*(G-1)+x;
/// vertical edges offset by H-block. One capacity/usage/history per edge.
struct GridState {
  int grid = 0;
  std::vector<std::uint16_t> usage;
  std::vector<std::uint16_t> capacity;
  std::vector<float> history;

  [[nodiscard]] std::size_t edge_count() const { return usage.size(); }

  [[nodiscard]] int edge_between(int x0, int y0, int x1, int y1) const {
    if (y0 == y1) {  // horizontal
      const int x = std::min(x0, x1);
      return y0 * (grid - 1) + x;
    }
    const int y = std::min(y0, y1);
    const int h_edges = grid * (grid - 1);
    return h_edges + x0 * (grid - 1) + y;
  }

  [[nodiscard]] float step(int edge, const RouterOptions& options) const {
    return step_cost(usage[edge], capacity[edge], history[edge], options);
  }
};

/// Congestion-aware A* over the grid. Read-only against the grid state
/// (commit bumps usage), with grid-sized scratch arrays reused across
/// searches.
class Maze {
 public:
  Maze(const GridState& state, const RouterOptions& options)
      : state_(state), options_(options) {
    const std::size_t cells =
        static_cast<std::size_t>(state.grid) * state.grid;
    g_cost_.assign(cells, 0.0f);
    epoch_of_.assign(cells, 0);
    parent_.assign(cells, 0);
  }

  /// Route one connection within its search window. Appends the used
  /// edges to `edges_out`; returns expansions.
  std::uint64_t route(const Connection& connection,
                      std::vector<std::uint32_t>& edges_out,
                      std::uint32_t stream, perf::Sink sink) {
    ++epoch_;
    stream_ = stream;
    const int grid = state_.grid;
    const int sx = static_cast<int>(connection.source % grid);
    const int sy = static_cast<int>(connection.source / grid);
    const int tx = static_cast<int>(connection.target % grid);
    const int ty = static_cast<int>(connection.target / grid);
    const SearchWindow window = search_window(connection, grid);

    auto heuristic = [tx, ty](int x, int y) {
      return static_cast<float>(std::abs(x - tx) + std::abs(y - ty));
    };

    using HeapEntry = std::pair<float, std::uint32_t>;  // (f, cell)
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
        open;

    set_cost(connection.source, 0.0f, connection.source);
    open.emplace(heuristic(sx, sy), connection.source);
    std::uint64_t expansions = 0;

    while (!open.empty()) {
      const auto [f, cell] = open.top();
      open.pop();
      ++expansions;
      if (sink) {
        sink.load_private(kHeapBase + (expansions % 1024) * 16, stream_);
        sink.int_ops(14);
        // Priority-queue sift comparisons: direction depends on the cost
        // values of near-equal keys — effectively unpredictable,
        // data-dependent branches.
        const std::uint64_t h =
            (static_cast<std::uint64_t>(cell) * 0x9E3779B97F4A7C15ULL) ^
            static_cast<std::uint64_t>(f * 16384.0f);
        sink.branch(kHeapBase ^ 0x6, ((h >> 13) & 1) != 0);
        sink.branch(kHeapBase ^ 0x7, ((h >> 27) & 1) != 0);
      }
      const int x = static_cast<int>(cell % grid);
      const int y = static_cast<int>(cell / grid);
      const bool reached = cell == connection.target;
      sink.branch(kGridBase ^ 0x1, reached);
      if (reached) break;
      // Stale-entry skip (lazy-deletion A*): data-dependent branch.
      const float here = cost_of(cell);
      const bool stale = f - heuristic(x, y) > here + 1e-4f;
      sink.branch(kGridBase ^ 0x2, stale);
      if (stale) continue;

      constexpr int kDx[4] = {1, -1, 0, 0};
      constexpr int kDy[4] = {0, 0, 1, -1};
      for (int dir = 0; dir < 4; ++dir) {
        const int nx = x + kDx[dir];
        const int ny = y + kDy[dir];
        if (!window.holds(nx, ny)) continue;
        const int edge = state_.edge_between(x, y, nx, ny);
        const float candidate = here + state_.step(edge, options_);
        const std::uint32_t neighbor =
            static_cast<std::uint32_t>(ny) * grid + nx;
        const bool improves = candidate < cost_of(neighbor) - 1e-5f;
        // The defining routing signature: per-neighbor grid-state loads
        // and an improvement test whose outcome is data-dependent.
        sink.load(kGridBase + static_cast<std::uint64_t>(edge) * 48);
        sink.load_private(
            kCostBase + static_cast<std::uint64_t>(neighbor) * 16, stream_);
        sink.branch(kGridBase ^ 0x3, improves);
        sink.int_ops(8);
        sink.fp_ops(3);
        if (improves) {
          set_cost(neighbor, candidate, cell);
          open.emplace(candidate + heuristic(nx, ny), neighbor);
        }
      }
    }

    if (cost_of(connection.target) == kInfinity) {
      throw std::logic_error(
          "route: a search did not reach its target inside its window");
    }

    // Backtrack parents (usage is bumped when the caller commits the path).
    std::uint32_t cursor = connection.target;
    while (cursor != connection.source) {
      const std::uint32_t prev = parent_[cursor];
      const int edge =
          state_.edge_between(static_cast<int>(prev % grid),
                              static_cast<int>(prev / grid),
                              static_cast<int>(cursor % grid),
                              static_cast<int>(cursor / grid));
      edges_out.push_back(static_cast<std::uint32_t>(edge));
      sink.store(kGridBase + static_cast<std::uint64_t>(edge) * 48);
      cursor = prev;
    }
    return expansions;
  }

 private:
  static constexpr float kInfinity = 1e30f;

  [[nodiscard]] float cost_of(std::uint32_t cell) const {
    return epoch_of_[cell] == epoch_ ? g_cost_[cell] : kInfinity;
  }
  void set_cost(std::uint32_t cell, float cost, std::uint32_t parent) {
    g_cost_[cell] = cost;
    parent_[cell] = parent;
    epoch_of_[cell] = epoch_;
  }

  const GridState& state_;
  const RouterOptions& options_;
  std::vector<float> g_cost_;
  std::vector<std::uint32_t> epoch_of_;
  std::vector<std::uint32_t> parent_;
  std::uint32_t epoch_ = 0;
  std::uint32_t stream_ = 0;
};

}  // namespace

RoutingResult GridRouter::run(
    const Netlist& netlist, const place::Placement& placement,
    const std::vector<perf::VmConfig>& configs) const {
  perf::Instrument instrument = perf::Instrument::for_configs(configs);
  RoutingResult result = route(netlist, placement, perf::Sink(instrument));
  result.profile.configs = configs;
  result.profile.counts = instrument.counts();
  return result;
}

RoutingResult GridRouter::route(const Netlist& netlist,
                                const place::Placement& placement,
                                perf::Sink sink) const {
  RoutingResult result;

  // ---- grid sizing -----------------------------------------------------------
  const auto stats = netlist.stats();
  const int grid = std::clamp(
      static_cast<int>(std::ceil(std::sqrt(
          static_cast<double>(std::max<std::size_t>(1, stats.instance_count)) /
          options_.cells_per_gcell))),
      options_.min_grid, options_.max_grid);
  result.grid_size = grid;

  auto gcell_of = [&](NodeId node) {
    const double fx = placement.x[node] / std::max(1e-9, placement.die_width_um);
    const double fy =
        placement.y[node] / std::max(1e-9, placement.die_height_um);
    const int gx = std::clamp(static_cast<int>(fx * grid), 0, grid - 1);
    const int gy = std::clamp(static_cast<int>(fy * grid), 0, grid - 1);
    return static_cast<std::uint32_t>(gy) * grid + gx;
  };

  // ---- net -> two-pin connections (star model) -------------------------------
  const auto fanout = netlist.build_fanout_csr();
  std::vector<Connection> connections;
  for (NodeId driver = 0; driver < netlist.node_count(); ++driver) {
    const auto [begin, end] = fanout.range(driver);
    if (begin == end) continue;
    const std::uint32_t src = gcell_of(driver);
    for (std::uint32_t e = begin; e < end; ++e) {
      const NodeId sink = fanout.targets[e];
      const std::uint32_t dst = gcell_of(sink);
      if (src == dst) continue;  // intra-gcell connection needs no routing
      Connection c;
      c.source = src;
      c.target = dst;
      c.bbox_lo_x = std::min(src % grid, dst % grid);
      c.bbox_hi_x = std::max(src % grid, dst % grid);
      c.bbox_lo_y = std::min(src / grid, dst / grid);
      c.bbox_hi_y = std::max(src / grid, dst / grid);
      connections.push_back(c);
    }
  }
  result.connection_count = connections.size();

  // Route short connections first (classic net ordering).
  std::vector<std::uint32_t> order(connections.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto& ca = connections[a];
    const auto& cb = connections[b];
    const auto pa = (ca.bbox_hi_x - ca.bbox_lo_x) + (ca.bbox_hi_y - ca.bbox_lo_y);
    const auto pb = (cb.bbox_hi_x - cb.bbox_lo_x) + (cb.bbox_hi_y - cb.bbox_lo_y);
    return pa < pb;
  });

  // ---- grid state -------------------------------------------------------------
  GridState state;
  state.grid = grid;
  const std::size_t edge_count =
      2 * static_cast<std::size_t>(grid) * (grid - 1);
  state.usage.assign(edge_count, 0);
  state.capacity.assign(edge_count,
                        static_cast<std::uint16_t>(options_.edge_capacity));
  state.history.assign(edge_count, 0.0f);

  Maze maze(state, options_);
  std::vector<std::vector<std::uint32_t>> routed_edges(connections.size());
  std::vector<RouteOp> ops;
  ops.reserve(connections.size());

  // Routes `pending` in order, each connection searched once against the
  // grid its predecessors left and committed at once.
  auto route_batch = [&](const std::vector<std::uint32_t>& pending,
                         int op_iteration) {
    for (std::uint32_t idx : pending) {
      std::vector<std::uint32_t> edges;
      const std::uint64_t expansions =
          maze.route(connections[idx], edges, idx, sink);
      result.total_expansions += expansions;
      ops.push_back({idx, static_cast<double>(expansions), op_iteration});
      for (std::uint32_t edge : edges) ++state.usage[edge];
      routed_edges[idx] = std::move(edges);
    }
  };

  // ---- initial routing ----------------------------------------------------------
  {
    TRACE_SPAN_VAR(initial_span, "route/initial", "route");
    initial_span.counter("connections",
                         static_cast<double>(connections.size()));
    route_batch(order, /*op_iteration=*/0);
    initial_span.counter("searched", static_cast<double>(order.size()));
    result.routed_count = connections.size();
    initial_span.counter("routed", static_cast<double>(result.routed_count));
  }

  // ---- rip-up and reroute ---------------------------------------------------------
  int iteration = 0;
  for (; iteration < options_.max_rrr_iterations; ++iteration) {
    TRACE_SPAN_VAR(ripup_span, "route/ripup", "route");
    ripup_span.counter("iteration", iteration);
    // Find overflowed edges, accumulate history.
    std::vector<bool> overflowed(edge_count, false);
    std::size_t overflow_count = 0;
    for (std::size_t e = 0; e < edge_count; ++e) {
      const bool over = state.usage[e] > state.capacity[e];
      if (over) {
        overflowed[e] = true;
        ++overflow_count;
        state.history[e] += 1.0f;
      }
      if (e % 16 == 0) {
        sink.load(kGridBase + e * 48);
        sink.branch(kGridBase ^ 0x4, over);
      }
    }
    result.overflowed_edges = overflow_count;
    ripup_span.counter("overflowed_edges",
                       static_cast<double>(overflow_count));
    if (overflow_count == 0) break;

    // Rip up every connection crossing an overflowed edge, then reroute
    // the ripped set in order against the relieved grid.
    std::vector<std::uint32_t> ripped;
    for (std::uint32_t idx : order) {
      auto& edges = routed_edges[idx];
      bool crosses = false;
      for (std::uint32_t edge : edges) {
        if (overflowed[edge]) {
          crosses = true;
          break;
        }
      }
      sink.branch(kGridBase ^ 0x5, crosses);
      if (!crosses) continue;
      for (std::uint32_t edge : edges) --state.usage[edge];
      edges.clear();
      ripped.push_back(idx);
    }
    route_batch(ripped, iteration + 1);
    ripup_span.counter("searched", static_cast<double>(ripped.size()));
  }
  result.rrr_iterations = iteration;

  // Final overflow count (in case the loop exhausted its budget).
  std::size_t final_overflow = 0;
  for (std::size_t e = 0; e < edge_count; ++e) {
    if (state.usage[e] > state.capacity[e]) ++final_overflow;
  }
  result.overflowed_edges = final_overflow;
  for (const auto& edges : routed_edges) {
    result.wirelength_gedges += edges.size();
  }

  // ---- task graph: waves of bbox-disjoint connections -------------------------
  // Within one rip-up iteration, connections are packed into waves whose
  // bounding boxes are pairwise disjoint (first-fit on a coarse occupancy
  // mask); waves execute behind barriers, and the serial overflow analysis
  // separates iterations. Wide waves on large designs yield near-linear
  // scaling; shallow designs cap out (Fig. 3).
  TaskGraph tasks;
  bool has_barrier = false;
  TaskId barrier = 0;
  std::size_t op_cursor = 0;
  std::size_t total_waves = 0;
  int current_iteration = 0;
  while (op_cursor < ops.size()) {
    // Assign this iteration's ops to waves, packing largest boxes first
    // (first-fit-decreasing — the scheduler is free to reorder independent
    // connections).
    std::vector<const RouteOp*> iteration_ops;
    while (op_cursor < ops.size() &&
           ops[op_cursor].iteration == current_iteration) {
      iteration_ops.push_back(&ops[op_cursor++]);
    }
    std::sort(iteration_ops.begin(), iteration_ops.end(),
              [&](const RouteOp* a, const RouteOp* b) {
                auto area = [&](const RouteOp* op) {
                  const Connection& c = connections[op->connection];
                  return (c.bbox_hi_x - c.bbox_lo_x + 1) *
                         (c.bbox_hi_y - c.bbox_lo_y + 1);
                };
                return area(a) > area(b);
              });
    std::vector<BboxMask> wave_masks;
    std::vector<std::vector<double>> wave_costs;
    for (const RouteOp* op_ptr : iteration_ops) {
      const RouteOp& op = *op_ptr;
      const BboxMask mask = make_path_mask(routed_edges[op.connection], grid);
      std::size_t wave = wave_masks.size();
      for (std::size_t w = 0; w < wave_masks.size(); ++w) {
        if (!wave_masks[w].overlaps(mask)) {
          wave = w;
          break;
        }
      }
      if (wave == wave_masks.size()) {
        wave_masks.emplace_back();
        wave_costs.emplace_back();
      }
      wave_masks[wave].merge(mask);
      wave_costs[wave].push_back(op.cost);
    }
    total_waves += wave_masks.size();
    for (const auto& costs : wave_costs) {
      std::vector<TaskId> wave_tasks;
      wave_tasks.reserve(costs.size());
      for (double cost : costs) {
        std::vector<TaskId> deps;
        if (has_barrier) deps.push_back(barrier);
        wave_tasks.push_back(tasks.add_task(cost, deps));
      }
      barrier = tasks.add_task(0.0, wave_tasks);
      has_barrier = true;
    }
    if (has_barrier) {
      // Serial overflow analysis between rip-up iterations.
      barrier = tasks.add_task(static_cast<double>(edge_count) / 64.0,
                               {barrier});
    }
    ++current_iteration;
    if (current_iteration > options_.max_rrr_iterations + 1) break;
  }
  result.wave_count = total_waves;

  result.connection_edges = std::move(routed_edges);

  result.profile.job = "routing";
  result.profile.tasks = std::move(tasks);
  return result;
}

}  // namespace edacloud::route
