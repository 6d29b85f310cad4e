#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <stdexcept>

#include "obs/trace.hpp"
#include "perf/event_log.hpp"
#include "perf/instrument.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::route {

using nl::Netlist;
using nl::NodeId;
using perf::Instrument;
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

/// 64x64 coarse occupancy signature of a bounding box, for wave grouping.
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
  [[nodiscard]] bool test(std::uint32_t bit) const {
    return ((bits[bit >> 6] >> (bit & 63)) & 1) != 0;
  }
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

BboxMask make_mask(const Connection& connection, int grid) {
  BboxMask mask;
  const std::uint32_t lx = coarse(connection.bbox_lo_x, grid);
  const std::uint32_t hx = coarse(connection.bbox_hi_x, grid);
  const std::uint32_t ly = coarse(connection.bbox_lo_y, grid);
  const std::uint32_t hy = coarse(connection.bbox_hi_y, grid);
  for (std::uint32_t y = ly; y <= hy; ++y) {
    for (std::uint32_t x = lx; x <= hx; ++x) {
      mask.set(y * kMaskSide + x);
    }
  }
  return mask;
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
};

/// L-pattern router: try the two one-bend paths between source and
/// target; accept the first whose edges all sit below the congestion
/// limit. Read-only against the grid (usage is bumped by the caller's
/// commit phase) and therefore safe to share across routing workers;
/// instrumentation events go to the per-attempt log for ordered replay.
class PatternRouter {
 public:
  PatternRouter(const GridState& state, const RouterOptions& options)
      : state_(state), options_(options) {}

  bool route(const Connection& connection,
             std::vector<std::uint32_t>& edges_out,
             perf::EventLog* log) const {
    const int grid = state_.grid;
    const int sx = static_cast<int>(connection.source % grid);
    const int sy = static_cast<int>(connection.source / grid);
    const int tx = static_cast<int>(connection.target % grid);
    const int ty = static_cast<int>(connection.target / grid);
    // Pattern 1: horizontal first; pattern 2: vertical first.
    for (int bend = 0; bend < 2; ++bend) {
      std::vector<std::uint32_t> edges;
      const bool ok = bend == 0 ? trace(sx, sy, tx, sy, edges, log) &&
                                      trace(tx, sy, tx, ty, edges, log)
                                : trace(sx, sy, sx, ty, edges, log) &&
                                      trace(sx, ty, tx, ty, edges, log);
      if (log != nullptr) log->branch(kGridBase ^ 0x8, ok);
      if (ok) {
        if (log != nullptr) {
          for (std::uint32_t edge : edges) {
            log->store(kGridBase + static_cast<std::uint64_t>(edge) * 48);
          }
        }
        edges_out = std::move(edges);
        return true;
      }
    }
    return false;
  }

 private:
  /// Append the straight segment (x0,y0)->(x1,y1); false if any edge is
  /// too congested (axis-aligned segments only).
  bool trace(int x0, int y0, int x1, int y1,
             std::vector<std::uint32_t>& edges, perf::EventLog* log) const {
    const int dx = x1 > x0 ? 1 : (x1 < x0 ? -1 : 0);
    const int dy = y1 > y0 ? 1 : (y1 < y0 ? -1 : 0);
    int x = x0, y = y0;
    while (x != x1 || y != y1) {
      const int nx = x + dx;
      const int ny = y + dy;
      const int edge = state_.edge_between(x, y, nx, ny);
      if (log != nullptr) {
        log->load(kGridBase + static_cast<std::uint64_t>(edge) * 48);
        log->int_ops(4);
      }
      const double limit = options_.pattern_congestion_limit *
                           static_cast<double>(state_.capacity[edge]);
      if (static_cast<double>(state_.usage[edge]) + 1.0 > limit) {
        return false;
      }
      edges.push_back(static_cast<std::uint32_t>(edge));
      x = nx;
      y = ny;
    }
    return true;
  }

  const GridState& state_;
  const RouterOptions& options_;
};

/// Congestion-aware A* over the grid. Read-only against the grid state
/// (commit bumps usage), with per-instance scratch arrays — each worker
/// slot owns one Maze, so searches run concurrently without sharing.
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

  /// Route one connection within its (slightly inflated) bbox.
  /// Appends the used edges to `edges_out`; returns expansions (0 = fail).
  std::uint64_t route(const Connection& connection,
                      std::vector<std::uint32_t>& edges_out,
                      std::uint32_t stream, perf::EventLog* log) {
    ++epoch_;
    stream_ = stream;
    const int grid = state_.grid;
    const int sx = static_cast<int>(connection.source % grid);
    const int sy = static_cast<int>(connection.source / grid);
    const int tx = static_cast<int>(connection.target % grid);
    const int ty = static_cast<int>(connection.target / grid);
    // Inflated search window (lets detours route around congestion).
    const int margin = 2 + grid / 32;
    const int lo_x = std::max(0, static_cast<int>(connection.bbox_lo_x) - margin);
    const int lo_y = std::max(0, static_cast<int>(connection.bbox_lo_y) - margin);
    const int hi_x = std::min(grid - 1, static_cast<int>(connection.bbox_hi_x) + margin);
    const int hi_y = std::min(grid - 1, static_cast<int>(connection.bbox_hi_y) + margin);

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
      if (log != nullptr) {
        log->load_private(kHeapBase + (expansions % 1024) * 16, stream_);
        log->int_ops(14);
        // Priority-queue sift comparisons: direction depends on the cost
        // values of near-equal keys — effectively unpredictable,
        // data-dependent branches.
        const std::uint64_t h =
            (static_cast<std::uint64_t>(cell) * 0x9E3779B97F4A7C15ULL) ^
            static_cast<std::uint64_t>(f * 16384.0f);
        log->branch(kHeapBase ^ 0x6, ((h >> 13) & 1) != 0);
        log->branch(kHeapBase ^ 0x7, ((h >> 27) & 1) != 0);
      }
      const int x = static_cast<int>(cell % grid);
      const int y = static_cast<int>(cell / grid);
      const bool reached = cell == connection.target;
      if (log != nullptr) log->branch(kGridBase ^ 0x1, reached);
      if (reached) break;
      // Stale-entry skip (lazy-deletion A*): data-dependent branch.
      const float here = cost_of(cell);
      const bool stale = f - heuristic(x, y) > here + 1e-4f;
      if (log != nullptr) log->branch(kGridBase ^ 0x2, stale);
      if (stale) continue;

      constexpr int kDx[4] = {1, -1, 0, 0};
      constexpr int kDy[4] = {0, 0, 1, -1};
      for (int dir = 0; dir < 4; ++dir) {
        const int nx = x + kDx[dir];
        const int ny = y + kDy[dir];
        if (nx < lo_x || nx > hi_x || ny < lo_y || ny > hi_y) continue;
        const int edge = state_.edge_between(x, y, nx, ny);
        const float congestion =
            static_cast<float>(state_.usage[edge]) /
            static_cast<float>(state_.capacity[edge]);
        const float step =
            1.0f +
            static_cast<float>(options_.congestion_weight) *
                std::max(0.0f, congestion - 0.8f) +
            static_cast<float>(options_.history_weight) *
                state_.history[edge];
        const float candidate = here + step;
        const std::uint32_t neighbor =
            static_cast<std::uint32_t>(ny) * grid + nx;
        const bool improves = candidate < cost_of(neighbor) - 1e-5f;
        if (log != nullptr) {
          // The defining routing signature: per-neighbor grid-state loads
          // and an improvement test whose outcome is data-dependent.
          log->load(kGridBase + static_cast<std::uint64_t>(edge) * 48);
          log->load_private(
              kCostBase + static_cast<std::uint64_t>(neighbor) * 16, stream_);
          log->branch(kGridBase ^ 0x3, improves);
          log->int_ops(8);
          log->fp_ops(3);
        }
        if (improves) {
          set_cost(neighbor, candidate, cell);
          open.emplace(candidate + heuristic(nx, ny), neighbor);
        }
      }
    }

    if (cost_of(connection.target) == kInfinity) return 0;

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
      if (log != nullptr) {
        log->store(kGridBase + static_cast<std::uint64_t>(edge) * 48);
      }
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

RoutingResult GridRouter::run(const Netlist& netlist,
                              const place::Placement& placement,
                              const std::vector<perf::VmConfig>& configs,
                              std::vector<perf::EventLog>* replayed) const {
  Instrument instrument_storage;
  Instrument* ins = nullptr;
  if (!configs.empty()) {
    instrument_storage = Instrument(configs);
    ins = &instrument_storage;
  }
  // Every instrumentation event reaches `ins` through here, as a log.
  auto replay = [&](const perf::EventLog& log) {
    ins->replay(log);
    if (replayed != nullptr) replayed->push_back(log);
  };

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

  const int threads =
      options_.threads > 0 ? options_.threads : util::global_thread_count();
  const int slot_count = util::parallel_slot_count(threads);
  // One maze per worker slot, built lazily (the scratch arrays are
  // grid-sized). A slot is only ever driven by one thread at a time.
  std::vector<std::unique_ptr<Maze>> mazes(
      static_cast<std::size_t>(slot_count));
  auto maze_for = [&](unsigned slot) -> Maze& {
    auto& maze = mazes[slot];
    if (!maze) maze = std::make_unique<Maze>(state, options_);
    return *maze;
  };

  const PatternRouter patterns(state, options_);
  std::vector<std::vector<std::uint32_t>> routed_edges(connections.size());
  std::vector<RouteOp> ops;
  ops.reserve(connections.size());

  // Batched conflict-resolution routing (the TritonRoute/Galois recipe):
  // each round routes every pending connection in parallel against a frozen
  // grid, then commits serially in pending order. A path whose coarse
  // region overlaps an earlier commit from the same round is deferred and
  // rerouted next round against the updated grid — so no thread ever
  // observes a concurrent usage write, and commit order (and with it usage,
  // history, QoR and the replayed instrumentation stream) depends only on
  // the connection order, never the thread count. Every round commits at
  // least the first pending connection; after kMaxBatchRounds the heavily
  // conflicting stragglers are finished serially against live state.
  //
  // A round is decided in fixed slices of kSlice pending attempts. Every
  // path crosses the coarse cells of both its endpoints, so an attempt
  // whose source or target cell is already in the round's committed mask
  // would fail the overlap test whatever path it found: it is deferred
  // without a search. The rest of the slice is searched in parallel, then
  // decided serially.
  constexpr int kMaxBatchRounds = 6;
  constexpr std::size_t kBatchGrain = 8;  // fixed: chunking must not depend
                                          // on the thread count
  constexpr std::size_t kSlice = 32;      // fixed; outputs do not depend on it
  struct Attempt {
    std::vector<std::uint32_t> edges;
    std::uint64_t expansions = 0;
    bool pattern = false;
    bool routed = false;
  };
  struct BatchStats {
    int rounds = 0;
    std::uint64_t searched = 0;     // first-pass and straggler searches run
    std::uint64_t prefiltered = 0;  // attempts deferred without a search
  };

  auto endpoint_committed = [&](const BboxMask& committed,
                                std::uint32_t idx) {
    const Connection& c = connections[idx];
    const std::uint32_t side = static_cast<std::uint32_t>(grid);
    return committed.test(coarse_bit(c.source % side, c.source / side, grid)) ||
           committed.test(coarse_bit(c.target % side, c.target / side, grid));
  };

  // One routing attempt against the current grid; events go to `log`
  // (null = uninstrumented). A pure function of the grid, the connection
  // and its stream id — Maze scratch is epoch-guarded.
  auto route_one = [&](std::uint32_t idx, bool use_patterns, Maze& maze,
                       perf::EventLog* log) {
    Attempt attempt;
    if (use_patterns &&
        patterns.route(connections[idx], attempt.edges, log)) {
      attempt.pattern = true;
      attempt.routed = true;
      return attempt;
    }
    attempt.expansions = maze.route(connections[idx], attempt.edges, idx, log);
    attempt.routed = attempt.expansions > 0;
    return attempt;
  };

  auto commit = [&](std::uint32_t idx, Attempt&& attempt, int op_iteration,
                    bool count_routed) {
    if (count_routed) ++result.routed_count;
    if (attempt.pattern) ++result.pattern_routed;
    // Pattern cost: one pass over the path (cheap vs a maze search).
    ops.push_back({idx,
                   attempt.pattern
                       ? static_cast<double>(attempt.edges.size() + 2)
                       : static_cast<double>(attempt.expansions),
                   op_iteration});
    for (std::uint32_t edge : attempt.edges) ++state.usage[edge];
    routed_edges[idx] = std::move(attempt.edges);
  };

  // Routes `pending` to completion.
  auto route_batch = [&](std::vector<std::uint32_t> pending,
                         bool allow_patterns, int op_iteration,
                         bool count_routed) {
    const bool use_patterns = allow_patterns && options_.pattern_route;
    BatchStats stats;
    std::vector<std::size_t> searching;
    while (!pending.empty() && stats.rounds < kMaxBatchRounds) {
      ++stats.rounds;
      const std::size_t n = pending.size();
      std::vector<Attempt> attempts(n);
      std::vector<std::size_t> winners;
      std::vector<std::uint32_t> deferred;
      BboxMask committed_mask;
      for (std::size_t begin = 0; begin < n; begin += kSlice) {
        const std::size_t end = std::min(n, begin + kSlice);
        searching.clear();
        for (std::size_t i = begin; i < end; ++i) {
          if (!endpoint_committed(committed_mask, pending[i])) {
            searching.push_back(i);
          }
        }
        stats.searched += searching.size();
        stats.prefiltered += (end - begin) - searching.size();
        util::parallel_for(
            threads, 0, searching.size(), kBatchGrain,
            [&](std::size_t chunk_begin, std::size_t chunk_end, std::size_t,
                unsigned slot) {
              Maze& maze = maze_for(slot);
              for (std::size_t k = chunk_begin; k < chunk_end; ++k) {
                const std::size_t i = searching[k];
                attempts[i] =
                    route_one(pending[i], use_patterns, maze, nullptr);
              }
            });

        // Serial deterministic commit decision. An attempt searched above
        // can still be endpoint-covered by a commit earlier in this slice;
        // its search is then not read, so it counts no expansions.
        for (std::size_t i = begin; i < end; ++i) {
          if (endpoint_committed(committed_mask, pending[i])) {
            deferred.push_back(pending[i]);
            continue;
          }
          const Attempt& attempt = attempts[i];
          result.total_expansions += attempt.expansions;
          if (!attempt.routed) continue;  // unroutable: dropped, as in serial
          const BboxMask mask = make_path_mask(attempt.edges, grid);
          if (committed_mask.overlaps(mask)) {
            deferred.push_back(pending[i]);
            continue;
          }
          committed_mask.merge(mask);
          winners.push_back(i);
        }
      }

      // Instrumented runs log only the searches that commit: the winners
      // are routed again, still against the frozen grid, so each log is
      // exactly the one its first-pass search would have recorded.
      std::vector<perf::EventLog> logs(ins != nullptr ? winners.size() : 0);
      util::parallel_for(
          threads, 0, logs.size(), kBatchGrain,
          [&](std::size_t chunk_begin, std::size_t chunk_end, std::size_t,
              unsigned slot) {
            Maze& maze = maze_for(slot);
            for (std::size_t w = chunk_begin; w < chunk_end; ++w) {
              const std::size_t i = winners[w];
              const Attempt again =
                  route_one(pending[i], use_patterns, maze, &logs[w]);
              if (again.edges != attempts[i].edges ||
                  again.expansions != attempts[i].expansions) {
                throw std::logic_error(
                    "route: instrumented re-route diverged from its first "
                    "pass");
              }
            }
          });

      for (std::size_t w = 0; w < winners.size(); ++w) {
        const std::size_t i = winners[w];
        if (ins != nullptr) replay(logs[w]);
        commit(pending[i], std::move(attempts[i]), op_iteration, count_routed);
      }
      pending = std::move(deferred);
    }

    // Serial straggler tail against live state (fixed order, deterministic).
    if (!pending.empty()) {
      Maze& maze =
          maze_for(static_cast<unsigned>(util::this_thread_pool_slot()));
      for (std::uint32_t idx : pending) {
        perf::EventLog log;
        Attempt attempt =
            route_one(idx, use_patterns, maze, ins != nullptr ? &log : nullptr);
        ++stats.searched;
        result.total_expansions += attempt.expansions;
        if (!attempt.routed) continue;
        if (ins != nullptr) replay(log);
        commit(idx, std::move(attempt), op_iteration, count_routed);
      }
    }
    return stats;
  };

  // ---- initial routing ----------------------------------------------------------
  {
    TRACE_SPAN_VAR(initial_span, "route/initial", "route");
    initial_span.counter("connections",
                         static_cast<double>(connections.size()));
    initial_span.counter("threads", static_cast<double>(threads));
    const BatchStats stats =
        route_batch(order, /*allow_patterns=*/true, /*op_iteration=*/0,
                    /*count_routed=*/true);
    initial_span.counter("batch_rounds", static_cast<double>(stats.rounds));
    initial_span.counter("searched", static_cast<double>(stats.searched));
    initial_span.counter("prefiltered",
                         static_cast<double>(stats.prefiltered));
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
    perf::EventLog scan_log;
    for (std::size_t e = 0; e < edge_count; ++e) {
      const bool over = state.usage[e] > state.capacity[e];
      if (over) {
        overflowed[e] = true;
        ++overflow_count;
        state.history[e] += 1.0f;
      }
      if (ins != nullptr && e % 16 == 0) {
        scan_log.load(kGridBase + e * 48);
        scan_log.branch(kGridBase ^ 0x4, over);
      }
    }
    if (ins != nullptr) replay(scan_log);
    scan_log.clear();
    result.overflowed_edges = overflow_count;
    ripup_span.counter("overflowed_edges",
                       static_cast<double>(overflow_count));
    if (overflow_count == 0) break;

    // Rip up every connection crossing an overflowed edge, then reroute
    // the ripped set in batched rounds against the relieved grid.
    std::vector<std::uint32_t> ripped;
    for (std::uint32_t idx : order) {
      auto& edges = routed_edges[idx];
      if (edges.empty()) continue;
      bool crosses = false;
      for (std::uint32_t edge : edges) {
        if (overflowed[edge]) {
          crosses = true;
          break;
        }
      }
      if (ins != nullptr) scan_log.branch(kGridBase ^ 0x5, crosses);
      if (!crosses) continue;
      for (std::uint32_t edge : edges) --state.usage[edge];
      edges.clear();
      ripped.push_back(idx);
    }
    if (ins != nullptr) replay(scan_log);
    const BatchStats stats =
        route_batch(std::move(ripped), /*allow_patterns=*/false,
                    iteration + 1, /*count_routed=*/false);
    ripup_span.counter("batch_rounds", static_cast<double>(stats.rounds));
    ripup_span.counter("searched", static_cast<double>(stats.searched));
    ripup_span.counter("prefiltered",
                       static_cast<double>(stats.prefiltered));
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
      const auto& final_edges = routed_edges[op.connection];
      const BboxMask mask =
          final_edges.empty() ? make_mask(connections[op.connection], grid)
                              : make_path_mask(final_edges, grid);
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
  result.profile.configs = configs;
  if (ins != nullptr) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      result.profile.counts.push_back(ins->counts(i));
    }
  }
  result.profile.tasks = std::move(tasks);
  return result;
}

}  // namespace edacloud::route
