#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.hpp"
#include "perf/sink.hpp"

namespace edacloud::place {

using nl::Netlist;
using nl::NodeId;
using perf::TaskGraph;
using perf::TaskId;

namespace {

// Abstract address-space bases for the instrumented arrays.
constexpr std::uint64_t kMatrixBase = 0x40ULL << 23;
constexpr std::uint64_t kVecXBase = 0x41ULL << 23;
constexpr std::uint64_t kVecRBase = 0x42ULL << 23;
constexpr std::uint64_t kVecPBase = 0x43ULL << 23;
constexpr std::uint64_t kVecQBase = 0x44ULL << 23;
constexpr std::uint64_t kBinBase = 0x45ULL << 23;
constexpr std::uint64_t kSortBase = 0x46ULL << 23;

// Event helpers: sequential sweeps stream at cache-line granularity and op
// counts are batched, so instrumentation cost stays proportional to the
// *memory traffic*, not the flop count.

/// One load per cache line of a `bytes`-long sweep from `base`.
void stream(perf::Sink sink, std::uint64_t base, std::size_t bytes) {
  if (!sink) return;
  for (std::size_t off = 0; off < bytes; off += 64) sink.load(base + off);
}

/// Predictable loop-control branches for a loop of `trips` iterations.
void loop(perf::Sink sink, std::uint64_t site, std::uint64_t trips) {
  if (!sink || trips == 0) return;
  // The predictor sees a strongly-taken branch; emit a bounded sample.
  const std::uint64_t sample = std::min<std::uint64_t>(trips, 64);
  for (std::uint64_t i = 0; i + 1 < sample; ++i) sink.branch(site, true);
  sink.branch(site, false);
}

struct StarProblem {
  // Laplacian in CSR over movable nodes; fixed-neighbor terms fold into b.
  std::vector<std::uint32_t> row_offsets;
  std::vector<std::uint32_t> cols;   // movable indices
  std::vector<double> values;        // off-diagonal (negative) weights
  std::vector<double> diagonal;
  std::vector<double> bx, by;
  std::vector<NodeId> movable;             // movable index -> node
  std::vector<std::int32_t> movable_index; // node -> movable index or -1
  std::size_t edge_count = 0;
};

/// Place I/O pads evenly around the die periphery (PIs left+top, POs
/// right+bottom), in interface order.
void place_pads(const Netlist& netlist, double width, double height,
                Placement& placement) {
  const auto& inputs = netlist.inputs();
  const auto& outputs = netlist.outputs();
  const std::size_t half_in = inputs.size() / 2 + inputs.size() % 2;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const NodeId id = inputs[i];
    if (i < half_in) {
      placement.x[id] = 0.0;
      placement.y[id] =
          height * static_cast<double>(i + 1) / (half_in + 1);
    } else {
      placement.x[id] = width * static_cast<double>(i - half_in + 1) /
                        (inputs.size() - half_in + 1);
      placement.y[id] = height;
    }
  }
  const std::size_t half_out = outputs.size() / 2 + outputs.size() % 2;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const NodeId id = outputs[i];
    if (i < half_out) {
      placement.x[id] = width;
      placement.y[id] =
          height * static_cast<double>(i + 1) / (half_out + 1);
    } else {
      placement.x[id] = width * static_cast<double>(i - half_out + 1) /
                        (outputs.size() - half_out + 1);
      placement.y[id] = 0.0;
    }
  }
}

StarProblem build_problem(const Netlist& netlist, const Placement& pads,
                          perf::Sink sink) {
  StarProblem problem;
  const std::size_t n = netlist.node_count();
  problem.movable_index.assign(n, -1);
  for (NodeId id = 0; id < n; ++id) {
    if (netlist.is_cell(id)) {
      problem.movable_index[id] =
          static_cast<std::int32_t>(problem.movable.size());
      problem.movable.push_back(id);
    }
  }
  const std::size_t m = problem.movable.size();
  const auto fanouts = netlist.fanout_counts();

  // Accumulate weighted star edges into dense-per-row maps.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows(m);
  problem.diagonal.assign(m, 0.0);
  problem.bx.assign(m, 0.0);
  problem.by.assign(m, 0.0);

  auto add_edge = [&](NodeId u, NodeId v, double weight) {
    ++problem.edge_count;
    const std::int32_t iu = problem.movable_index[u];
    const std::int32_t iv = problem.movable_index[v];
    sink.int_ops(6);
    if (iu >= 0) problem.diagonal[iu] += weight;
    if (iv >= 0) problem.diagonal[iv] += weight;
    if (iu >= 0 && iv >= 0) {
      rows[iu].emplace_back(static_cast<std::uint32_t>(iv), -weight);
      rows[iv].emplace_back(static_cast<std::uint32_t>(iu), -weight);
    } else if (iu >= 0) {
      problem.bx[iu] += weight * pads.x[v];
      problem.by[iu] += weight * pads.y[v];
    } else if (iv >= 0) {
      problem.bx[iv] += weight * pads.x[u];
      problem.by[iv] += weight * pads.y[u];
    }
  };

  for (NodeId id = 0; id < n; ++id) {
    const auto& node = netlist.node(id);
    for (NodeId fanin : node.fanins) {
      const double weight =
          1.0 / std::max<std::uint32_t>(1, fanouts[fanin]);
      add_edge(fanin, id, weight);
    }
    sink.load(kMatrixBase + id * 16);
  }

  // Flatten to CSR (duplicates merged).
  problem.row_offsets.assign(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    auto& row = rows[i];
    std::sort(row.begin(), row.end());
    std::size_t unique = 0;
    for (std::size_t j = 0; j < row.size();) {
      std::size_t k = j;
      double sum = 0.0;
      while (k < row.size() && row[k].first == row[j].first) {
        sum += row[k].second;
        ++k;
      }
      row[unique++] = {row[j].first, sum};
      j = k;
    }
    row.resize(unique);
    problem.row_offsets[i + 1] =
        problem.row_offsets[i] + static_cast<std::uint32_t>(unique);
  }
  problem.cols.reserve(problem.row_offsets[m]);
  problem.values.reserve(problem.row_offsets[m]);
  for (std::size_t i = 0; i < m; ++i) {
    for (const auto& [col, value] : rows[i]) {
      problem.cols.push_back(col);
      problem.values.push_back(value);
    }
  }
  return problem;
}

/// Jacobi-preconditioned CG on (L + anchor*I) x = b + anchor*target.
/// Returns iterations executed.
int cg_solve(const StarProblem& problem, const std::vector<double>& b,
             const std::vector<double>* anchor_target, double anchor_weight,
             std::vector<double>& x, int max_iterations, perf::Sink sink) {
  const std::size_t m = problem.diagonal.size();
  if (m == 0) return 0;
  std::vector<double> r(m), p(m), q(m), z(m);
  std::vector<double> diag(m);
  for (std::size_t i = 0; i < m; ++i) {
    diag[i] = problem.diagonal[i] +
              (anchor_target != nullptr ? anchor_weight : 0.0) + 1e-12;
  }

  auto apply = [&](const std::vector<double>& in, std::vector<double>& out) {
    for (std::size_t i = 0; i < m; ++i) {
      double acc = diag[i] * in[i];
      const std::uint32_t begin = problem.row_offsets[i];
      const std::uint32_t end = problem.row_offsets[i + 1];
      for (std::uint32_t e = begin; e < end; ++e) {
        acc += problem.values[e] * in[problem.cols[e]];
        // Scattered gather on the solution vector: the cache-hostile part.
        sink.load(kVecXBase + problem.cols[e] * 8ULL);
      }
      sink.avx_ops(2 * (end - begin) + 2);
      out[i] = acc;
    }
    stream(sink, kMatrixBase, (problem.values.size() * 12));
    stream(sink, kVecQBase, m * 8);
    loop(sink, kMatrixBase ^ 0x7, m);
  };

  auto dot = [&](const std::vector<double>& a2, const std::vector<double>& b2) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += a2[i] * b2[i];
    sink.avx_ops(2 * m);
    stream(sink, kVecRBase, m * 8);
    stream(sink, kVecPBase, m * 8);
    return acc;
  };

  // r = b' - A x, with b' folding anchors in.
  std::vector<double> rhs = b;
  if (anchor_target != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      rhs[i] += anchor_weight * (*anchor_target)[i];
    }
  }
  apply(x, q);
  for (std::size_t i = 0; i < m; ++i) r[i] = rhs[i] - q[i];
  for (std::size_t i = 0; i < m; ++i) z[i] = r[i] / diag[i];
  p = z;
  double rho = dot(r, z);
  const double tolerance = 1e-10 * std::max(1.0, dot(rhs, rhs));

  int iteration = 0;
  for (; iteration < max_iterations; ++iteration) {
    sink.branch(kVecXBase ^ 0x9, rho > tolerance);
    if (rho <= tolerance) break;
    apply(p, q);
    const double alpha = rho / std::max(dot(p, q), 1e-30);
    for (std::size_t i = 0; i < m; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
      z[i] = r[i] / diag[i];
    }
    sink.avx_ops(6 * m);
    stream(sink, kVecXBase, m * 8);
    const double rho_next = dot(r, z);
    const double beta = rho_next / std::max(rho, 1e-30);
    for (std::size_t i = 0; i < m; ++i) p[i] = z[i] + beta * p[i];
    sink.avx_ops(2 * m);
    rho = rho_next;
  }
  return iteration;
}

/// Recursive-bisection spreading: map the (clumped) quadratic solution onto
/// the die uniformly while preserving relative cell order — the locality-
/// preserving step that keeps downstream routing bounding boxes tight.
void spread(const StarProblem& problem, double width, double height,
            std::vector<double>& x, std::vector<double>& y,
            perf::Sink sink) {
  const std::size_t m = problem.movable.size();
  if (m == 0) return;
  std::vector<std::uint32_t> indices(m);
  std::iota(indices.begin(), indices.end(), 0);

  struct Region {
    std::size_t begin, end;
    double x0, y0, x1, y1;
  };
  std::vector<Region> stack{{0, m, 0.0, 0.0, width, height}};
  while (!stack.empty()) {
    const Region region = stack.back();
    stack.pop_back();
    const std::size_t count = region.end - region.begin;
    if (count == 0) continue;
    const double rw = region.x1 - region.x0;
    const double rh = region.y1 - region.y0;
    if (count <= 4 || (rw < 2.0 && rh < 2.0)) {
      // Leaf: jitter-free even scatter inside the region.
      std::size_t i = 0;
      for (std::size_t idx = region.begin; idx < region.end; ++idx, ++i) {
        const std::uint32_t cell = indices[idx];
        x[cell] = region.x0 + rw * (static_cast<double>(i % 2) + 0.5) / 2.0;
        y[cell] = region.y0 + rh * (static_cast<double>(i / 2) + 0.5) /
                                  std::max<double>(1.0, (count + 1) / 2);
        sink.store(kBinBase + cell * 16ULL);
      }
      continue;
    }
    const bool cut_x = rw >= rh;
    auto first = indices.begin() + static_cast<std::ptrdiff_t>(region.begin);
    auto last = indices.begin() + static_cast<std::ptrdiff_t>(region.end);
    auto mid = first + static_cast<std::ptrdiff_t>(count / 2);
    if (cut_x) {
      std::nth_element(first, mid, last, [&x](std::uint32_t a, std::uint32_t b) {
        return x[a] < x[b];
      });
    } else {
      std::nth_element(first, mid, last, [&y](std::uint32_t a, std::uint32_t b) {
        return y[a] < y[b];
      });
    }
    sink.int_ops(count * 2);
    stream(sink, kBinBase, count * 4);
    const std::size_t half = region.begin + count / 2;
    if (cut_x) {
      const double cut = region.x0 + rw * 0.5;
      stack.push_back({region.begin, half, region.x0, region.y0, cut,
                       region.y1});
      stack.push_back({half, region.end, cut, region.y0, region.x1,
                       region.y1});
    } else {
      const double cut = region.y0 + rh * 0.5;
      stack.push_back({region.begin, half, region.x0, region.y0, region.x1,
                       cut});
      stack.push_back({half, region.end, region.x0, cut, region.x1,
                       region.y1});
    }
  }
}

/// Row legalization (Abacus-lite): assign cells to rows respecting row
/// capacity, then pack each row left-to-right in target-x order, clamping
/// so every remaining cell still fits. Guarantees in-die, non-overlapping
/// placements while staying close to the global-placement positions.
void legalize(const Netlist& netlist, const StarProblem& problem,
              double width, double height, double row_height,
              std::vector<double>& x, std::vector<double>& y,
              perf::Sink sink) {
  const std::size_t m = problem.movable.size();
  const int rows = std::max(1, static_cast<int>(height / row_height));
  const auto& library = netlist.library();

  auto width_of = [&](std::uint32_t idx) {
    const NodeId node = problem.movable[idx];
    return library.cell(netlist.node(node).cell).area_um2 / row_height;
  };

  // ---- pass 1: row assignment with capacity bookkeeping --------------------
  std::vector<std::vector<std::uint32_t>> row_members(
      static_cast<std::size_t>(rows));
  std::vector<double> row_fill(static_cast<std::size_t>(rows), 0.0);
  std::vector<std::uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&y](std::uint32_t a, std::uint32_t b) {
    return y[a] < y[b];
  });
  sink.int_ops(m * 8);  // sort work
  stream(sink, kSortBase, m * 8);

  for (std::uint32_t idx : order) {
    const double cell_width = width_of(idx);
    const int target =
        std::clamp(static_cast<int>(y[idx] / row_height), 0, rows - 1);
    int chosen = -1;
    for (int delta = 0; delta < rows && chosen < 0; ++delta) {
      for (const int candidate : {target + delta, target - delta}) {
        if (candidate < 0 || candidate >= rows) continue;
        const bool fits =
            row_fill[static_cast<std::size_t>(candidate)] + cell_width <=
            width + 1e-9;
        sink.branch(kSortBase ^ 0xD, fits);
        if (fits) {
          chosen = candidate;
          break;
        }
      }
    }
    if (chosen < 0) chosen = target;  // utilization > 1: best effort
    row_members[static_cast<std::size_t>(chosen)].push_back(idx);
    row_fill[static_cast<std::size_t>(chosen)] += cell_width;
    sink.load(kSortBase + static_cast<std::uint64_t>(chosen) * 8);
    sink.int_ops(12);
  }

  // ---- pass 2: per-row packing with suffix clamping -------------------------
  for (int row = 0; row < rows; ++row) {
    auto& members = row_members[static_cast<std::size_t>(row)];
    std::sort(members.begin(), members.end(),
              [&x](std::uint32_t a, std::uint32_t b) { return x[a] < x[b]; });
    // suffix[i] = total width of members[i..] (room the tail still needs).
    std::vector<double> suffix(members.size() + 1, 0.0);
    for (std::size_t i = members.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + width_of(members[i]);
    }
    double cursor = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::uint32_t idx = members[i];
      const double limit = width - suffix[i];  // leave room for the rest
      x[idx] = std::clamp(std::max(cursor, x[idx]), cursor,
                          std::max(cursor, limit));
      cursor = x[idx] + width_of(idx);
      y[idx] = (row + 0.5) * row_height;
      sink.int_ops(8);
    }
  }
}

}  // namespace

double hpwl_um(const Netlist& netlist, const Placement& placement) {
  const auto fanout = netlist.build_fanout_csr();
  double total = 0.0;
  for (NodeId driver = 0; driver < netlist.node_count(); ++driver) {
    const auto [begin, end] = fanout.range(driver);
    if (begin == end) continue;
    double min_x = placement.x[driver], max_x = placement.x[driver];
    double min_y = placement.y[driver], max_y = placement.y[driver];
    for (std::uint32_t e = begin; e < end; ++e) {
      const NodeId sink = fanout.targets[e];
      min_x = std::min(min_x, placement.x[sink]);
      max_x = std::max(max_x, placement.x[sink]);
      min_y = std::min(min_y, placement.y[sink]);
      max_y = std::max(max_y, placement.y[sink]);
    }
    total += (max_x - min_x) + (max_y - min_y);
  }
  return total;
}

PlacementResult QuadraticPlacer::run(
    const Netlist& netlist, const std::vector<perf::VmConfig>& configs) const {
  perf::Instrument instrument = perf::Instrument::for_configs(configs);
  const perf::Sink sink(instrument);

  PlacementResult result;
  Placement& placement = result.placement;

  // Die sizing from total area and target utilization.
  const auto stats = netlist.stats();
  const double die_area =
      std::max(1.0, stats.total_area_um2 / options_.utilization);
  const double side = std::ceil(std::sqrt(die_area));
  placement.die_width_um = side;
  placement.die_height_um = side;
  placement.x.assign(netlist.node_count(), side / 2);
  placement.y.assign(netlist.node_count(), side / 2);

  TRACE_SPAN_VAR(run_span, "place/run", "place");
  place_pads(netlist, side, side, placement);
  StarProblem problem = [&] {
    TRACE_SPAN("place/build_problem", "place");
    return build_problem(netlist, placement, sink);
  }();
  const std::size_t m = problem.movable.size();
  run_span.counter("movable_cells", static_cast<double>(m));

  std::vector<double> x(m, side / 2), y(m, side / 2);
  std::vector<double> anchor_x, anchor_y;

  int iterations = 0;
  {
    TRACE_SPAN_VAR(solve_span, "place/solve", "place");
    for (int global = 0; global < std::max(1, options_.global_iterations);
         ++global) {
      const bool anchored = global > 0;
      iterations += cg_solve(problem, problem.bx,
                             anchored ? &anchor_x : nullptr,
                             options_.anchor_weight, x,
                             options_.cg_iterations, sink);
      iterations += cg_solve(problem, problem.by,
                             anchored ? &anchor_y : nullptr,
                             options_.anchor_weight, y,
                             options_.cg_iterations, sink);
      TRACE_SPAN("place/spread", "place");
      spread(problem, side, side, x, y, sink);
      anchor_x = x;
      anchor_y = y;
    }
    solve_span.counter("cg_iterations", iterations);
  }

  // Write back pre-legalization coordinates for the HPWL snapshot.
  for (std::size_t i = 0; i < m; ++i) {
    placement.x[problem.movable[i]] = x[i];
    placement.y[problem.movable[i]] = y[i];
  }
  result.hpwl_before_legalization_um = hpwl_um(netlist, placement);

  {
    TRACE_SPAN("place/legalize", "place");
    legalize(netlist, problem, side, side, placement.row_height_um, x, y,
             sink);
  }
  for (std::size_t i = 0; i < m; ++i) {
    placement.x[problem.movable[i]] = x[i];
    placement.y[problem.movable[i]] = y[i];
  }
  result.hpwl_um = hpwl_um(netlist, placement);
  result.solver_iterations = iterations;
  run_span.counter("hpwl_um", result.hpwl_um);

  // ---- task graph: CG iteration chain with parallel SpMV chunks ------------
  TaskGraph tasks;
  const double chunk_rows = 128.0;
  const double iteration_work = static_cast<double>(
      std::max<std::size_t>(1, problem.values.size() + 6 * m));
  bool has_prev = false;
  TaskId prev = 0;
  const int total_solves = 2 * std::max(1, options_.global_iterations);
  const int iters_per_solve = std::max(1, iterations / std::max(1, total_solves));
  for (int solve = 0; solve < total_solves; ++solve) {
    for (int it = 0; it < iters_per_solve; ++it) {
      std::vector<TaskId> deps;
      if (has_prev) deps.push_back(prev);
      const TaskId serial = tasks.add_task(
          iteration_work * options_.serial_fraction, deps);
      const int chunks = std::max(
          1, static_cast<int>(std::ceil(static_cast<double>(m) / chunk_rows)));
      std::vector<TaskId> chunk_ids;
      for (int c = 0; c < chunks; ++c) {
        chunk_ids.push_back(tasks.add_task(
            iteration_work * (1.0 - options_.serial_fraction) / chunks,
            {serial}));
      }
      prev = tasks.add_task(0.0, chunk_ids);
      has_prev = true;
    }
  }
  // Legalization: serial sort + sequential packing.
  tasks.add_task(static_cast<double>(m) * 2.0,
                 has_prev ? std::vector<TaskId>{prev} : std::vector<TaskId>{});

  result.profile.job = "placement";
  result.profile.configs = configs;
  result.profile.counts = instrument.counts();
  result.profile.tasks = std::move(tasks);
  return result;
}

Placement QuadraticPlacer::place(const Netlist& netlist) const {
  return run(netlist, {}).placement;
}

}  // namespace edacloud::place
