#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "perf/sink.hpp"

namespace edacloud::sta {

using nl::Netlist;
using nl::NodeId;
using perf::TaskGraph;
using perf::TaskId;

namespace {

constexpr std::uint64_t kArrivalBase = 0x60ULL << 23;
constexpr std::uint64_t kLibraryBase = 0x61ULL << 23;
constexpr std::uint64_t kTopoBase = 0x62ULL << 23;

double manhattan(const place::Placement& placement, NodeId a, NodeId b) {
  return std::abs(placement.x[a] - placement.x[b]) +
         std::abs(placement.y[a] - placement.y[b]);
}

}  // namespace

TimingReport StaEngine::run(const Netlist& netlist,
                            const place::Placement* placement,
                            const std::vector<perf::VmConfig>& configs) const {
  perf::Instrument instrument = perf::Instrument::for_configs(configs);
  const perf::Sink sink(instrument);

  TRACE_SPAN_VAR(run_span, "sta/run", "sta");
  const auto& library = netlist.library();
  const std::size_t n = netlist.node_count();
  run_span.counter("nodes", static_cast<double>(n));
  const auto fanout = netlist.build_fanout_csr();

  // Levelization drives both sweeps and the task graph: all of a node's
  // fanins sit on strictly lower levels (and all fanouts strictly higher).
  const auto levels = netlist.levels();
  std::uint32_t depth = 0;
  for (std::uint32_t level : levels) depth = std::max(depth, level);
  std::vector<std::vector<NodeId>> level_nodes(depth + 1);
  for (NodeId id = 0; id < n; ++id) level_nodes[levels[id]].push_back(id);

  TimingReport report;
  report.arrival_ps.assign(n, 0.0);
  report.slack_ps.assign(n, 0.0);
  report.slew_ps.assign(n, 0.0);

  // Wire length estimate driver->consumer.
  auto wire_um = [&](NodeId driver, NodeId consumer) {
    if (placement != nullptr && placement->valid_for(netlist)) {
      return manhattan(*placement, driver, consumer);
    }
    return options_.default_wire_um_per_fanout *
           static_cast<double>(fanout.degree(driver));
  };

  // Output load of a driver: consumer pin caps + wire capacitance.
  auto load_ff = [&](NodeId driver) {
    double load = 0.0;
    const auto [begin, end] = fanout.range(driver);
    for (std::uint32_t e = begin; e < end; ++e) {
      const NodeId consumer = fanout.targets[e];
      const auto& node = netlist.node(consumer);
      if (node.kind == nl::NodeKind::kCell) {
        load += library.cell(node.cell).input_cap_ff;
      }
      load += wire_um(driver, consumer) * library.wire_cap_per_um();
      sink.load(kArrivalBase + static_cast<std::uint64_t>(consumer) * 8);
      sink.fp_ops(3);
    }
    return load;
  };

  // Elmore-lite wire delay along one driver->consumer connection.
  auto wire_delay_ps = [&](NodeId driver, NodeId consumer) {
    const double length = wire_um(driver, consumer);
    const double r = library.wire_res_per_um() * length;
    const double c = library.wire_cap_per_um() * length;
    double consumer_cap = 0.0;
    const auto& node = netlist.node(consumer);
    if (node.kind == nl::NodeKind::kCell) {
      consumer_cap = library.cell(node.cell).input_cap_ff;
    }
    sink.avx_ops(4);
    return r * (c * 0.5 + consumer_cap);
  };

  // ---- forward sweep: arrival times -----------------------------------------
  // Levels ascend, node ids ascend inside a level; every node reads only
  // lower levels.
  report.worst_parent.assign(n, nl::kInvalidNode);
  std::vector<nl::NodeId>& critical_parent = report.worst_parent;
  std::vector<double> gate_delay(n, 0.0);
  {
  TRACE_SPAN("sta/arrival", "sta");
  for (const auto& bucket : level_nodes) {
    for (const NodeId id : bucket) {
      const auto& node = netlist.node(id);
      sink.load(kTopoBase + static_cast<std::uint64_t>(id) * 4);
      if (node.kind == nl::NodeKind::kPrimaryInput) continue;
      double worst_input = 0.0;
      for (NodeId fanin : node.fanins) {
        const double at = report.arrival_ps[fanin] + wire_delay_ps(fanin, id);
        const bool is_worst = at > worst_input;
        // Fanin arrivals were produced a few levels earlier: mostly hot.
        const std::uint64_t addr =
            ((id ^ fanin) & 7) != 0
                ? kArrivalBase + (fanin % 2048) * 8ULL
                : kArrivalBase + static_cast<std::uint64_t>(fanin) * 8;
        sink.load(addr);
        // The max() compare compiles branchless (maxsd); only the fanin
        // loop contributes (well-predicted) control flow.
        sink.branch(kArrivalBase ^ 0x1, true);
        sink.fp_ops(2);
        if (is_worst) {
          worst_input = at;
          critical_parent[id] = fanin;
        }
      }
      double own_delay = 0.0;
      if (node.kind == nl::NodeKind::kCell) {
        const auto& cell = library.cell(node.cell);
        const double load = load_ff(id);
        // Two-parameter NLDM-lite: base delay degraded by the worst input
        // transition, output slew proportional to drive strength x load.
        double worst_slew = 0.0;
        for (nl::NodeId fanin : node.fanins) {
          worst_slew = std::max(worst_slew, report.slew_ps[fanin]);
        }
        own_delay =
            cell.delay_ps(load) + options_.slew_delay_factor * worst_slew;
        report.slew_ps[id] =
            options_.slew_gain * cell.drive_res_kohm * load + 2.0;
        // Library row fetch + interpolation (vectorized table math).
        sink.load(kLibraryBase + static_cast<std::uint64_t>(node.cell) * 64);
        sink.avx_ops(6);
        sink.fp_ops(2);
      } else if (node.kind == nl::NodeKind::kPrimaryOutput) {
        report.slew_ps[id] = report.slew_ps[node.fanins[0]];
      }
      gate_delay[id] = own_delay;
      report.arrival_ps[id] = worst_input + own_delay;
      sink.store(kArrivalBase + static_cast<std::uint64_t>(id) * 8);
    }
  }
  }  // sta/arrival

  // Critical path + clock period.
  for (NodeId id : netlist.outputs()) {
    report.critical_path_ps =
        std::max(report.critical_path_ps, report.arrival_ps[id]);
  }
  report.clock_period_ps =
      options_.clock_period_ps > 0.0
          ? options_.clock_period_ps
          : report.critical_path_ps * options_.slack_margin;

  // ---- backward sweep: required times / slacks --------------------------------
  // Levels descend, node ids ascend inside a level. Phrased as a gather:
  // every fanout of `id` sits on a strictly higher level, finalized
  // earlier, so required[id] = min over fanouts.
  std::vector<double> required(n, std::numeric_limits<double>::infinity());
  {
  TRACE_SPAN("sta/required", "sta");
  for (NodeId id : netlist.outputs()) required[id] = report.clock_period_ps;
  for (std::size_t l = level_nodes.size(); l-- > 0;) {
    for (const NodeId id : level_nodes[l]) {
      const auto [fo_begin, fo_end] = fanout.range(id);
      double req = required[id];  // clock at POs, +inf elsewhere
      for (std::uint32_t e = fo_begin; e < fo_end; ++e) {
        const NodeId consumer = fanout.targets[e];
        // Propagate the consumer's required time back through its gate
        // delay and the connecting wire.
        const double candidate = required[consumer] - gate_delay[consumer] -
                                 wire_delay_ps(id, consumer);
        const std::uint64_t addr =
            ((consumer ^ id) & 7) != 0
                ? kArrivalBase + (id % 2048) * 8ULL
                : kArrivalBase + static_cast<std::uint64_t>(id) * 8;
        sink.load(addr);
        // Loop control only: the min compiles to a cmov.
        sink.branch(kArrivalBase ^ 0x2, true);
        sink.avx_ops(3);
        req = std::min(req, candidate);
      }
      required[id] = req;
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    report.slack_ps[id] =
        std::isinf(required[id]) ? report.clock_period_ps
                                 : required[id] - report.arrival_ps[id];
  }
  }  // sta/required

  // ---- power report ------------------------------------------------------
  // Leakage: straight library sum. Dynamic: alpha * C * V^2 * f with the
  // clock derived above (fF * V^2 * GHz = uW). Each sum is taken over
  // 256-node blocks and the block partials are folded in block order, the
  // summation order the reported bits are pinned to.
  {
  TRACE_SPAN("sta/power", "sta");
  const double frequency_ghz =
      report.clock_period_ps > 0.0 ? 1000.0 / report.clock_period_ps : 0.0;
  constexpr std::size_t kPowerBlock = 256;
  for (std::size_t block = 0; block < n; block += kPowerBlock) {
    double leakage = 0.0;
    double dynamic = 0.0;
    for (std::size_t i = block; i < std::min(n, block + kPowerBlock); ++i) {
      const NodeId id = static_cast<NodeId>(i);
      const auto& node = netlist.node(id);
      if (node.kind != nl::NodeKind::kCell) continue;
      leakage += library.cell(node.cell).leakage_nw;
      dynamic += options_.activity_factor * load_ff(id) *
                 options_.supply_voltage * options_.supply_voltage *
                 frequency_ghz * 1e-3;
    }
    report.leakage_power_nw += leakage;
    report.dynamic_power_uw += dynamic;
  }
  }  // sta/power

  report.endpoint_count = netlist.outputs().size();
  report.worst_slack_ps = std::numeric_limits<double>::infinity();
  for (NodeId id : netlist.outputs()) {
    report.worst_slack_ps = std::min(report.worst_slack_ps, report.slack_ps[id]);
    if (report.slack_ps[id] < 0.0) ++report.violating_endpoints;
  }
  if (netlist.outputs().empty()) report.worst_slack_ps = 0.0;

  // Trace the critical path from the worst endpoint back to a PI.
  NodeId worst_endpoint = nl::kInvalidNode;
  double worst_at = -1.0;
  for (NodeId id : netlist.outputs()) {
    if (report.arrival_ps[id] > worst_at) {
      worst_at = report.arrival_ps[id];
      worst_endpoint = id;
    }
  }
  for (NodeId cursor = worst_endpoint; cursor != nl::kInvalidNode;
       cursor = critical_parent[cursor]) {
    report.critical_path.push_back(cursor);
    if (netlist.node(cursor).kind == nl::NodeKind::kPrimaryInput) break;
    if (critical_parent[cursor] == nl::kInvalidNode &&
        !netlist.node(cursor).fanins.empty()) {
      report.critical_path.push_back(netlist.node(cursor).fanins[0]);
      break;
    }
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());

  // ---- task graph: two levelized sweeps ---------------------------------------
  std::vector<double> histogram(depth + 1, 0.0);
  for (std::size_t l = 0; l < level_nodes.size(); ++l) {
    histogram[l] = static_cast<double>(level_nodes[l].size());
  }

  TaskGraph tasks;
  bool has_prev = false;
  TaskId prev = 0;
  constexpr double kChunk = 32.0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t l = 0; l < histogram.size(); ++l) {
      const double count =
          sweep == 0 ? histogram[l] : histogram[histogram.size() - 1 - l];
      if (count <= 0.0) continue;
      const int chunks =
          std::max(1, static_cast<int>(std::ceil(count / kChunk)));
      std::vector<TaskId> chunk_ids;
      for (int c = 0; c < chunks; ++c) {
        std::vector<TaskId> deps;
        if (has_prev) deps.push_back(prev);
        chunk_ids.push_back(tasks.add_task(count / chunks, deps));
      }
      prev = tasks.add_task(0.0, chunk_ids);
      has_prev = true;
    }
  }

  report.profile.job = "sta";
  report.profile.configs = configs;
  report.profile.counts = instrument.counts();
  report.profile.tasks = std::move(tasks);
  return report;
}

std::vector<TimingPath> worst_paths(const TimingReport& report,
                                    const nl::Netlist& netlist, int k) {
  // Rank endpoints by arrival, trace each back through worst_parent.
  std::vector<nl::NodeId> endpoints = netlist.outputs();
  std::sort(endpoints.begin(), endpoints.end(),
            [&report](nl::NodeId a, nl::NodeId b) {
              return report.arrival_ps[a] > report.arrival_ps[b];
            });
  if (k >= 0 && endpoints.size() > static_cast<std::size_t>(k)) {
    endpoints.resize(static_cast<std::size_t>(k));
  }
  std::vector<TimingPath> paths;
  for (nl::NodeId endpoint : endpoints) {
    TimingPath path;
    path.arrival_ps = report.arrival_ps[endpoint];
    path.slack_ps = report.slack_ps[endpoint];
    nl::NodeId cursor = endpoint;
    while (cursor != nl::kInvalidNode) {
      path.nodes.push_back(cursor);
      const auto& node = netlist.node(cursor);
      if (node.kind == nl::NodeKind::kPrimaryInput) break;
      nl::NodeId next = report.worst_parent[cursor];
      if (next == nl::kInvalidNode && !node.fanins.empty()) {
        next = node.fanins[0];
      }
      if (next == cursor) break;  // defensive
      cursor = next;
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace edacloud::sta
