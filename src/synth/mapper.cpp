#include "synth/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace edacloud::synth {

using nl::Aig;
using nl::AigNode;
using nl::CellFunction;
using nl::CellId;
using nl::Literal;
using nl::literal_complemented;
using nl::literal_node;
using nl::Netlist;
using nl::NodeId;

namespace {

constexpr std::uint64_t kCostBase = 0x30ULL << 23;
constexpr std::uint64_t kMatcherBase = 0x31ULL << 23;

/// Truth table of a cell function with pins assigned to variables `v`.
std::uint16_t function_table(CellFunction function,
                             const std::array<int, 3>& v) {
  const auto m = [&v](int pin) { return kVarMask[v[pin]]; };
  const auto inv = [](std::uint16_t t) {
    return static_cast<std::uint16_t>(~t);
  };
  switch (function) {
    case CellFunction::kBuf:
      return m(0);
    case CellFunction::kInv:
      return inv(m(0));
    case CellFunction::kAnd:
      return m(0) & m(1);
    case CellFunction::kOr:
      return m(0) | m(1);
    case CellFunction::kNand:
      return inv(m(0) & m(1));
    case CellFunction::kNor:
      return inv(m(0) | m(1));
    case CellFunction::kXor:
      return m(0) ^ m(1);
    case CellFunction::kXnor:
      return inv(m(0) ^ m(1));
    case CellFunction::kAoi:
      return inv((m(0) & m(1)) | m(2));
    case CellFunction::kOai:
      return inv(static_cast<std::uint16_t>((m(0) | m(1)) & m(2)));
    case CellFunction::kMux:
      return static_cast<std::uint16_t>((m(0) & m(1)) | (inv(m(0)) & m(2)));
    case CellFunction::kMaj:
      return static_cast<std::uint16_t>((m(0) & m(1)) | (m(0) & m(2)) |
                                        (m(1) & m(2)));
  }
  return 0;
}

}  // namespace

TechMapper::TechMapper(const nl::CellLibrary& library) : library_(&library) {
  auto cheapest = [this](CellFunction function) {
    const auto ids = library_->cells_with_function(function);
    if (ids.empty()) {
      throw std::invalid_argument("library lacks required cell function");
    }
    return ids.front();
  };
  inv_cell_ = cheapest(CellFunction::kInv);
  buf_cell_ = cheapest(CellFunction::kBuf);
  and2_cell_ = cheapest(CellFunction::kAnd);
  nor2_cell_ = cheapest(CellFunction::kNor);
  build_matcher();
}

void TechMapper::consider(std::uint16_t table, const Match& match,
                          double area) {
  auto it = matcher_.find(table);
  if (it == matcher_.end()) {
    matcher_.emplace(table, match);
    return;
  }
  const nl::Cell& incumbent = library_->cell(it->second.cell);
  double incumbent_area = incumbent.area_um2;
  if (it->second.inv_output) {
    incumbent_area += library_->cell(inv_cell_).area_um2;
  }
  if (area < incumbent_area) it->second = match;
}

void TechMapper::build_matcher() {
  const double inv_area = library_->cell(inv_cell_).area_um2;
  for (CellId id = 0; id < library_->size(); ++id) {
    const nl::Cell& cell = library_->cell(id);
    const int arity = cell.input_count;
    if (arity < 2 || arity > 3) continue;  // 1-input handled structurally

    // All injective pin->variable assignments over the 4 leaf slots.
    std::array<int, 4> vars = {0, 1, 2, 3};
    std::sort(vars.begin(), vars.end());
    // Enumerate ordered selections of `arity` variables.
    std::array<int, 3> assign{};
    auto recurse = [&](auto&& self, int pin, std::uint32_t used) -> void {
      if (pin == arity) {
        const std::uint16_t table = function_table(cell.function, assign);
        Match match;
        match.cell = id;
        match.arity = static_cast<std::uint8_t>(arity);
        for (int p = 0; p < arity; ++p) {
          match.pin_to_leaf[p] = static_cast<std::uint8_t>(assign[p]);
        }
        match.inv_output = false;
        consider(table, match, cell.area_um2);
        match.inv_output = true;
        consider(static_cast<std::uint16_t>(~table), match,
                 cell.area_um2 + inv_area);
        return;
      }
      for (int v = 0; v < 4; ++v) {
        if (used & (1U << v)) continue;
        assign[pin] = v;
        self(self, pin + 1, used | (1U << v));
      }
    };
    recurse(recurse, 0, 0);
  }
}

MapResult TechMapper::map(const Aig& aig, MapMode mode,
                          perf::Sink sink) const {
  return map(aig, enumerate_cuts(aig, sink), mode, sink);
}

MapResult TechMapper::map(const Aig& aig, const std::vector<CutSet>& cuts,
                          MapMode mode, perf::Sink sink) const {
  if (cuts.size() != aig.node_count()) {
    throw std::invalid_argument("map: cut sets do not match the AIG");
  }
  const auto fanouts = aig.fanout_counts();
  const auto alive = aig.live_nodes();

  // ---- DP over nodes: best implementation choice per AND node -------------
  struct Choice {
    bool use_match = false;
    Match match;
    Cut cut;
    double cost = std::numeric_limits<double>::infinity();
    double arrival = 0.0;
  };
  std::vector<Choice> choice(aig.node_count());
  std::vector<double> area_flow(aig.node_count(), 0.0);
  std::vector<double> arrival(aig.node_count(), 0.0);

  const double inv_area = library_->cell(inv_cell_).area_um2;
  const double inv_delay = library_->cell(inv_cell_).delay_ps(4.0);

  for (AigNode node = 0; node < aig.node_count(); ++node) {
    if (!aig.is_and(node) || !alive[node]) continue;
    Choice best;

    auto leaf_metrics = [&](const nl::AigNode* leaves, int count,
                            double& flow_sum, double& worst_arrival) {
      flow_sum = 0.0;
      worst_arrival = 0.0;
      for (int i = 0; i < count; ++i) {
        const AigNode leaf = leaves[i];
        flow_sum += area_flow[leaf] /
                    std::max<std::uint32_t>(1, fanouts[leaf]);
        worst_arrival = std::max(worst_arrival, arrival[leaf]);
      }
    };

    // Candidate 1..n: matched cuts.
    const CutSet& set = cuts[node];
    for (int c = 0; c < set.count; ++c) {
      const Cut& cut = set[c];
      if (cut.size < 2) continue;  // trivial/constant cuts
      // Matcher probes concentrate on a few dozen frequent functions.
      const std::uint64_t offset =
          (cut.table & 7) != 0 ? (cut.table % 512) * 4ULL : cut.table * 4ULL;
      sink.load(kMatcherBase + offset);
      const auto it = matcher_.find(cut.table);
      const bool hit = it != matcher_.end();
      sink.branch(kMatcherBase ^ 0x5, hit);
      if (!hit) continue;
      const Match& match = it->second;
      const nl::Cell& cell = library_->cell(match.cell);
      double flow_sum, worst_arrival;
      leaf_metrics(cut.leaves.data(), cut.size, flow_sum, worst_arrival);
      const double gate_area =
          cell.area_um2 + (match.inv_output ? inv_area : 0.0);
      const double gate_delay =
          cell.delay_ps(4.0) + (match.inv_output ? inv_delay : 0.0);
      const double cost = mode == MapMode::kArea
                              ? gate_area + flow_sum
                              : worst_arrival + gate_delay +
                                    1e-3 * (gate_area + flow_sum);
      sink.fp_ops(4);
      sink.avx_ops(2);  // vectorized area-flow evaluation
      if (cost < best.cost) {
        best.use_match = true;
        best.match = match;
        best.cut = cut;
        best.cost = cost;
        best.arrival = worst_arrival + gate_delay;
      }
    }

    // Fallback candidate: structural AND/NOR (+INV for mixed phases).
    {
      const Literal f0 = aig.fanin0(node);
      const Literal f1 = aig.fanin1(node);
      const AigNode leaves[2] = {literal_node(f0), literal_node(f1)};
      double flow_sum, worst_arrival;
      leaf_metrics(leaves, 2, flow_sum, worst_arrival);
      const bool c0 = literal_complemented(f0);
      const bool c1 = literal_complemented(f1);
      const nl::Cell& base_cell = library_->cell(
          (c0 && c1) ? nor2_cell_ : and2_cell_);
      const bool needs_inv = c0 != c1;
      const double gate_area = base_cell.area_um2 + (needs_inv ? inv_area : 0);
      const double gate_delay =
          base_cell.delay_ps(4.0) + (needs_inv ? inv_delay : 0.0);
      const double cost = mode == MapMode::kArea
                              ? gate_area + flow_sum
                              : worst_arrival + gate_delay +
                                    1e-3 * (gate_area + flow_sum);
      if (cost < best.cost) {
        best.use_match = false;
        best.cost = cost;
        best.arrival = worst_arrival + gate_delay;
      }
    }

    choice[node] = best;
    area_flow[node] = best.cost;
    arrival[node] = best.arrival;
    sink.store(kCostBase + node * 8);
    sink.int_ops(8);
  }

  // ---- cover extraction from the outputs -----------------------------------
  std::vector<bool> needed(aig.node_count(), false);
  std::vector<AigNode> stack;
  for (Literal out : aig.outputs()) {
    const AigNode node = literal_node(out);
    if (aig.is_and(node) && !needed[node]) {
      needed[node] = true;
      stack.push_back(node);
    }
  }
  while (!stack.empty()) {
    const AigNode node = stack.back();
    stack.pop_back();
    const Choice& ch = choice[node];
    auto require = [&](AigNode leaf) {
      if (aig.is_and(leaf) && !needed[leaf]) {
        needed[leaf] = true;
        stack.push_back(leaf);
      }
    };
    if (ch.use_match) {
      for (int i = 0; i < ch.cut.size; ++i) require(ch.cut.leaves[i]);
    } else {
      require(literal_node(aig.fanin0(node)));
      require(literal_node(aig.fanin1(node)));
    }
  }

  // ---- netlist emission ------------------------------------------------------
  MapResult result{Netlist(aig.name(), library_), 0.0, 0, 0, 0};
  Netlist& netlist = result.netlist;

  std::vector<NodeId> signal(aig.node_count(), nl::kInvalidNode);
  std::vector<NodeId> inverted(aig.node_count(), nl::kInvalidNode);

  for (AigNode input : aig.inputs()) {
    signal[input] = netlist.add_input();
  }

  auto emit_cell = [&](CellId cell, std::vector<NodeId> fanins) {
    result.mapped_area_um2 += library_->cell(cell).area_um2;
    ++result.cell_count;
    return netlist.add_cell(cell, std::move(fanins));
  };

  auto inverted_signal = [&](AigNode node) {
    if (inverted[node] == nl::kInvalidNode) {
      inverted[node] = emit_cell(inv_cell_, {signal[node]});
    }
    return inverted[node];
  };

  // Lazily-built constant-false net (needs at least one primary input).
  NodeId const0 = nl::kInvalidNode;
  auto constant0 = [&]() {
    if (const0 == nl::kInvalidNode) {
      if (aig.inputs().empty()) {
        throw std::invalid_argument("cannot emit constant without inputs");
      }
      const AigNode pi = aig.inputs().front();
      const0 = emit_cell(and2_cell_, {signal[pi], inverted_signal(pi)});
    }
    return const0;
  };

  for (AigNode node = 0; node < aig.node_count(); ++node) {
    if (!aig.is_and(node) || !needed[node]) continue;
    const Choice& ch = choice[node];
    if (ch.use_match) {
      ++result.matched_cut_count;
      std::vector<NodeId> pins(ch.match.arity);
      for (int p = 0; p < ch.match.arity; ++p) {
        pins[static_cast<std::size_t>(p)] =
            signal[ch.cut.leaves[ch.match.pin_to_leaf[
                static_cast<std::size_t>(p)]]];
      }
      NodeId out = emit_cell(ch.match.cell, std::move(pins));
      if (ch.match.inv_output) out = emit_cell(inv_cell_, {out});
      signal[node] = out;
    } else {
      ++result.fallback_count;
      const Literal f0 = aig.fanin0(node);
      const Literal f1 = aig.fanin1(node);
      const AigNode n0 = literal_node(f0);
      const AigNode n1 = literal_node(f1);
      const bool c0 = literal_complemented(f0);
      const bool c1 = literal_complemented(f1);
      if (c0 && c1) {
        signal[node] = emit_cell(nor2_cell_, {signal[n0], signal[n1]});
      } else {
        const NodeId s0 = c0 ? inverted_signal(n0) : signal[n0];
        const NodeId s1 = c1 ? inverted_signal(n1) : signal[n1];
        signal[node] = emit_cell(and2_cell_, {s0, s1});
      }
    }
  }

  // Primary outputs (shared inverters for complemented literals).
  for (Literal out : aig.outputs()) {
    const AigNode node = literal_node(out);
    NodeId source;
    if (aig.is_constant(node)) {
      source = constant0();
      if (!literal_complemented(out)) {
        netlist.add_output(source);
        continue;
      }
      netlist.add_output(emit_cell(inv_cell_, {source}));
      continue;
    }
    source =
        literal_complemented(out) ? inverted_signal(node) : signal[node];
    netlist.add_output(source);
  }
  return result;
}

Netlist fuse_inverters(const Netlist& input) {
  const nl::CellLibrary& library = input.library();
  auto find_cell = [&library](CellFunction fn) {
    const auto ids = library.cells_with_function(fn);
    return ids.empty() ? nl::kInvalidCell : ids.front();
  };
  // Fusion partners: INV(f(x)) -> g(x).
  auto fused_function = [](CellFunction fn, bool& ok) {
    ok = true;
    switch (fn) {
      case CellFunction::kAnd:
        return CellFunction::kNand;
      case CellFunction::kNand:
        return CellFunction::kAnd;
      case CellFunction::kOr:
        return CellFunction::kNor;
      case CellFunction::kNor:
        return CellFunction::kOr;
      case CellFunction::kXor:
        return CellFunction::kXnor;
      case CellFunction::kXnor:
        return CellFunction::kXor;
      default:
        ok = false;
        return fn;
    }
  };

  const auto fanouts = input.fanout_counts();

  auto is_inv = [&](NodeId id) {
    const nl::NetlistNode& node = input.node(id);
    return node.kind == nl::NodeKind::kCell &&
           library.cell(node.cell).function == CellFunction::kInv;
  };

  // Pass 1: collapse INV(INV(x)) chains — the outer INV aliases x and the
  // single-fanout inner INV disappears.
  std::vector<NodeId> alias(input.node_count(), nl::kInvalidNode);
  std::vector<bool> absorbed(input.node_count(), false);
  for (NodeId id = 0; id < input.node_count(); ++id) {
    if (!is_inv(id)) continue;
    const NodeId inner = input.node(id).fanins[0];
    if (is_inv(inner) && fanouts[inner] == 1 && !absorbed[inner]) {
      alias[id] = input.node(inner).fanins[0];
      absorbed[inner] = true;
    }
  }

  // Pass 2: INV nodes whose single fanin is a fusable single-fanout cell.
  std::vector<NodeId> fuse_base(input.node_count(), nl::kInvalidNode);
  for (NodeId id = 0; id < input.node_count(); ++id) {
    if (!is_inv(id) || alias[id] != nl::kInvalidNode) continue;
    const NodeId base = input.node(id).fanins[0];
    const nl::NetlistNode& base_node = input.node(base);
    if (base_node.kind != nl::NodeKind::kCell) continue;
    if (fanouts[base] != 1) continue;
    bool ok = false;
    const CellFunction target =
        fused_function(library.cell(base_node.cell).function, ok);
    if (!ok || find_cell(target) == nl::kInvalidCell) continue;
    if (absorbed[base]) continue;  // base already fused elsewhere
    fuse_base[id] = base;
    absorbed[base] = true;
  }

  Netlist output(input.name(), &library);
  std::vector<NodeId> remap(input.node_count(), nl::kInvalidNode);
  // Interface order must be preserved exactly (a topological traversal may
  // permute it): inputs first, cells in topo order, outputs last.
  for (NodeId id : input.inputs()) remap[id] = output.add_input();
  const auto order = input.topological_order();
  for (NodeId id : order) {
    const nl::NetlistNode& node = input.node(id);
    switch (node.kind) {
      case nl::NodeKind::kPrimaryInput:
      case nl::NodeKind::kPrimaryOutput:
        break;  // handled outside the traversal
      case nl::NodeKind::kCell: {
        if (absorbed[id]) break;  // emitted by its fusing INV / collapsed
        if (alias[id] != nl::kInvalidNode) {
          remap[id] = remap[alias[id]];
          break;
        }
        if (fuse_base[id] != nl::kInvalidNode) {
          const nl::NetlistNode& base = input.node(fuse_base[id]);
          bool ok = false;
          const CellFunction target =
              fused_function(library.cell(base.cell).function, ok);
          std::vector<NodeId> fanins;
          for (NodeId fanin : base.fanins) fanins.push_back(remap[fanin]);
          remap[id] = output.add_cell(find_cell(target), std::move(fanins));
        } else {
          std::vector<NodeId> fanins;
          for (NodeId fanin : node.fanins) fanins.push_back(remap[fanin]);
          remap[id] = output.add_cell(node.cell, std::move(fanins));
        }
        break;
      }
    }
  }
  for (NodeId id : input.outputs()) {
    output.add_output(remap[input.node(id).fanins[0]]);
  }
  return output;
}

}  // namespace edacloud::synth
