#include "synth/aig_opt.hpp"

#include <algorithm>
#include <queue>
#include <vector>

namespace edacloud::synth {

using nl::Aig;
using nl::AigNode;
using nl::kLitFalse;
using nl::Literal;
using nl::literal_complemented;
using nl::literal_node;
using nl::literal_not;
using nl::make_literal;

namespace {

constexpr std::uint64_t kStrashBase = 0x20ULL << 23;
constexpr std::uint64_t kMapBase = 0x21ULL << 23;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 29;
  return x;
}

/// Literal-translation helper shared by the rebuild passes.
struct Rebuild {
  const Aig& source;
  Aig result;
  std::vector<Literal> map;  // old node -> new literal (positive phase)

  explicit Rebuild(const Aig& aig, const std::string& suffix)
      : source(aig), result(aig.name() + suffix) {
    map.assign(aig.node_count(), kLitFalse);
    map[0] = kLitFalse;
    for (AigNode input : aig.inputs()) {
      map[input] = result.add_input();
    }
  }

  [[nodiscard]] Literal translate(Literal old) const {
    const Literal base = map[literal_node(old)];
    return literal_complemented(old) ? literal_not(base) : base;
  }

  void finish_outputs() {
    for (Literal out : source.outputs()) {
      result.add_output(translate(out));
    }
  }
};

/// AND with one-level Boolean simplification. `aig` is the graph being
/// built, so fanin queries see already-simplified structure.
Literal smart_and(Aig& aig, Literal a, Literal b, perf::Sink sink,
                  std::uint64_t strash_mask) {
  auto decompose = [&aig](Literal lit, Literal& x, Literal& y) {
    const AigNode node = literal_node(lit);
    if (!aig.is_and(node)) return false;
    x = aig.fanin0(node);
    y = aig.fanin1(node);
    return true;
  };
  auto note = [sink](std::uint64_t site, bool outcome) {
    sink.branch(kStrashBase + site, outcome);
  };

  for (int side = 0; side < 2; ++side) {
    // Examine b's structure relative to a (then swap).
    Literal x, y;
    const bool decomposable = decompose(b, x, y);
    note(1, decomposable);
    if (decomposable) {
      if (!literal_complemented(b)) {
        // a & (x & y): containment / conflict.
        const bool absorbed = a == x || a == y;
        const bool conflict = a == literal_not(x) || a == literal_not(y);
        note(2, absorbed || conflict);
        if (absorbed) return b;
        if (conflict) return kLitFalse;
      } else {
        // a & !(x & y): resolution.
        const bool resolves = a == x || a == y;
        const bool dominated =
            a == literal_not(x) || a == literal_not(y);
        note(3, resolves || dominated);
        if (a == x) return aig.and_of(a, literal_not(y));
        if (a == y) return aig.and_of(a, literal_not(x));
        if (dominated) return a;
      }
    }
    std::swap(a, b);
  }
  if (sink) {
    // Strash probe: hashed table lookup. Probes exhibit strong temporal
    // locality (recently created nodes are re-probed most), modeled as a
    // hot 16 KiB region absorbing 3 of 4 probes.
    const std::uint64_t key = mix((static_cast<std::uint64_t>(a) << 32) | b);
    const std::uint64_t offset =
        (key & 7) != 0 ? (key & 0x3FFF) : (key & strash_mask);
    sink.load(kStrashBase + offset);
    sink.int_ops(10);
  }
  return aig.and_of(a, b);
}

}  // namespace

Aig cleanup(const Aig& aig) {
  Rebuild rebuild(aig, "");
  rebuild.result.set_name(aig.name());
  const auto alive = aig.live_nodes();
  for (AigNode node = 0; node < aig.node_count(); ++node) {
    if (!aig.is_and(node) || !alive[node]) continue;
    rebuild.map[node] = rebuild.result.and_of(
        rebuild.translate(aig.fanin0(node)),
        rebuild.translate(aig.fanin1(node)));
  }
  rebuild.finish_outputs();
  return std::move(rebuild.result);
}

Aig rewrite(const Aig& aig, perf::Sink sink) {
  Rebuild rebuild(aig, "");
  rebuild.result.set_name(aig.name());
  const auto alive = aig.live_nodes();
  // Strash-table footprint scales with the design (~16 B per node entry).
  std::uint64_t strash_mask = 1;
  while (strash_mask < aig.node_count() * 16) strash_mask <<= 1;
  --strash_mask;
  for (AigNode node = 0; node < aig.node_count(); ++node) {
    if (!aig.is_and(node) || !alive[node]) continue;
    sink.load(kMapBase + node * 8);
    rebuild.map[node] =
        smart_and(rebuild.result, rebuild.translate(aig.fanin0(node)),
                  rebuild.translate(aig.fanin1(node)), sink, strash_mask);
  }
  rebuild.finish_outputs();
  return std::move(rebuild.result);
}

Aig balance(const Aig& aig, perf::Sink sink) {
  Rebuild rebuild(aig, "");
  rebuild.result.set_name(aig.name());
  const auto alive = aig.live_nodes();
  const auto fanouts = aig.fanout_counts();

  // Level tracking for the graph under construction.
  std::vector<std::uint32_t> new_level(rebuild.result.node_count(), 0);
  auto level_of = [&new_level](Literal lit) {
    return new_level[literal_node(lit)];
  };
  auto make_and = [&](Literal a, Literal b) {
    const Literal lit = rebuild.result.and_of(a, b);
    while (new_level.size() < rebuild.result.node_count()) {
      new_level.push_back(std::max(level_of(a), level_of(b)) + 1);
    }
    return lit;
  };

  constexpr int kMaxLeaves = 16;

  for (AigNode node = 0; node < aig.node_count(); ++node) {
    if (!aig.is_and(node) || !alive[node]) continue;

    // Collect the conjunction leaves of the maximal single-fanout subtree.
    std::vector<Literal> leaves;
    std::vector<Literal> stack = {aig.fanin0(node), aig.fanin1(node)};
    while (!stack.empty()) {
      const Literal lit = stack.back();
      stack.pop_back();
      const AigNode child = literal_node(lit);
      const bool expandable = !literal_complemented(lit) &&
                              aig.is_and(child) && fanouts[child] == 1 &&
                              static_cast<int>(leaves.size() + stack.size()) <
                                  kMaxLeaves;
      sink.branch(kMapBase ^ 0x2, expandable);
      sink.load(kMapBase + child * 8);
      if (expandable) {
        stack.push_back(aig.fanin0(child));
        stack.push_back(aig.fanin1(child));
      } else {
        leaves.push_back(rebuild.translate(lit));
      }
    }

    // Combine the two shallowest leaves first (depth-optimal for equal
    // weights — Huffman on levels).
    auto cmp = [&level_of](Literal a, Literal b) {
      return level_of(a) > level_of(b);
    };
    std::priority_queue<Literal, std::vector<Literal>, decltype(cmp)> heap(
        cmp, leaves);
    Literal combined = kLitFalse;
    if (heap.size() == 1) {
      combined = heap.top();
    } else {
      while (heap.size() > 1) {
        const Literal a = heap.top();
        heap.pop();
        const Literal b = heap.top();
        heap.pop();
        heap.push(make_and(a, b));
        sink.int_ops(6);
      }
      combined = heap.top();
    }
    rebuild.map[node] = combined;
  }
  rebuild.finish_outputs();
  return std::move(rebuild.result);
}

}  // namespace edacloud::synth
