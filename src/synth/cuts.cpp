#include "synth/cuts.hpp"

#include <algorithm>

namespace edacloud::synth {

namespace {

constexpr std::uint64_t kCutArrayBase = 0x10ULL << 23;  // abstract addresses

}  // namespace

void CutSet::push(const Cut& cut) {
  for (int i = 0; i < count; ++i) {
    if (cuts[i] == cut) return;  // duplicate leaf set
  }
  if (count < kCapacity) {
    cuts[count++] = cut;
    return;
  }
  // Full: replace the largest cut if the new one is smaller.
  int widest = 0;
  for (int i = 1; i < count; ++i) {
    if (cuts[i].size > cuts[widest].size) widest = i;
  }
  if (cut.size < cuts[widest].size) cuts[widest] = cut;
}

std::uint16_t expand_table(std::uint16_t table,
                           const std::array<nl::AigNode, kMaxCutLeaves>& from,
                           int from_size,
                           const std::array<nl::AigNode, kMaxCutLeaves>& to,
                           int to_size) {
  // Map each source variable to its position in the target leaf list.
  std::array<int, kMaxCutLeaves> position{};
  for (int i = 0; i < from_size; ++i) {
    position[i] = -1;
    for (int j = 0; j < to_size; ++j) {
      if (to[j] == from[i]) {
        position[i] = j;
        break;
      }
    }
  }
  std::uint16_t out = 0;
  for (int row = 0; row < 16; ++row) {
    int src_row = 0;
    for (int i = 0; i < from_size; ++i) {
      if (position[i] >= 0 && ((row >> position[i]) & 1)) src_row |= 1 << i;
    }
    if ((table >> src_row) & 1) out |= static_cast<std::uint16_t>(1 << row);
  }
  return out;
}

bool merge_cuts(const Cut& a, bool a_complemented, const Cut& b,
                bool b_complemented, Cut& out) {
  // Sorted union of leaves.
  std::array<nl::AigNode, 2 * kMaxCutLeaves> merged{};
  int ia = 0, ib = 0, n = 0;
  while (ia < a.size || ib < b.size) {
    nl::AigNode next;
    if (ia < a.size && (ib >= b.size || a.leaves[ia] <= b.leaves[ib])) {
      next = a.leaves[ia];
      if (ib < b.size && b.leaves[ib] == next) ++ib;
      ++ia;
    } else {
      next = b.leaves[ib];
      ++ib;
    }
    if (n == kMaxCutLeaves) return false;
    merged[n++] = next;
  }
  out.size = static_cast<std::uint8_t>(n);
  for (int i = 0; i < n; ++i) out.leaves[i] = merged[i];

  std::uint16_t ta = expand_table(a.table, a.leaves, a.size, out.leaves, n);
  std::uint16_t tb = expand_table(b.table, b.leaves, b.size, out.leaves, n);
  if (a_complemented) ta = static_cast<std::uint16_t>(~ta);
  if (b_complemented) tb = static_cast<std::uint16_t>(~tb);
  out.table = static_cast<std::uint16_t>(ta & tb);
  return true;
}

std::vector<CutSet> enumerate_cuts(const nl::Aig& aig, perf::Sink sink) {
  std::vector<CutSet> sets(aig.node_count());

  auto trivial = [](nl::AigNode node) {
    Cut cut;
    cut.size = 1;
    cut.leaves[0] = node;
    cut.table = kVarMask[0];
    return cut;
  };

  // Constant node: empty-leaf cut, constant-false table.
  {
    Cut const_cut;
    const_cut.size = 0;
    const_cut.table = 0;
    sets[0].push(const_cut);
  }
  for (nl::AigNode input : aig.inputs()) {
    sets[input].push(trivial(input));
  }

  for (nl::AigNode node = 0; node < aig.node_count(); ++node) {
    if (!aig.is_and(node)) continue;
    const nl::Literal f0 = aig.fanin0(node);
    const nl::Literal f1 = aig.fanin1(node);
    const nl::AigNode n0 = nl::literal_node(f0);
    const nl::AigNode n1 = nl::literal_node(f1);
    const CutSet& set0 = sets[n0];
    const CutSet& set1 = sets[n1];
    if (sink) {
      // Cut sets are consumed level-by-level: fanin sets were produced
      // recently, so most probes land in a hot working window.
      auto cut_addr = [node](nl::AigNode fanin) {
        const std::uint64_t hot = (node ^ fanin) & 7;
        return hot != 0 ? kCutArrayBase + (fanin % 512) * sizeof(CutSet)
                        : kCutArrayBase + fanin * sizeof(CutSet);
      };
      sink.load(cut_addr(n0));
      sink.load(cut_addr(n1));
      // Merge-loop control: strongly-taken, well-predicted branches.
      for (int lb = 0; lb < 8; ++lb) {
        sink.branch(kCutArrayBase ^ 0x9, lb != 7);
      }
    }
    CutSet& mine = sets[node];
    for (int i = 0; i < set0.count; ++i) {
      for (int j = 0; j < set1.count; ++j) {
        Cut merged;
        const bool ok =
            merge_cuts(set0[i], nl::literal_complemented(f0), set1[j],
                       nl::literal_complemented(f1), merged);
        sink.int_ops(24);  // union + table expansion work
        sink.branch(kCutArrayBase ^ 0xA, ok);
        if (ok) mine.push(merged);
      }
    }
    mine.push(trivial(node));
    sink.store(kCutArrayBase + (node % 512) * sizeof(CutSet));
  }
  return sets;
}

}  // namespace edacloud::synth
