#pragma once
// K-feasible cut enumeration (k = 4) with truth-table computation — the
// front half of the technology mapper. Truth tables are 16-bit functions
// over up to four cut leaves; the leaf order is ascending AIG node id, and
// tables of smaller cuts are replicated across unused variables so a single
// 16-bit key identifies the function regardless of cut size.

#include <array>
#include <cstdint>
#include <vector>

#include "nl/aig.hpp"
#include "perf/sink.hpp"

namespace edacloud::synth {

constexpr int kMaxCutLeaves = 4;

struct Cut {
  std::array<nl::AigNode, kMaxCutLeaves> leaves{};  // ascending node ids
  std::uint8_t size = 0;
  std::uint16_t table = 0;  // function over leaves (x0 = leaves[0], ...)

  [[nodiscard]] bool operator==(const Cut& other) const {
    if (size != other.size) return false;
    for (int i = 0; i < size; ++i) {
      if (leaves[i] != other.leaves[i]) return false;
    }
    return true;
  }
};

/// Bounded cut set per node.
struct CutSet {
  static constexpr int kCapacity = 8;
  std::array<Cut, kCapacity> cuts{};
  std::uint8_t count = 0;

  void push(const Cut& cut);
  [[nodiscard]] const Cut& operator[](int i) const { return cuts[i]; }
};

/// Variable masks: truth table of x_i over the 4-var space.
constexpr std::array<std::uint16_t, 4> kVarMask = {0xAAAA, 0xCCCC, 0xF0F0,
                                                   0xFF00};

/// Enumerate cuts for every node.
std::vector<CutSet> enumerate_cuts(const nl::Aig& aig, perf::Sink sink = {});

/// Merge two fanin cuts into a cut of `node`; returns false if the leaf
/// union exceeds kMaxCutLeaves.
bool merge_cuts(const Cut& a, bool a_complemented, const Cut& b,
                bool b_complemented, Cut& out);

/// Truth table of `cut_table` re-expressed over a superset leaf list.
std::uint16_t expand_table(std::uint16_t table,
                           const std::array<nl::AigNode, kMaxCutLeaves>& from,
                           int from_size,
                           const std::array<nl::AigNode, kMaxCutLeaves>& to,
                           int to_size);

}  // namespace edacloud::synth
