#pragma once
// Cut-based technology mapper: matches 4-feasible cut functions against the
// cell library (exact 16-bit truth-table matching under pin permutation,
// optionally with a complemented output), selects a cover by area flow
// (area mode) or arrival time (delay mode), and emits a gate-level netlist.
// A structural AND/NOR/INV fallback guarantees every AIG maps regardless of
// matcher coverage; an inverter-fusion peephole recovers NAND/NOR/XNOR
// forms afterwards.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nl/aig.hpp"
#include "nl/cell_library.hpp"
#include "nl/netlist.hpp"
#include "perf/instrument.hpp"
#include "synth/cuts.hpp"

namespace edacloud::synth {

enum class MapMode : std::uint8_t { kArea, kDelay };

struct MapResult {
  nl::Netlist netlist;
  double mapped_area_um2 = 0.0;
  std::size_t cell_count = 0;
  std::size_t matched_cut_count = 0;   // nodes covered by pattern matches
  std::size_t fallback_count = 0;      // nodes covered structurally
};

class TechMapper {
 public:
  explicit TechMapper(const nl::CellLibrary& library);

  /// enumerate_cuts(aig) followed by the cover selection below.
  [[nodiscard]] MapResult map(const nl::Aig& aig, MapMode mode,
                              perf::Instrument* instrument = nullptr) const;

  /// Cover selection (area-flow or arrival DP) and netlist emission over
  /// precomputed `cuts` — exactly enumerate_cuts(aig), so one cut set can
  /// serve both modes.
  [[nodiscard]] MapResult map(const nl::Aig& aig,
                              const std::vector<CutSet>& cuts, MapMode mode,
                              perf::Instrument* instrument = nullptr) const;

  /// Number of distinct truth tables the matcher can realize directly.
  [[nodiscard]] std::size_t matcher_size() const { return matcher_.size(); }

 private:
  struct Match {
    nl::CellId cell = nl::kInvalidCell;
    std::array<std::uint8_t, 3> pin_to_leaf{};  // cell pin -> cut leaf index
    std::uint8_t arity = 0;
    bool inv_output = false;
  };

  void build_matcher();
  void consider(std::uint16_t table, const Match& match, double area);

  const nl::CellLibrary* library_;
  std::unordered_map<std::uint16_t, Match> matcher_;
  nl::CellId inv_cell_ = nl::kInvalidCell;
  nl::CellId buf_cell_ = nl::kInvalidCell;
  nl::CellId and2_cell_ = nl::kInvalidCell;
  nl::CellId nor2_cell_ = nl::kInvalidCell;
};

/// Peephole: fuse single-fanout {AND2,OR2,XOR2}+INV pairs into
/// {NAND2,NOR2,XNOR2} (and the reverse direction), preserving function.
nl::Netlist fuse_inverters(const nl::Netlist& netlist);

}  // namespace edacloud::synth
