#pragma once
// The synthesis application: logic optimization + technology mapping of an
// AIG, instrumented against a ladder of VM configurations and decomposed
// into a task graph for the parallel-efficiency model. This is the
// "synthesis" job characterized in Fig. 2 and scheduled in Table I.

#include <vector>

#include "nl/aig.hpp"
#include "nl/cell_library.hpp"
#include "perf/runtime_model.hpp"
#include "synth/aig_opt.hpp"
#include "synth/mapper.hpp"
#include "synth/recipe.hpp"

namespace edacloud::synth {

struct SynthesisResult {
  MapResult mapped;          // final gate-level netlist + mapping stats
  std::size_t optimized_and_count = 0;
  std::uint32_t optimized_depth = 0;
  perf::JobProfile profile;  // counters + task graph
};

/// Exact work counts of one SynthesisEngine::synthesize_all call.
struct LatticeCounts {
  std::size_t rewrites = 0;  // rewrite passes run
  std::size_t balances = 0;  // balance passes run
  std::size_t cut_sets = 0;  // enumerate_cuts runs, one per distinct mapped AIG
  std::size_t maps = 0;      // cover-selection DPs (distinct AIG x mode)
  std::size_t leaves = 0;    // distinct results (maps x inverter fusion)
};

/// A recipe list synthesized as one lattice: the distinct results and, per
/// recipe, which of them it produced. result(i) equals
/// synthesize(design, recipes[i]) field for field and byte for byte.
struct RecipeLattice {
  std::vector<MapResult> leaves;
  std::vector<std::size_t> leaf_of;  // recipe index -> index into leaves
  LatticeCounts counts;

  [[nodiscard]] const MapResult& result(std::size_t recipe) const {
    return leaves[leaf_of[recipe]];
  }
};

class SynthesisEngine {
 public:
  explicit SynthesisEngine(const nl::CellLibrary& library)
      : library_(&library), mapper_(library) {}

  /// Fraction of each optimization pass serialized on shared structures
  /// (structural-hash table); throttles the job's parallel speedup.
  void set_serial_fraction(double fraction) { serial_fraction_ = fraction; }

  [[nodiscard]] SynthesisResult run(
      const nl::Aig& input, const SynthRecipe& recipe,
      const std::vector<perf::VmConfig>& configs) const;

  /// Convenience: run without instrumentation (tests, corpus generation).
  [[nodiscard]] MapResult synthesize(const nl::Aig& input,
                                     const SynthRecipe& recipe) const;

  /// Every recipe of `recipes` on one design, sharing work across their
  /// common pass prefixes: one cleanup, the k-rewrite AIG grown from the
  /// (k-1) one (memoized per distinct AIG, so a rewrite fixpoint ends the
  /// chain), one balance per distinct chain AIG, one cut enumeration per
  /// distinct AIG (all AIGs interned by structural equality), one DP per
  /// requested mode and fusion as a leaf. Every pass is a pure function of
  /// its input AIG, so each leaf is exactly the single-recipe result. The
  /// balance and map fan-outs run on util::parallel_for (`threads`, 0 =
  /// global default) with disjoint slots; interning is serial, so the
  /// lattice is identical at every thread count.
  [[nodiscard]] RecipeLattice synthesize_all(
      const nl::Aig& input, const std::vector<SynthRecipe>& recipes,
      int threads = 0) const;

 private:
  const nl::CellLibrary* library_;
  TechMapper mapper_;
  double serial_fraction_ = 0.42;
};

}  // namespace edacloud::synth
