// SynthesisEngine::synthesize_all — the recipe lattice. Every leaf must be
// exactly what the single-recipe reference SynthesisEngine::synthesize
// produces (QoR, mapping stats and the netlist's content key) at any thread
// count, and the shared work must actually be shared: one rewrite per chain
// step up to a fixpoint, one balance per distinct chain AIG, one cut set per
// distinct AIG. SynthLatticeTest runs under TSan in scripts/check.sh.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ml/batch.hpp"
#include "nl/star_graph.hpp"
#include "synth/engine.hpp"
#include "tune/recipe_space.hpp"
#include "workloads/generators.hpp"

namespace edacloud::synth {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

/// The plan benchmark's design families at its sizes.
std::vector<nl::Aig> bench_designs() {
  return {workloads::gen_cavlc(8, 5),    workloads::gen_i2c(8, 5),
          workloads::gen_alu(8),         workloads::gen_mem_ctrl(2, 5),
          workloads::gen_crossbar(4, 8), workloads::gen_sbox(2, 5),
          workloads::gen_adder(16),      workloads::gen_comparator(16)};
}

/// The 24-point grid plus 16 seeded draws with up to 6 rewrite passes.
std::vector<SynthRecipe> wide_space() {
  tune::RecipeSpace space;
  space.grid_max_rewrite = 2;
  space.random_samples = 16;
  space.sample_max_rewrite = 6;
  return tune::enumerate_recipes(space);
}

ml::ContentKey netlist_key(const nl::Netlist& netlist) {
  return ml::content_key(
      ml::sample_from_graph(nl::graph_from_netlist(netlist)));
}

TEST(SynthLatticeTest, EveryLeafEqualsSingleRecipeSynthesis) {
  const SynthesisEngine engine(library());
  const std::vector<SynthRecipe> recipes = wide_space();
  for (const nl::Aig& design : bench_designs()) {
    std::vector<MapResult> reference;
    for (const SynthRecipe& recipe : recipes) {
      reference.push_back(engine.synthesize(design, recipe));
    }
    for (const int threads : {1, 4}) {
      const RecipeLattice lattice =
          engine.synthesize_all(design, recipes, threads);
      ASSERT_EQ(lattice.leaf_of.size(), recipes.size());
      for (std::size_t i = 0; i < recipes.size(); ++i) {
        const MapResult& leaf = lattice.result(i);
        const MapResult& want = reference[i];
        const std::string where = design.name() + " " + recipes[i].name +
                                  " threads " + std::to_string(threads);
        EXPECT_EQ(leaf.mapped_area_um2, want.mapped_area_um2) << where;
        EXPECT_EQ(leaf.cell_count, want.cell_count) << where;
        EXPECT_EQ(leaf.matched_cut_count, want.matched_cut_count) << where;
        EXPECT_EQ(leaf.fallback_count, want.fallback_count) << where;
        EXPECT_TRUE(netlist_key(leaf.netlist) == netlist_key(want.netlist))
            << where;
      }
    }
  }
}

TEST(SynthLatticeTest, WorkIsSharedAndCountedExactly) {
  const SynthesisEngine engine(library());
  const std::vector<SynthRecipe> recipes = wide_space();
  int max_passes = 0;
  for (const SynthRecipe& recipe : recipes) {
    max_passes = std::max(max_passes, recipe.rewrite_passes);
  }
  for (const nl::Aig& design : bench_designs()) {
    const RecipeLattice lattice = engine.synthesize_all(design, recipes, 1);
    const LatticeCounts& counts = lattice.counts;
    // Every leaf is reached by some recipe and numbered in recipe order.
    std::size_t next_new = 0;
    std::set<std::size_t> used;
    for (const std::size_t leaf : lattice.leaf_of) {
      if (used.insert(leaf).second) {
        EXPECT_EQ(leaf, next_new++);
      }
    }
    EXPECT_EQ(used.size(), counts.leaves) << design.name();
    EXPECT_EQ(lattice.leaves.size(), counts.leaves) << design.name();
    // A leaf is a (map, fuse) pair, a map an (AIG, mode) pair.
    EXPECT_LE(counts.leaves, 2 * counts.maps) << design.name();
    EXPECT_LE(counts.maps, 2 * counts.cut_sets) << design.name();
    EXPECT_GE(counts.maps, counts.cut_sets) << design.name();
    // At most one pass per chain step, one balance per chain AIG, and one
    // cut set per distinct AIG (cleaned, rewritten or balanced).
    EXPECT_LE(counts.rewrites, static_cast<std::size_t>(max_passes));
    EXPECT_LE(counts.balances, counts.rewrites + 1) << design.name();
    EXPECT_LE(counts.cut_sets, counts.rewrites + 1 + counts.balances)
        << design.name();
  }
}

TEST(SynthLatticeTest, RewriteFixpointEndsTheChain) {
  // cavlc's rewrite converges within a couple of passes: the lattice runs
  // passes only until rewrite returns an equal AIG, however deep the
  // recipes ask, and still matches the six-pass reference.
  const nl::Aig design = workloads::gen_cavlc(16, 3);
  std::vector<SynthRecipe> recipes;
  for (int passes = 0; passes <= 6; ++passes) {
    recipes.push_back({"rw" + std::to_string(passes), passes, false,
                       MapMode::kArea, false});
  }
  const SynthesisEngine engine(library());
  const RecipeLattice lattice = engine.synthesize_all(design, recipes, 1);
  ASSERT_LT(lattice.counts.rewrites, 6u);
  nl::Aig converged = cleanup(design);
  for (std::size_t pass = 0; pass < lattice.counts.rewrites; ++pass) {
    converged = rewrite(converged);
  }
  EXPECT_TRUE(rewrite(converged) == converged);
  EXPECT_EQ(lattice.leaf_of.back(),
            lattice.leaf_of[lattice.counts.rewrites - 1]);
  EXPECT_TRUE(netlist_key(lattice.result(6).netlist) ==
              netlist_key(engine.synthesize(design, recipes[6]).netlist));
}

TEST(SynthLatticeTest, EqualRecipesShareOneLeaf) {
  const nl::Aig design = workloads::gen_alu(8);
  SynthRecipe first = default_recipe();
  SynthRecipe renamed = first;
  renamed.name = "same-fields-other-name";
  SynthRecipe unfused = first;
  unfused.fuse = false;
  const SynthesisEngine engine(library());
  const RecipeLattice lattice =
      engine.synthesize_all(design, {first, unfused, renamed}, 2);
  EXPECT_EQ(lattice.leaf_of, (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(lattice.counts.rewrites, 1u);
  EXPECT_EQ(lattice.counts.balances, 1u);
  EXPECT_EQ(lattice.counts.cut_sets, 1u);
  EXPECT_EQ(lattice.counts.maps, 1u);
  EXPECT_EQ(lattice.counts.leaves, 2u);

  const RecipeLattice empty = engine.synthesize_all(design, {}, 1);
  EXPECT_TRUE(empty.leaves.empty());
  EXPECT_TRUE(empty.leaf_of.empty());
  EXPECT_EQ(empty.counts.cut_sets, 0u);
}

}  // namespace
}  // namespace edacloud::synth
