// RecipeTuner + recipe-space determinism (ISSUE 9 tentpole tests): golden
// snapshots of the recipe sets, key canonicalization (logically-equal
// recipes hash equal, distinct recipes never collide across the sampled
// space), and the tuner's hard contract — same-seed TuneResult bytes are
// identical at any thread count and any predict batch size. TuneTest and
// RecipeSpaceTest run under TSan in scripts/check.sh.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "nl/cell_library.hpp"
#include "tune/recipe_space.hpp"
#include "tune/tuner.hpp"
#include "workloads/generators.hpp"

namespace edacloud::tune {
namespace {

TEST(RecipeSpaceTest, StandardRecipesGoldenSnapshot) {
  // The corpus-multiplying recipe set is load-bearing for every trained
  // model and golden digest downstream; a change here must be deliberate.
  const auto recipes = synth::standard_recipes();
  ASSERT_EQ(recipes.size(), 6u);
  const char* expected_keys[] = {
      "rw0-nobal-area-nofuse", "rw1-nobal-area-fuse", "rw1-bal-area-fuse",
      "rw2-bal-area-fuse",     "rw1-bal-delay-fuse",  "rw2-bal-delay-nofuse",
  };
  const char* expected_names[] = {
      "raw-area", "rw-area", "rw-bal-area",
      "rw2-bal-area", "rw-bal-delay", "rw2-bal-delay",
  };
  for (std::size_t i = 0; i < recipes.size(); ++i) {
    EXPECT_EQ(recipes[i].name, expected_names[i]) << i;
    EXPECT_EQ(recipe_key(recipes[i]), expected_keys[i]) << i;
  }
}

TEST(RecipeSpaceTest, DefaultRecipeGolden) {
  const synth::SynthRecipe recipe = synth::default_recipe();
  EXPECT_EQ(recipe.name, "rw-bal-area");
  EXPECT_EQ(recipe.rewrite_passes, 1);
  EXPECT_TRUE(recipe.balance);
  EXPECT_EQ(recipe.mode, synth::MapMode::kArea);
  EXPECT_TRUE(recipe.fuse);
  EXPECT_EQ(recipe_key(recipe), "rw1-bal-area-fuse");
}

TEST(RecipeSpaceTest, KeyIgnoresNameAndDependsOnEveryField) {
  synth::SynthRecipe a = synth::default_recipe();
  synth::SynthRecipe b = a;
  b.name = "completely-different-display-name";
  EXPECT_EQ(recipe_key(a), recipe_key(b));
  EXPECT_EQ(recipe_key_hash(a), recipe_key_hash(b));

  // Flipping any single semantic field changes the key.
  synth::SynthRecipe variant = a;
  variant.rewrite_passes = 2;
  EXPECT_NE(recipe_key(a), recipe_key(variant));
  variant = a;
  variant.balance = !variant.balance;
  EXPECT_NE(recipe_key(a), recipe_key(variant));
  variant = a;
  variant.mode = synth::MapMode::kDelay;
  EXPECT_NE(recipe_key(a), recipe_key(variant));
  variant = a;
  variant.fuse = !variant.fuse;
  EXPECT_NE(recipe_key(a), recipe_key(variant));
}

TEST(RecipeSpaceTest, KeysAndHashesAreInjectiveAcrossTheSampledSpace) {
  // Every field tuple reachable by the generator (rewrite 0..12 x 8 flag
  // combinations): distinct tuples must give distinct keys AND distinct
  // 64-bit hashes — the dedup set and the cache tests rely on it.
  std::set<std::string> keys;
  std::set<std::uint64_t> hashes;
  std::size_t tuples = 0;
  for (int rewrite = 0; rewrite <= 12; ++rewrite) {
    for (const bool balance : {false, true}) {
      for (const auto mode : {synth::MapMode::kArea, synth::MapMode::kDelay}) {
        for (const bool fuse : {false, true}) {
          synth::SynthRecipe recipe;
          recipe.rewrite_passes = rewrite;
          recipe.balance = balance;
          recipe.mode = mode;
          recipe.fuse = fuse;
          keys.insert(recipe_key(recipe));
          hashes.insert(recipe_key_hash(recipe));
          ++tuples;
        }
      }
    }
  }
  EXPECT_EQ(keys.size(), tuples);
  EXPECT_EQ(hashes.size(), tuples);
}

TEST(RecipeSpaceTest, EnumerationIsDeterministicAndDeduped) {
  RecipeSpace space;
  space.grid_max_rewrite = 1;
  space.sample_max_rewrite = 6;
  space.random_samples = 10;
  space.seed = 42;

  const auto first = enumerate_recipes(space);
  const auto second = enumerate_recipes(space);
  ASSERT_EQ(first.size(), second.size());
  std::set<std::string> seen;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(recipe_key(first[i]), recipe_key(second[i])) << i;
    EXPECT_EQ(first[i].name, recipe_key(first[i])) << "named by key";
    EXPECT_TRUE(seen.insert(first[i].name).second)
        << "duplicate recipe " << first[i].name;
  }
  // Grid part: (grid_max+1) * 2 * 2 * 2 combinations, then >= 1 extension
  // draw outside the grid (rewrite passes up to 6 are reachable).
  EXPECT_GE(first.size(), 16u);
  // A different seed keeps the grid prefix but may change the extension.
  RecipeSpace reseeded = space;
  reseeded.seed = 43;
  const auto third = enumerate_recipes(reseeded);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(recipe_key(third[i]), recipe_key(first[i]));
  }
}

TEST(RecipeSpaceTest, GridOnlySpaceHasExactCount) {
  RecipeSpace space;
  space.grid_max_rewrite = 2;
  space.random_samples = 0;
  EXPECT_EQ(enumerate_recipes(space).size(), 24u);  // 3 * 2 * 2 * 2
}

// ---------------------------------------------------------------------------
// RecipeTuner: train one small predictor for the whole suite (the tuner
// refuses untrained predictors), then check the determinism contract and
// the joint-optimization invariants on a small design.

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

const core::RuntimePredictor& trained_predictor() {
  static const core::RuntimePredictor* predictor = [] {
    core::DatasetOptions dataset_options;
    dataset_options.max_netlists = 16;
    dataset_options.max_recipes = 2;
    core::DatasetBuilder builder(library(), dataset_options);
    std::vector<workloads::BenchmarkSpec> specs;
    for (const char* family : {"adder", "parity", "decoder", "max"}) {
      workloads::BenchmarkSpec spec;
      spec.family = family;
      for (const auto& info : workloads::families()) {
        if (info.name == family) spec.size = info.corpus_sizes[0];
      }
      spec.seed = 3;
      specs.push_back(spec);
    }
    core::PredictorOptions options;
    options.gcn = ml::GcnConfig::fast();
    options.gcn.epochs = 6;
    auto* p = new core::RuntimePredictor(options);
    p->train(builder.build(specs));
    return p;
  }();
  return *predictor;
}

TunerOptions small_options() {
  TunerOptions options;
  options.space.grid_max_rewrite = 1;   // 16 grid recipes
  options.space.random_samples = 2;
  options.space.seed = 7;
  return options;
}

TEST(TuneTest, SameSeedByteIdenticalAcrossThreadCounts) {
  const nl::Aig design = workloads::gen_adder(8);
  std::string baseline;
  for (const int threads : {1, 2, 8}) {
    TunerOptions options = small_options();
    options.threads = threads;
    RecipeTuner tuner(library(), trained_predictor(), options);
    const TuneResult result = tuner.tune(design, 300.0);
    const std::string text = result.export_text();
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "threads=" << threads;
    }
  }
  ASSERT_FALSE(baseline.empty());
  EXPECT_NE(baseline.find("edacloud-tune-export v1"), std::string::npos);
}

TEST(TuneTest, SameSeedByteIdenticalAcrossBatchSizes) {
  const nl::Aig design = workloads::gen_adder(8);
  std::string baseline;
  for (const std::size_t batch : {1u, 3u, 64u, 4096u}) {
    TunerOptions options = small_options();
    options.threads = 4;
    options.batch_size = batch;
    RecipeTuner tuner(library(), trained_predictor(), options);
    const std::string text = tuner.tune(design, 300.0).export_text();
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "batch=" << batch;
    }
  }
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(TuneTest, ExportTextPinnedAcrossLattice) {
  // The export bytes of the full 28-recipe space on two designs (cavlc's
  // rewrite reaches a fixpoint), pinned to the values the per-recipe
  // synthesis loop produced before the recipe lattice replaced it.
  struct Pin {
    nl::Aig design;
    std::size_t size;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {workloads::gen_cavlc(16, 3), 13970, 2871607029671349651ULL},
      {workloads::gen_alu(8), 13388, 18374403743005004312ULL},
  };
  for (const int threads : {1, 4}) {
    TunerOptions options;
    options.space.random_samples = 4;
    options.space.seed = 11;
    options.threads = threads;
    for (const Pin& pin : pins) {
      RecipeTuner tuner(library(), trained_predictor(), options);
      const std::string text = tuner.tune(pin.design, 120.0).export_text();
      EXPECT_EQ(text.size(), pin.size)
          << pin.design.name() << " threads " << threads;
      EXPECT_EQ(fnv1a(text), pin.hash)
          << pin.design.name() << " threads " << threads;
    }
  }
}

TEST(TuneTest, DefaultRecipeIsAlwaysEvaluated) {
  const nl::Aig design = workloads::gen_parity(8);
  // A space that cannot contain the default recipe (grid rewrite 0 only,
  // no random draws): the tuner must append the fixed baseline itself.
  TunerOptions options;
  options.space.grid_max_rewrite = 0;
  options.space.random_samples = 0;
  RecipeTuner tuner(library(), trained_predictor(), options);
  const TuneResult result = tuner.tune(design, 300.0);
  bool found = false;
  for (const auto& evaluation : result.evaluations) {
    if (evaluation.key == "rw1-bal-area-fuse") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(result.fixed.recipe_key, "rw1-bal-area-fuse");
}

TEST(TuneTest, JointOptimaNeverWorseThanFixedBaseline) {
  const nl::Aig design = workloads::gen_max(8);
  RecipeTuner tuner(library(), trained_predictor(), small_options());
  const TuneResult result = tuner.tune(design, 300.0);

  ASSERT_TRUE(result.fixed.plan.feasible);
  ASSERT_TRUE(result.joint.plan.feasible);
  ASSERT_TRUE(result.joint_at_qor.plan.feasible);
  // The default recipe is in the space, so the unrestricted joint minimum
  // can only be cheaper or equal; the QoR-constrained one additionally
  // must not regress area.
  EXPECT_LE(result.joint.plan.total_cost_usd, result.fixed.plan.total_cost_usd);
  EXPECT_LE(result.joint_at_qor.plan.total_cost_usd,
            result.fixed.plan.total_cost_usd);
  EXPECT_LE(result.joint_at_qor.area_um2, result.fixed.area_um2);
  EXPECT_GE(result.savings_vs_fixed_usd(), 0.0);
  EXPECT_EQ(result.savings_vs_fixed_usd(),
            result.fixed.plan.total_cost_usd -
                result.joint_at_qor.plan.total_cost_usd);
}

TEST(TuneTest, FrontierIsSortedAndNonDominated) {
  const nl::Aig design = workloads::gen_adder(8);
  RecipeTuner tuner(library(), trained_predictor(), small_options());
  const TuneResult result = tuner.tune(design, 300.0);
  const auto& frontier = result.frontier;
  ASSERT_FALSE(frontier.empty());
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    const auto& prev = frontier[i - 1];
    const auto& point = frontier[i];
    // Sorted by (deadline, cost, area, key).
    EXPECT_TRUE(prev.deadline_seconds < point.deadline_seconds ||
                (prev.deadline_seconds == point.deadline_seconds &&
                 (prev.cost_usd < point.cost_usd ||
                  (prev.cost_usd == point.cost_usd &&
                   (prev.area_um2 < point.area_um2 ||
                    (prev.area_um2 == point.area_um2 &&
                     prev.recipe_key < point.recipe_key))))))
        << "unsorted at " << i;
  }
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (std::size_t j = 0; j < frontier.size(); ++j) {
      if (i == j) continue;
      const auto& a = frontier[i];
      const auto& b = frontier[j];
      const bool dominates =
          a.deadline_seconds <= b.deadline_seconds &&
          a.cost_usd <= b.cost_usd && a.area_um2 <= b.area_um2 &&
          (a.deadline_seconds < b.deadline_seconds ||
           a.cost_usd < b.cost_usd || a.area_um2 < b.area_um2);
      EXPECT_FALSE(dominates) << "point " << i << " dominates " << j;
    }
  }
}

TEST(TuneTest, WarmCacheSecondRunHitsEverything) {
  const nl::Aig design = workloads::gen_adder(8);
  RecipeTuner tuner(library(), trained_predictor(), small_options());
  const TuneResult cold = tuner.tune(design, 300.0);
  EXPECT_GT(cold.cache_misses, 0u);
  const TuneResult warm = tuner.tune(design, 300.0);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  // Cached values are bit-identical to the miss path, so the plans and
  // frontier must match exactly (only the cache counters differ).
  EXPECT_EQ(warm.joint.plan.total_cost_usd, cold.joint.plan.total_cost_usd);
  EXPECT_EQ(warm.fixed.plan.total_cost_usd, cold.fixed.plan.total_cost_usd);
  ASSERT_EQ(warm.frontier.size(), cold.frontier.size());
  for (std::size_t i = 0; i < warm.frontier.size(); ++i) {
    EXPECT_EQ(warm.frontier[i].cost_usd, cold.frontier[i].cost_usd);
    EXPECT_EQ(warm.frontier[i].recipe_key, cold.frontier[i].recipe_key);
  }
}

TEST(TuneTest, ExternalCacheIsSharedAcrossTuners) {
  const nl::Aig design = workloads::gen_adder(8);
  ml::PredictionCache cache(4096);
  RecipeTuner first(library(), trained_predictor(), small_options(), &cache);
  (void)first.tune(design, 300.0);
  RecipeTuner second(library(), trained_predictor(), small_options(), &cache);
  const TuneResult warm = second.tune(design, 300.0);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(second.cache(), &cache);
}

TEST(TuneTest, BudgetModeAnswersFastestWithinBudget) {
  const nl::Aig design = workloads::gen_adder(8);
  RecipeTuner tuner(library(), trained_predictor(), small_options());
  const TuneResult unbudgeted = tuner.tune(design, 300.0);
  ASSERT_TRUE(unbudgeted.joint.plan.feasible);
  EXPECT_FALSE(unbudgeted.budget_feasible);  // budget_usd == 0 -> off

  // A budget at the joint optimum must be feasible and meet the deadline.
  const double budget = unbudgeted.joint.plan.total_cost_usd;
  const TuneResult funded = tuner.tune(design, 300.0, budget);
  EXPECT_TRUE(funded.budget_feasible);
  EXPECT_GT(funded.budget_fastest_seconds, 0.0);
  EXPECT_FALSE(funded.budget_recipe_key.empty());

  // An absurdly small budget is infeasible.
  const TuneResult broke = tuner.tune(design, 300.0, 1e-12);
  EXPECT_FALSE(broke.budget_feasible);
}

TEST(TuneTest, UntrainedPredictorThrows) {
  const core::RuntimePredictor untrained;
  RecipeTuner tuner(library(), untrained, small_options());
  const nl::Aig design = workloads::gen_adder(8);
  EXPECT_THROW((void)tuner.tune(design, 300.0), std::runtime_error);
}

}  // namespace
}  // namespace edacloud::tune
