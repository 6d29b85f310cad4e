#pragma once
// RecipeTuner — joint flow + deployment optimization (ROADMAP item 4).
// The paper fixes one synthesis flow per stage and only explores the
// deployment space; the tuner treats the recipe space itself as the search
// object: enumerate/sample recipes (recipe_space.hpp), synthesize each one
// for real QoR (mapped area), GCN-predict the downstream runtime ladders
// from the per-recipe netlist graphs via RuntimePredictor::predict_batch
// (fronted by the content-addressed ml::PredictionCache — recipe variants
// of one design are exactly the high-duplicate predict stream the batching
// layer was built for), and solve the (recipe x VM-config) cross-product:
// for every recipe an exact MCKP deployment plan, the joint minimum over
// all of them, the joint minimum at no-worse QoR than the default recipe,
// and the merged 3-D Pareto frontier of $-vs-QoR-vs-deadline with
// per-recipe provenance.
//
// Hard contract (same as every subsystem before it): for a fixed seed the
// TuneResult — including its canonical export_text() bytes — is identical
// at any thread count and any predict batch size. Synthesis runs once per
// design as a recipe lattice (SynthesisEngine::synthesize_all: shared pass
// prefixes, interned AIGs, disjoint slots on the deterministic pool), cache
// lookups happen in canonical recipe order, and predict_batch is
// bit-identical to serial by the PR-6 contract.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "ml/batch.hpp"
#include "nl/aig.hpp"
#include "nl/cell_library.hpp"
#include "tune/recipe_space.hpp"

namespace edacloud::tune {

/// Per-request limits on the tuner's knobs, shared by the service protocol
/// and the CLI: seeded random recipes beyond the grid, and the
/// predict_batch chunk size.
inline constexpr int kMaxRandomSamples = 512;
inline constexpr int kMinBatchSize = 1;
inline constexpr int kMaxBatchSize = 4096;

struct TunerOptions {
  RecipeSpace space;
  /// predict_batch chunk size (results are bit-identical at any value —
  /// enforced by TuneTest and the check.sh tune smoke).
  std::size_t batch_size = 64;
  /// Synthesis fan-out width (0 = global pool default).
  int threads = 0;
  /// Capacity of the tuner-owned PredictionCache, used only when no
  /// external cache is supplied (0 disables caching).
  std::size_t cache_capacity = 4096;
  /// Offer spot tiers in every deployment stage.
  bool spot = false;
  /// Price those spot tiers against this market's planning view instead of
  /// the flat default SpotModel (null = flat model; implies spot when set).
  std::shared_ptr<const cloud::Market> market;
};

/// One evaluated recipe: real synthesis QoR + predicted runtime ladders.
struct RecipeEvaluation {
  synth::SynthRecipe recipe;
  std::string key;             // canonical recipe key (provenance handle)
  double area_um2 = 0.0;       // QoR: mapped area, lower is better
  std::size_t cell_count = 0;
  core::RuntimeLadders ladders{};  // seconds at 1/2/4/8 vCPUs per job
};

/// A deployment plan with recipe provenance.
struct JointPlan {
  std::string recipe_key;      // empty when no feasible recipe exists
  double area_um2 = 0.0;
  core::DeploymentPlan plan;
};

/// One point of the merged $-vs-QoR-vs-deadline frontier.
struct ParetoEntry {
  double deadline_seconds = 0.0;
  double cost_usd = 0.0;
  double area_um2 = 0.0;
  std::string recipe_key;
};

struct TuneResult {
  std::string design_name;
  double deadline_seconds = 0.0;
  double budget_usd = 0.0;

  /// Canonical enumeration order (recipe_space.hpp). The default recipe is
  /// always present (appended when the space does not already contain it).
  std::vector<RecipeEvaluation> evaluations;

  JointPlan fixed;         // default_recipe() baseline deployment
  JointPlan joint;         // cheapest feasible plan over all recipes
  JointPlan joint_at_qor;  // cheapest feasible with area <= fixed QoR

  /// Non-dominated (deadline, cost, QoR) points across every recipe,
  /// sorted by (deadline, cost, area, recipe key).
  std::vector<ParetoEntry> frontier;

  /// Budget mode (budget_usd > 0): fastest completion within the budget.
  bool budget_feasible = false;
  double budget_fastest_seconds = 0.0;
  std::string budget_recipe_key;

  /// Prediction-cache accounting for this tune() call only.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// $ saved by the joint optimum at no-worse QoR vs the fixed default
  /// recipe (0 when either side is infeasible).
  [[nodiscard]] double savings_vs_fixed_usd() const;

  /// Canonical plain-text serialization ("%.17g" doubles, one record per
  /// line). Byte-identical across thread counts and batch sizes for a
  /// fixed seed — the artifact the determinism cmp legs diff. Thread and
  /// batch settings are deliberately excluded from the dump.
  [[nodiscard]] std::string export_text() const;
};

class RecipeTuner {
 public:
  /// `cache` (optional) fronts every runtime prediction; when null the
  /// tuner owns one sized by options.cache_capacity. The predictor must
  /// outlive the tuner and be trained for all four jobs.
  RecipeTuner(const nl::CellLibrary& library,
              const core::RuntimePredictor& predictor,
              TunerOptions options = {},
              ml::PredictionCache* cache = nullptr);

  /// Evaluate the recipe space on `design` and jointly optimize recipe and
  /// deployment under `deadline_seconds` (and, when budget_usd > 0, answer
  /// the dual fastest-within-budget question).
  [[nodiscard]] TuneResult tune(const nl::Aig& design,
                                double deadline_seconds,
                                double budget_usd = 0.0);

  /// The cache predictions go through (owned or external); nullptr when
  /// caching is disabled.
  [[nodiscard]] ml::PredictionCache* cache() const { return cache_; }

 private:
  const nl::CellLibrary* library_;
  const core::RuntimePredictor* predictor_;
  TunerOptions options_;
  std::unique_ptr<ml::PredictionCache> owned_cache_;
  ml::PredictionCache* cache_ = nullptr;
};

}  // namespace edacloud::tune
