// Recipe-space autotuning (beyond the paper): the paper fixes one synthesis
// flow and only shops for VM shapes; the RecipeTuner searches the joint
// (recipe x VM-config) space. This harness measures, per design:
//
//   * evaluated-recipes/sec cold (synthesize + predict + MCKP per recipe)
//     and warm (second run against the content-addressed PredictionCache,
//     with the hit rate reported) — the tuner's throughput ladder
//   * $-savings of the joint optimum at no-worse QoR vs the fixed
//     default-recipe baseline, and of the unrestricted joint optimum —
//     the headline "joint beats fixed" claim, across 3 designs
//
// and then enforces the determinism contract in-harness: the same seed
// must produce byte-identical TuneResult exports at threads 1 vs 8 and at
// predict batch sizes 1 vs 4096 (exit 1 on any divergence). Writes the
// table, a CSV, and experiment_results/BENCH_recipe_tuning.json.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/predictor.hpp"
#include "nl/cell_library.hpp"
#include "svc/json.hpp"
#include "tune/tuner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"

using namespace edacloud;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fmt(double value, int digits = 1) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  bench::observability_setup(argc, argv, obs::ClockMode::kWall);

  // Train the predictor the way the serving layer does. The bench measures
  // tuner throughput and the joint-vs-fixed deployment gap, not accuracy.
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  const core::RuntimePredictor predictor =
      core::train_startup_predictor(library, fast ? 4 : 6, 2, fast ? 4 : 12, 7)
          .predictor;
  for (const core::JobKind job : core::kAllJobs) {
    if (!predictor.trained(job)) {
      std::fprintf(stderr, "training produced no model for %s\n",
                   core::job_name(job).c_str());
      return 1;
    }
  }

  // Irregular-logic designs where the recipe space has real QoR spread (the
  // structured arithmetic families synthesize to near-identical netlists
  // under most recipes, leaving the joint optimizer nothing to trade).
  struct DesignSpec {
    const char* family;
    int size;
  };
  const DesignSpec design_specs[] = {
      {"cavlc", 16}, {"mem_ctrl", 32}, {"crossbar", 8}};
  const double kDeadlineSeconds = 45.0;

  tune::TunerOptions options;
  options.space.random_samples = fast ? 4 : 16;
  options.space.seed = 7;
  options.threads = 8;
  options.batch_size = 64;

  util::Table table({"design", "recipes", "cold rcp/s", "warm rcp/s",
                     "hit rate", "fixed $", "joint@QoR $", "savings $",
                     "best recipe"});
  util::CsvWriter csv({"design", "recipes", "cold_recipes_per_s",
                       "warm_recipes_per_s", "warm_hit_rate", "fixed_usd",
                       "joint_usd", "joint_at_qor_usd", "savings_usd",
                       "best_recipe"});
  svc::JsonValue rows = svc::JsonValue::array();
  int positive_savings = 0;
  double total_fixed_usd = 0.0, total_joint_at_qor_usd = 0.0;

  for (const DesignSpec& spec : design_specs) {
    workloads::BenchmarkSpec bench_spec;
    bench_spec.family = spec.family;
    bench_spec.size = spec.size;
    bench_spec.seed = 7;
    const nl::Aig design = workloads::generate(bench_spec);

    tune::RecipeTuner tuner(library, predictor, options);
    double t0 = now_ms();
    const tune::TuneResult cold = tuner.tune(design, kDeadlineSeconds);
    const double cold_ms = now_ms() - t0;
    t0 = now_ms();
    const tune::TuneResult warm = tuner.tune(design, kDeadlineSeconds);
    const double warm_ms = now_ms() - t0;

    const double recipes = static_cast<double>(cold.evaluations.size());
    const double cold_rps = 1000.0 * recipes / cold_ms;
    const double warm_rps = 1000.0 * recipes / warm_ms;
    const double warm_hit_rate =
        warm.cache_hits + warm.cache_misses > 0
            ? static_cast<double>(warm.cache_hits) /
                  static_cast<double>(warm.cache_hits + warm.cache_misses)
            : 0.0;
    const double savings = cold.savings_vs_fixed_usd();
    if (savings > 0.0) ++positive_savings;
    total_fixed_usd += cold.fixed.plan.total_cost_usd;
    total_joint_at_qor_usd += cold.joint_at_qor.plan.total_cost_usd;

    table.add_row({design.name(), fmt(recipes, 0), fmt(cold_rps, 2),
                   fmt(warm_rps, 2), fmt(100.0 * warm_hit_rate, 1) + "%",
                   fmt(cold.fixed.plan.total_cost_usd, 6),
                   fmt(cold.joint_at_qor.plan.total_cost_usd, 6),
                   fmt(savings, 6), cold.joint_at_qor.recipe_key});
    csv.add_row({design.name(), fmt(recipes, 0), fmt(cold_rps, 2),
                 fmt(warm_rps, 2), fmt(warm_hit_rate, 4),
                 fmt(cold.fixed.plan.total_cost_usd, 8),
                 fmt(cold.joint.plan.total_cost_usd, 8),
                 fmt(cold.joint_at_qor.plan.total_cost_usd, 8),
                 fmt(savings, 8), cold.joint_at_qor.recipe_key});

    svc::JsonValue row = svc::JsonValue::object();
    row.set("design", svc::JsonValue::of(design.name()));
    row.set("recipes", svc::JsonValue::of(recipes));
    row.set("cold_recipes_per_s", svc::JsonValue::of(cold_rps));
    row.set("warm_recipes_per_s", svc::JsonValue::of(warm_rps));
    row.set("warm_hit_rate", svc::JsonValue::of(warm_hit_rate));
    row.set("fixed_usd", svc::JsonValue::of(cold.fixed.plan.total_cost_usd));
    row.set("joint_usd", svc::JsonValue::of(cold.joint.plan.total_cost_usd));
    row.set("joint_at_qor_usd",
            svc::JsonValue::of(cold.joint_at_qor.plan.total_cost_usd));
    row.set("savings_usd", svc::JsonValue::of(savings));
    row.set("best_recipe", svc::JsonValue::of(cold.joint_at_qor.recipe_key));
    row.set("frontier_points",
            svc::JsonValue::of(static_cast<double>(cold.frontier.size())));
    rows.push_back(std::move(row));
  }

  // Determinism contract, enforced in-harness: same seed, byte-identical
  // exports at thread counts 1 vs 8 and batch sizes 1 vs 4096.
  bool byte_identical = true;
  {
    workloads::BenchmarkSpec bench_spec;
    bench_spec.family = "cavlc";
    bench_spec.size = 16;
    bench_spec.seed = 7;
    const nl::Aig design = workloads::generate(bench_spec);
    struct Variant {
      const char* label;
      int threads;
      std::size_t batch;
    };
    const Variant variants[] = {
        {"t1-b3", 1, 3}, {"t8-b64", 8, 64}, {"t4-b1", 4, 1},
        {"t2-b4096", 2, 4096}};
    std::string baseline;
    for (const Variant& variant : variants) {
      tune::TunerOptions check = options;
      check.threads = variant.threads;
      check.batch_size = variant.batch;
      tune::RecipeTuner tuner(library, predictor, check);
      const std::string text =
          tuner.tune(design, kDeadlineSeconds).export_text();
      if (baseline.empty()) {
        baseline = text;
      } else if (text != baseline) {
        std::fprintf(stderr, "BYTE-IDENTITY VIOLATION at %s\n", variant.label);
        byte_identical = false;
      }
    }
  }

  std::printf("Joint recipe x VM-config tuning vs the paper's fixed-recipe "
              "flow (deadline %.0fs, %s recipes/design)\n\n%s\n",
              kDeadlineSeconds, fast ? "grid+4" : "grid+16",
              table.render().c_str());
  std::printf("headline: joint beats fixed at equal QoR on %d/3 designs "
              "(aggregate $%.6f -> $%.6f), byte-identical across "
              "threads/batch: %s\n",
              positive_savings, total_fixed_usd, total_joint_at_qor_usd,
              byte_identical ? "yes" : "NO");
  bench::write_csv(csv, "ext_recipe_tuning.csv");

  svc::JsonValue doc = svc::JsonValue::object();
  doc.set("schema", svc::JsonValue::of("recipe_tuning/v1"));
  svc::JsonValue config = svc::JsonValue::object();
  config.set("deadline_s", svc::JsonValue::of(kDeadlineSeconds));
  config.set("random_samples",
             svc::JsonValue::of(static_cast<double>(options.space.random_samples)));
  config.set("seed",
             svc::JsonValue::of(static_cast<double>(options.space.seed)));
  config.set("fast", svc::JsonValue::of(fast));
  doc.set("config", std::move(config));
  doc.set("designs", std::move(rows));
  svc::JsonValue headline = svc::JsonValue::object();
  headline.set("designs_with_positive_savings",
               svc::JsonValue::of(positive_savings));
  headline.set("aggregate_fixed_usd", svc::JsonValue::of(total_fixed_usd));
  headline.set("aggregate_joint_at_qor_usd",
               svc::JsonValue::of(total_joint_at_qor_usd));
  headline.set("byte_identical", svc::JsonValue::of(byte_identical));
  doc.set("headline", std::move(headline));
  std::filesystem::create_directories("experiment_results");
  {
    std::ofstream out("experiment_results/BENCH_recipe_tuning.json");
    out << doc.dump() << "\n";
    if (out) {
      std::printf("wrote experiment_results/BENCH_recipe_tuning.json\n");
    }
  }

  bench::observability_flush(argc, argv);
  return byte_identical ? 0 : 1;
}
