#include "tune/tuner.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "nl/star_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/engine.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::tune {

namespace {

/// Canonical double formatting for export_text (round-trips exactly).
std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Deterministic "is `a` a strictly better joint plan than `b`" order:
/// feasibility, then cost, then QoR, then canonical key.
bool better_plan(const JointPlan& a, const JointPlan& b) {
  if (a.plan.feasible != b.plan.feasible) return a.plan.feasible;
  if (!a.plan.feasible) return false;
  if (a.plan.total_cost_usd != b.plan.total_cost_usd) {
    return a.plan.total_cost_usd < b.plan.total_cost_usd;
  }
  if (a.area_um2 != b.area_um2) return a.area_um2 < b.area_um2;
  return a.recipe_key < b.recipe_key;
}

void append_plan(std::string& out, const char* tag, const JointPlan& plan) {
  out += "plan ";
  out += tag;
  out += ' ';
  out += plan.recipe_key.empty() ? "-" : plan.recipe_key;
  out += plan.plan.feasible ? " feasible 1" : " feasible 0";
  out += " runtime_s " + fmt(plan.plan.total_runtime_seconds);
  out += " cost_usd " + fmt(plan.plan.total_cost_usd);
  out += " area " + fmt(plan.area_um2) + "\n";
  for (const auto& entry : plan.plan.entries) {
    out += "entry ";
    out += tag;
    out += ' ';
    out += core::job_name(entry.job);
    out += " vcpus " + std::to_string(entry.vcpus);
    out += entry.spot ? " spot" : " on-demand";
    out += " runtime_s " + fmt(entry.runtime_seconds);
    out += " cost_usd " + fmt(entry.cost_usd) + "\n";
  }
}

}  // namespace

double TuneResult::savings_vs_fixed_usd() const {
  if (!fixed.plan.feasible || !joint_at_qor.plan.feasible) return 0.0;
  return fixed.plan.total_cost_usd - joint_at_qor.plan.total_cost_usd;
}

std::string TuneResult::export_text() const {
  std::string out = "edacloud-tune-export v1\n";
  out += "design " + design_name + "\n";
  out += "deadline_s " + fmt(deadline_seconds) + "\n";
  out += "budget_usd " + fmt(budget_usd) + "\n";
  out += "recipes " + std::to_string(evaluations.size()) + "\n";
  for (const auto& eval : evaluations) {
    out += "recipe " + eval.key;
    out += " area " + fmt(eval.area_um2);
    out += " cells " + std::to_string(eval.cell_count);
    for (const core::JobKind job : core::kAllJobs) {
      out += ' ';
      out += core::job_name(job);
      for (const double seconds : eval.ladders[static_cast<int>(job)]) {
        out += ' ' + fmt(seconds);
      }
    }
    out += "\n";
  }
  append_plan(out, "fixed", fixed);
  append_plan(out, "joint", joint);
  append_plan(out, "joint_at_qor", joint_at_qor);
  out += "savings_vs_fixed_usd " + fmt(savings_vs_fixed_usd()) + "\n";
  out += std::string("budget feasible ") + (budget_feasible ? "1" : "0");
  out += " seconds " + fmt(budget_fastest_seconds);
  out += " recipe " +
         (budget_recipe_key.empty() ? std::string("-") : budget_recipe_key) +
         "\n";
  out += "frontier " + std::to_string(frontier.size()) + "\n";
  for (const auto& point : frontier) {
    out += "point " + fmt(point.deadline_seconds) + ' ' +
           fmt(point.cost_usd) + ' ' + fmt(point.area_um2) + ' ' +
           point.recipe_key + "\n";
  }
  out += "cache hits " + std::to_string(cache_hits) + " misses " +
         std::to_string(cache_misses) + "\n";
  return out;
}

RecipeTuner::RecipeTuner(const nl::CellLibrary& library,
                         const core::RuntimePredictor& predictor,
                         TunerOptions options, ml::PredictionCache* cache)
    : library_(&library), predictor_(&predictor), options_(options) {
  if (cache != nullptr) {
    cache_ = cache;
  } else if (options_.cache_capacity > 0) {
    owned_cache_ =
        std::make_unique<ml::PredictionCache>(options_.cache_capacity);
    cache_ = owned_cache_.get();
  }
}

TuneResult RecipeTuner::tune(const nl::Aig& design, double deadline_seconds,
                             double budget_usd) {
  TRACE_SPAN("tune/run", "tune");
  for (const core::JobKind job : core::kAllJobs) {
    if (!predictor_->trained(job)) {
      throw std::runtime_error("RecipeTuner: predictor not trained for " +
                               std::string(core::job_name(job)));
    }
  }

  TuneResult result;
  result.design_name = design.name();
  result.deadline_seconds = deadline_seconds;
  result.budget_usd = budget_usd;

  std::vector<synth::SynthRecipe> recipes = enumerate_recipes(options_.space);
  const std::string fixed_key = recipe_key(synth::default_recipe());
  if (std::none_of(recipes.begin(), recipes.end(),
                   [&](const synth::SynthRecipe& r) {
                     return recipe_key(r) == fixed_key;
                   })) {
    synth::SynthRecipe fallback = synth::default_recipe();
    fallback.name = fixed_key;
    recipes.push_back(std::move(fallback));
  }
  const std::size_t count = recipes.size();

  // Phase 1 — synthesize the recipe lattice once (shared pass prefixes, a
  // rewrite fixpoint ends the chain, one cut set per distinct AIG; see
  // SynthesisEngine::synthesize_all), then build each distinct leaf's
  // netlist feature graph once, slot-per-leaf on the deterministic pool.
  // Recipes that reach the same leaf share its sample and key.
  struct LeafSlot {
    ml::GraphSample sample;
    ml::ContentKey key;
  };
  synth::RecipeLattice lattice;
  std::vector<LeafSlot> leaves;
  {
    TRACE_SPAN_VAR(span, "tune/synthesize", "tune");
    lattice = synth::SynthesisEngine(*library_).synthesize_all(
        design, recipes, options_.threads);
    leaves.resize(lattice.leaves.size());
    util::parallel_for(
        options_.threads, 0, leaves.size(), 1,
        [&](std::size_t begin, std::size_t end, std::size_t, unsigned) {
          for (std::size_t i = begin; i < end; ++i) {
            leaves[i].sample = ml::sample_from_graph(
                nl::graph_from_netlist(lattice.leaves[i].netlist));
            leaves[i].key = ml::content_key(leaves[i].sample);
          }
        });
    const synth::LatticeCounts& work = lattice.counts;
    span.counter("rewrites", static_cast<double>(work.rewrites));
    span.counter("balances", static_cast<double>(work.balances));
    span.counter("cut_sets", static_cast<double>(work.cut_sets));
    span.counter("maps", static_cast<double>(work.maps));
    span.counter("leaves", static_cast<double>(work.leaves));
  }
  const ml::GraphSample aig_sample =
      ml::sample_from_graph(nl::graph_from_aig(design));
  const ml::ContentKey aig_key = ml::content_key(aig_sample);

  // Phase 2 — cache-fronted batched runtime prediction. Lookups run in
  // canonical recipe order; misses flow through predict_batch in
  // batch_size chunks (bit-identical to serial at any chunk size, so the
  // knob only affects throughput, never bytes).
  std::size_t predict_batches = 0;
  const auto predict_job =
      [&](core::JobKind job, const std::vector<const ml::GraphSample*>& samples,
          const std::vector<ml::ContentKey>& keys) {
        const std::uint64_t salt = static_cast<std::uint64_t>(job) + 1;
        std::vector<std::array<double, 4>> out(samples.size());
        std::vector<std::size_t> misses;
        for (std::size_t i = 0; i < samples.size(); ++i) {
          if (cache_ != nullptr) {
            if (const auto hit = cache_->lookup(keys[i].salted(salt))) {
              out[i] = *hit;
              ++result.cache_hits;
              continue;
            }
          }
          ++result.cache_misses;
          misses.push_back(i);
        }
        const std::size_t chunk =
            options_.batch_size > 0 ? options_.batch_size : misses.size();
        for (std::size_t start = 0; start < misses.size(); start += chunk) {
          const std::size_t stop = std::min(misses.size(), start + chunk);
          std::vector<const ml::GraphSample*> chunk_samples;
          std::vector<ml::ContentKey> chunk_keys;
          for (std::size_t k = start; k < stop; ++k) {
            chunk_samples.push_back(samples[misses[k]]);
            chunk_keys.push_back(keys[misses[k]]);
          }
          const auto batch_out =
              predictor_->predict_batch(job, chunk_samples, &chunk_keys);
          ++predict_batches;
          for (std::size_t k = start; k < stop; ++k) {
            out[misses[k]] = batch_out[k - start];
            if (cache_ != nullptr) {
              cache_->insert(chunk_keys[k - start].salted(salt),
                             batch_out[k - start]);
            }
          }
        }
        return out;
      };

  result.evaluations.resize(count);
  {
    TRACE_SPAN("tune/predict", "tune");
    // Synthesis runtime is predicted from the (recipe-independent) AIG
    // graph — one query fans out to every recipe (docs/TUNING.md records
    // the limitation).
    const auto synth_ladder = predict_job(
        core::JobKind::kSynthesis, {&aig_sample}, {aig_key})[0];
    std::vector<const ml::GraphSample*> netlist_samples(count);
    std::vector<ml::ContentKey> netlist_keys(count);
    for (std::size_t i = 0; i < count; ++i) {
      const LeafSlot& leaf = leaves[lattice.leaf_of[i]];
      netlist_samples[i] = &leaf.sample;
      netlist_keys[i] = leaf.key;
    }
    for (std::size_t i = 0; i < count; ++i) {
      RecipeEvaluation& eval = result.evaluations[i];
      eval.recipe = recipes[i];
      eval.key = recipe_key(recipes[i]);
      eval.area_um2 = lattice.result(i).mapped_area_um2;
      eval.cell_count = lattice.result(i).cell_count;
      eval.ladders[static_cast<int>(core::JobKind::kSynthesis)] = synth_ladder;
    }
    for (const core::JobKind job :
         {core::JobKind::kPlacement, core::JobKind::kRouting,
          core::JobKind::kSta}) {
      const auto ladders = predict_job(job, netlist_samples, netlist_keys);
      for (std::size_t i = 0; i < count; ++i) {
        result.evaluations[i].ladders[static_cast<int>(job)] = ladders[i];
      }
    }
  }

  // Phase 3 — the (recipe x VM-config) cross-product: an exact MCKP plan
  // per recipe, joint minima with provenance, the merged 3-D frontier and
  // the dual budget answer.
  {
    TRACE_SPAN("tune/optimize", "tune");
    core::DeploymentOptimizer optimizer;
    if (options_.market != nullptr) {
      optimizer.enable_spot(options_.market);
    } else if (options_.spot) {
      optimizer.enable_spot(cloud::SpotModel{});
    }
    double fixed_area = 0.0;
    for (const auto& eval : result.evaluations) {
      if (eval.key == fixed_key) fixed_area = eval.area_um2;
    }
    std::vector<ParetoEntry> points;
    for (const auto& eval : result.evaluations) {
      // One exact frontier per recipe answers all three questions.
      const auto stages = optimizer.build_stages(eval.ladders);
      const cloud::MckpFrontier frontier(stages);
      JointPlan candidate;
      candidate.recipe_key = eval.key;
      candidate.area_um2 = eval.area_um2;
      candidate.plan = core::DeploymentOptimizer::to_plan(
          stages, frontier.cheapest_within(deadline_seconds),
          deadline_seconds);
      if (eval.key == fixed_key) result.fixed = candidate;
      if (result.joint.recipe_key.empty() ||
          better_plan(candidate, result.joint)) {
        result.joint = candidate;
      }
      if (eval.area_um2 <= fixed_area &&
          (result.joint_at_qor.recipe_key.empty() ||
           better_plan(candidate, result.joint_at_qor))) {
        result.joint_at_qor = candidate;
      }

      for (const cloud::ParetoPoint& point : frontier.points()) {
        points.push_back({point.deadline_seconds, point.cost_usd,
                          eval.area_um2, eval.key});
      }
      if (budget_usd > 0.0) {
        const cloud::MckpSelection within = frontier.fastest_within(budget_usd);
        if (within.feasible &&
            (!result.budget_feasible ||
             within.total_time_seconds < result.budget_fastest_seconds ||
             (within.total_time_seconds == result.budget_fastest_seconds &&
              eval.key < result.budget_recipe_key))) {
          result.budget_feasible = true;
          result.budget_fastest_seconds = within.total_time_seconds;
          result.budget_recipe_key = eval.key;
        }
      }
    }
    // 3-D dominance filter (deadline, cost, QoR), O(n^2) on a small set.
    for (const ParetoEntry& a : points) {
      bool dominated = false;
      for (const ParetoEntry& b : points) {
        if (b.deadline_seconds <= a.deadline_seconds &&
            b.cost_usd <= a.cost_usd && b.area_um2 <= a.area_um2 &&
            (b.deadline_seconds < a.deadline_seconds ||
             b.cost_usd < a.cost_usd || b.area_um2 < a.area_um2)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) result.frontier.push_back(a);
    }
    std::sort(result.frontier.begin(), result.frontier.end(),
              [](const ParetoEntry& a, const ParetoEntry& b) {
                if (a.deadline_seconds != b.deadline_seconds) {
                  return a.deadline_seconds < b.deadline_seconds;
                }
                if (a.cost_usd != b.cost_usd) return a.cost_usd < b.cost_usd;
                if (a.area_um2 != b.area_um2) return a.area_um2 < b.area_um2;
                return a.recipe_key < b.recipe_key;
              });
  }

  // Observability: run, cache and exact lattice work counters.
  obs::Registry& registry = obs::Registry::global();
  registry.counter("tune.runs").add(1);
  registry.counter("tune.recipes_evaluated").add(count);
  registry.counter("tune.predict_batches").add(predict_batches);
  registry.counter("tune.cache.hits").add(result.cache_hits);
  registry.counter("tune.cache.misses").add(result.cache_misses);
  const synth::LatticeCounts& work = lattice.counts;
  registry.counter("tune.lattice.rewrites").add(work.rewrites);
  registry.counter("tune.lattice.balances").add(work.balances);
  registry.counter("tune.lattice.cut_sets").add(work.cut_sets);
  registry.counter("tune.lattice.maps").add(work.maps);
  registry.counter("tune.lattice.leaves").add(work.leaves);
  registry.gauge("tune.last_savings_usd").set(result.savings_vs_fixed_usd());

  return result;
}

}  // namespace edacloud::tune
