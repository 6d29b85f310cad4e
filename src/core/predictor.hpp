#pragma once
// Problem 2 — the per-application runtime predictor (§III-B). One GCN per
// application (four total), trained on the corpus dataset with a
// design-level train/test split (test designs unseen during training),
// predicting the runtime at 1/2/4/8 vCPUs on the job's recommended
// instance family.

#include <array>
#include <memory>
#include <vector>

#include "core/dataset.hpp"
#include "ml/batch.hpp"
#include "ml/gcn.hpp"

namespace edacloud::core {

struct PredictorOptions {
  ml::GcnConfig gcn = ml::GcnConfig::fast();
  std::uint32_t split_modulus = 5;   // 1-in-5 designs held out (20%)
  std::uint32_t split_remainder = 3;
};

struct JobEvaluation {
  JobKind job = JobKind::kSynthesis;
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
  double mean_relative_error = 0.0;          // paper: 13% netlist, 5% AIG
  std::vector<double> relative_errors;       // Fig. 5 histogram input
  double final_train_loss = 0.0;
};

class RuntimePredictor {
 public:
  explicit RuntimePredictor(PredictorOptions options = {});

  /// Train all four per-application models; returns held-out evaluations.
  std::array<JobEvaluation, kJobCount> train(const Dataset& dataset);

  /// Predicted runtimes (seconds) at 1/2/4/8 vCPUs for one graph sample.
  /// Requires train() to have been called for that job's model.
  [[nodiscard]] std::array<double, 4> predict(
      JobKind job, const ml::GraphSample& sample) const;

  /// Batched variant: one merged forward pass per size group with in-batch
  /// content dedup (ml::BatchedGcn), then the same inverse-scale + exp
  /// post-processing per entry. out[i] is bit-identical to
  /// predict(job, *samples[i]) at any thread count. `keys` (optional,
  /// size-matched) supplies memoized content keys so dedup skips hashing.
  [[nodiscard]] std::vector<std::array<double, 4>> predict_batch(
      JobKind job, const std::vector<const ml::GraphSample*>& samples,
      const std::vector<ml::ContentKey>* keys = nullptr) const;

  [[nodiscard]] bool trained(JobKind job) const {
    return models_[static_cast<int>(job)] != nullptr;
  }

  [[nodiscard]] const PredictorOptions& options() const { return options_; }

  /// Persist all trained models + target scalers (one text blob). load()
  /// restores them into a predictor constructed with the SAME GcnConfig;
  /// returns false (leaving this predictor untouched) on mismatch.
  [[nodiscard]] std::string save() const;
  bool load(const std::string& text);

 private:
  PredictorOptions options_;
  std::array<std::unique_ptr<ml::GcnModel>, kJobCount> models_;
  std::array<ml::TargetScaler, kJobCount> scalers_;
};

/// A startup-trained predictor and the corpus it saw (for startup logs).
struct StartupPredictor {
  RuntimePredictor predictor;
  std::size_t design_count = 0;
  std::size_t netlist_count = 0;
};

/// The small predictor a server or tool trains at startup: the first
/// `designs` registry families at their smallest corpus size (design seed
/// `seed`), `recipes` recipe variants each, GcnConfig::fast() for `epochs`
/// epochs. Tiny by design, so it trains in seconds.
StartupPredictor train_startup_predictor(const nl::CellLibrary& library,
                                         std::size_t designs,
                                         std::size_t recipes, int epochs,
                                         std::uint64_t seed);

}  // namespace edacloud::core
