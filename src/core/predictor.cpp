#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/log.hpp"

namespace edacloud::core {

RuntimePredictor::RuntimePredictor(PredictorOptions options)
    : options_(std::move(options)) {}

std::array<JobEvaluation, kJobCount> RuntimePredictor::train(
    const Dataset& dataset) {
  std::array<JobEvaluation, kJobCount> evaluations;
  for (JobKind job : kAllJobs) {
    const int index = static_cast<int>(job);
    JobEvaluation& evaluation = evaluations[index];
    evaluation.job = job;

    const auto& all = dataset.samples[index];
    std::vector<ml::GraphSample> train_set, test_set;
    ml::split_by_family(all, options_.split_modulus,
                        options_.split_remainder, train_set, test_set);
    evaluation.train_samples = train_set.size();
    evaluation.test_samples = test_set.size();
    if (train_set.empty()) continue;

    scalers_[index].fit(train_set);
    models_[index] = std::make_unique<ml::GcnModel>(options_.gcn);

    // Small training sets (the per-design synthesis corpus) get a longer
    // schedule: epochs scale so every model sees a comparable number of
    // gradient steps.
    ml::GcnConfig schedule = options_.gcn;
    if (train_set.size() < 100) {
      schedule.epochs = schedule.epochs * 3;
    }
    ml::Trainer trainer(schedule);
    const ml::TrainResult train_result =
        trainer.fit(*models_[index], scalers_[index], train_set);
    evaluation.final_train_loss = train_result.final_train_loss;

    const ml::EvalResult eval = ml::Trainer::evaluate(
        *models_[index], scalers_[index],
        test_set.empty() ? train_set : test_set);
    evaluation.relative_errors = eval.relative_errors;
    evaluation.mean_relative_error = eval.mean_relative_error;

    EDACLOUD_INFO << "predictor[" << job_name(job)
                  << "]: train=" << train_set.size()
                  << " test=" << test_set.size() << " mean rel err="
                  << evaluation.mean_relative_error;
  }
  return evaluations;
}

std::string RuntimePredictor::save() const {
  std::string out = "edacloud-predictor 1\n";
  for (JobKind job : kAllJobs) {
    const int index = static_cast<int>(job);
    if (models_[index] == nullptr) {
      out += "job " + job_name(job) + " untrained\n";
      continue;
    }
    out += "job " + job_name(job) + " trained\n";
    out += "scaler";
    for (int j = 0; j < 4; ++j) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), " %.17g %.17g",
                    scalers_[index].mean[j], scalers_[index].stddev[j]);
      out += buffer;
    }
    out += "\n";
    const std::string model = models_[index]->save();
    out += "model " + std::to_string(model.size()) + "\n";
    out += model;
  }
  return out;
}

bool RuntimePredictor::load(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "edacloud-predictor" ||
      version != 1) {
    return false;
  }
  std::array<std::unique_ptr<ml::GcnModel>, kJobCount> staged_models;
  std::array<ml::TargetScaler, kJobCount> staged_scalers;
  for (JobKind job : kAllJobs) {
    const int index = static_cast<int>(job);
    std::string keyword, name, state;
    if (!(in >> keyword >> name >> state) || keyword != "job" ||
        name != job_name(job)) {
      return false;
    }
    if (state == "untrained") continue;
    if (state != "trained") return false;
    if (!(in >> keyword) || keyword != "scaler") return false;
    for (int j = 0; j < 4; ++j) {
      if (!(in >> staged_scalers[index].mean[j] >>
            staged_scalers[index].stddev[j])) {
        return false;
      }
    }
    std::size_t model_bytes = 0;
    if (!(in >> keyword >> model_bytes) || keyword != "model") return false;
    in.ignore(1);  // newline after the byte count
    std::string blob(model_bytes, '\0');
    in.read(blob.data(), static_cast<std::streamsize>(model_bytes));
    if (in.gcount() != static_cast<std::streamsize>(model_bytes)) {
      return false;
    }
    staged_models[index] = std::make_unique<ml::GcnModel>(options_.gcn);
    if (!staged_models[index]->load(blob)) return false;
  }
  models_ = std::move(staged_models);
  scalers_ = staged_scalers;
  return true;
}

std::array<double, 4> RuntimePredictor::predict(
    JobKind job, const ml::GraphSample& sample) const {
  const int index = static_cast<int>(job);
  std::array<double, 4> out{};
  if (models_[index] == nullptr) return out;
  const auto scaled = models_[index]->predict(sample);
  const auto log_runtimes = scalers_[index].inverse(scaled);
  for (int j = 0; j < 4; ++j) out[j] = std::exp(log_runtimes[j]);
  return out;
}

std::vector<std::array<double, 4>> RuntimePredictor::predict_batch(
    JobKind job, const std::vector<const ml::GraphSample*>& samples,
    const std::vector<ml::ContentKey>* keys) const {
  const int index = static_cast<int>(job);
  std::vector<std::array<double, 4>> out(samples.size(),
                                         std::array<double, 4>{});
  if (models_[index] == nullptr || samples.empty()) return out;
  const ml::BatchedGcn batched(*models_[index]);
  const auto scaled = keys != nullptr ? batched.predict(samples, *keys)
                                      : batched.predict(samples);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto log_runtimes = scalers_[index].inverse(scaled[i]);
    for (int j = 0; j < 4; ++j) out[i][j] = std::exp(log_runtimes[j]);
  }
  return out;
}

StartupPredictor train_startup_predictor(const nl::CellLibrary& library,
                                         std::size_t designs,
                                         std::size_t recipes, int epochs,
                                         std::uint64_t seed) {
  std::vector<workloads::BenchmarkSpec> specs;
  for (const auto& info : workloads::families()) {
    if (specs.size() >= designs) break;
    workloads::BenchmarkSpec spec;
    spec.family = info.name;
    spec.size = info.corpus_sizes.empty() ? 32 : info.corpus_sizes.front();
    spec.seed = seed;
    specs.push_back(spec);
  }
  DatasetOptions dataset_options;
  dataset_options.max_recipes = std::max<std::size_t>(1, recipes);
  dataset_options.max_netlists = specs.size() * dataset_options.max_recipes;
  const Dataset dataset = DatasetBuilder(library, dataset_options).build(specs);

  PredictorOptions predictor_options;
  predictor_options.gcn = ml::GcnConfig::fast();
  predictor_options.gcn.epochs = epochs;
  StartupPredictor out{RuntimePredictor(predictor_options),
                       dataset.design_count, dataset.netlist_count};
  (void)out.predictor.train(dataset);
  return out;
}

}  // namespace edacloud::core
