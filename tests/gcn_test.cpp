#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "ml/gcn.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::ml {
namespace {

/// Build a small random DAG sample whose log-runtime targets are a simple
/// function of its structure (node count), which the GCN should learn.
GraphSample make_sample(std::size_t n, std::uint64_t seed,
                        std::uint32_t family) {
  util::Rng rng(seed);
  std::vector<std::pair<nl::VertexId, nl::VertexId>> edges;
  for (std::size_t i = 1; i < n; ++i) {
    edges.emplace_back(static_cast<nl::VertexId>(rng.next_below(i)),
                       static_cast<nl::VertexId>(i));
  }
  GraphSample sample;
  sample.in_neighbors = nl::transpose(nl::build_csr(n, edges));
  sample.features = Matrix(n, 20);
  for (std::size_t v = 0; v < n; ++v) {
    sample.features.at(v, 0) = rng.next_double(0.0, 1.0);
    sample.features.at(v, 19) = 1.0;  // bias channel
  }
  const double base = std::log(static_cast<double>(n));
  sample.log_runtimes = {base, base - 0.4, base - 0.8, base - 1.0};
  sample.family_id = family;
  return sample;
}

GcnConfig tiny_config() {
  GcnConfig config;
  config.hidden1 = 8;
  config.hidden2 = 8;
  config.fc = 8;
  config.epochs = 150;
  config.learning_rate = 5e-3;
  return config;
}

TEST(ScalerTest, TransformInverseRoundTrip) {
  std::vector<GraphSample> samples;
  for (int i = 0; i < 5; ++i) {
    samples.push_back(make_sample(10 + 5 * i, i, i));
  }
  TargetScaler scaler;
  scaler.fit(samples);
  const std::array<double, 4> raw = {1.0, 2.0, 3.0, 4.0};
  const auto back = scaler.inverse(scaler.transform(raw));
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(back[j], raw[j], 1e-9);
}

TEST(ScalerTest, TransformedTrainSetIsStandardized) {
  std::vector<GraphSample> samples;
  for (int i = 0; i < 20; ++i) {
    samples.push_back(make_sample(10 + 3 * i, i, i));
  }
  TargetScaler scaler;
  scaler.fit(samples);
  double sum = 0.0;
  for (const auto& sample : samples) {
    sum += scaler.transform(sample.log_runtimes)[0];
  }
  EXPECT_NEAR(sum / samples.size(), 0.0, 1e-9);
}

TEST(GcnModelTest, DeterministicInitialization) {
  const GcnConfig config = tiny_config();
  GcnModel a(config), b(config);
  const GraphSample sample = make_sample(12, 3, 0);
  const auto pa = a.predict(sample);
  const auto pb = b.predict(sample);
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(pa[j], pb[j]);
}

TEST(GcnModelTest, ParameterCountMatchesArchitecture) {
  GcnConfig config = tiny_config();
  GcnModel model(config);
  const std::size_t f = 20, h1 = 8, h2 = 8, fc = 8;
  const std::size_t expected = 2 * f * h1 + h1 + 2 * h1 * h2 + h2 +
                               (h2 + 1) * fc + fc + fc * 4 + 4;
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(GcnModelTest, TrainStepReducesLossOnSingleSample) {
  GcnModel model(tiny_config());
  const GraphSample sample = make_sample(16, 5, 0);
  const std::array<double, 4> target = {0.5, 0.2, -0.1, -0.3};
  const double first = model.train_step(sample, target);
  double last = first;
  for (int i = 0; i < 60; ++i) last = model.train_step(sample, target);
  EXPECT_LT(last, first * 0.1);
}

TEST(GcnModelTest, GradientMatchesNumericalDerivativeAtOutputBias) {
  // Perturbing the data should move the loss consistently — a smoke-level
  // check that forward/backward are coupled correctly: after training to
  // near-zero loss, predictions match the target.
  GcnModel model(tiny_config());
  const GraphSample sample = make_sample(10, 6, 0);
  const std::array<double, 4> target = {1.0, 0.5, 0.0, -0.5};
  for (int i = 0; i < 400; ++i) model.train_step(sample, target);
  const auto out = model.predict(sample);
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(out[j], target[j], 0.05);
}

TEST(TrainerTest, LearnsSizeDependentTargets) {
  std::vector<GraphSample> all;
  util::Rng rng(8);
  for (std::uint32_t d = 0; d < 30; ++d) {
    all.push_back(make_sample(8 + 4 * (d % 10), 100 + d, d));
  }
  std::vector<GraphSample> train, test;
  split_by_family(all, 5, 3, train, test);
  ASSERT_FALSE(train.empty());
  ASSERT_FALSE(test.empty());

  TargetScaler scaler;
  scaler.fit(train);
  const GcnConfig config = tiny_config();
  GcnModel model(config);
  Trainer trainer(config);
  const TrainResult result = trainer.fit(model, scaler, train);
  EXPECT_LT(result.final_train_loss, result.epoch_losses.front());

  const EvalResult eval = Trainer::evaluate(model, scaler, test);
  // Targets are log(n) with n in a narrow range — should be easy.
  EXPECT_LT(eval.mean_relative_error, 0.25);
}

TEST(TrainerTest, ZeroEpochsLeavesModelUntouched) {
  std::vector<GraphSample> train;
  for (std::uint32_t d = 0; d < 4; ++d) {
    train.push_back(make_sample(8 + 4 * d, 200 + d, d));
  }
  TargetScaler scaler;
  scaler.fit(train);
  GcnConfig config = tiny_config();
  config.epochs = 0;
  GcnModel model(config);
  const std::string before = model.save();
  const TrainResult result = Trainer(config).fit(model, scaler, train);
  EXPECT_TRUE(result.epoch_losses.empty());
  EXPECT_EQ(result.final_train_loss, 0.0);
  EXPECT_EQ(model.save(), before);
}

TEST(SplitTest, PartitionsByFamily) {
  std::vector<GraphSample> all;
  for (std::uint32_t d = 0; d < 10; ++d) {
    all.push_back(make_sample(8, d, d));
  }
  std::vector<GraphSample> train, test;
  split_by_family(all, 5, 0, train, test);
  EXPECT_EQ(test.size(), 2u);   // family ids 0 and 5
  EXPECT_EQ(train.size(), 8u);
  for (const auto& sample : test) EXPECT_EQ(sample.family_id % 5, 0u);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(GcnGoldenTest, ModelSaveAfterTrainStepsPinned) {
  // The save() bytes after 20 train steps, pinned to the values the three
  // hand-written matmul loops produced before the shared GEMM kernel
  // replaced them. 256 nodes put every layer-1/2 product above the serial
  // flop cutoff, so the threads-4 run really splits rows.
  const GraphSample sample = make_sample(256, 17, 0);
  const std::array<double, 4> target = {0.5, 0.2, -0.1, -0.3};
  for (const int threads : {1, 4}) {
    util::set_global_thread_count(threads);
    GcnModel model(GcnConfig::fast());
    for (int step = 0; step < 20; ++step) model.train_step(sample, target);
    const std::string text = model.save();
    EXPECT_EQ(text.size(), 59310u) << "threads " << threads;
    EXPECT_EQ(fnv1a(text), 1921335506862054363ULL) << "threads " << threads;
  }
  util::set_global_thread_count(1);
}

TEST(GcnConfigTest, PresetsDiffer) {
  EXPECT_GT(GcnConfig::paper().hidden1, GcnConfig::fast().hidden1);
  EXPECT_EQ(GcnConfig::paper().epochs, 200);
  EXPECT_DOUBLE_EQ(GcnConfig::paper().learning_rate, 1e-4);
}

}  // namespace
}  // namespace edacloud::ml
