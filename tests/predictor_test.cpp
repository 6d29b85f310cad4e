#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/dataset.hpp"
#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::core {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

Dataset small_dataset() {
  DatasetOptions options;
  options.max_netlists = 48;
  options.max_recipes = 2;
  DatasetBuilder builder(library(), options);
  std::vector<workloads::BenchmarkSpec> specs;
  for (const char* family : {"adder", "parity", "decoder", "comparator",
                             "encoder", "arbiter", "cavlc", "crossbar",
                             "shifter", "i2c", "max", "voter"}) {
    for (int size_index : {0, 1}) {
      workloads::BenchmarkSpec spec;
      spec.family = family;
      for (const auto& info : workloads::families()) {
        if (info.name == family) {
          spec.size = info.corpus_sizes[static_cast<std::size_t>(size_index)];
        }
      }
      spec.seed = 3;
      specs.push_back(spec);
    }
  }
  return builder.build(specs);
}

TEST(DatasetTest, BuildsSamplesForEveryJob) {
  const Dataset dataset = small_dataset();
  EXPECT_GT(dataset.design_count, 0u);
  EXPECT_GT(dataset.netlist_count, 0u);
  // Synthesis: one sample per design; netlist jobs: one per netlist.
  EXPECT_EQ(dataset.samples[static_cast<int>(JobKind::kSynthesis)].size(),
            dataset.design_count);
  for (JobKind job :
       {JobKind::kPlacement, JobKind::kRouting, JobKind::kSta}) {
    EXPECT_EQ(dataset.samples[static_cast<int>(job)].size(),
              dataset.netlist_count)
        << job_name(job);
  }
}

TEST(DatasetTest, TargetsAreFiniteAndOrdered) {
  const Dataset dataset = small_dataset();
  for (JobKind job : kAllJobs) {
    for (const auto& sample : dataset.samples[static_cast<int>(job)]) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_TRUE(std::isfinite(sample.log_runtimes[j]));
      }
      // More vCPUs never materially slower in the simulated labels
      // (tiny designs may see a few percent of multi-tenancy overhead).
      EXPECT_GE(sample.log_runtimes[0], sample.log_runtimes[3] - 0.05);
    }
  }
}

TEST(DatasetTest, RespectsNetlistCap) {
  DatasetOptions options;
  options.max_netlists = 5;
  options.max_recipes = 3;
  DatasetBuilder builder(library(), options);
  const Dataset dataset = builder.build(workloads::corpus_specs(4));
  EXPECT_LE(dataset.netlist_count, 5u);
}

TEST(PredictorTest, TrainsAndBeatsTrivialBaseline) {
  const Dataset dataset = small_dataset();
  PredictorOptions options;
  options.gcn = ml::GcnConfig::fast();
  options.gcn.epochs = 80;
  RuntimePredictor predictor(options);
  const auto evaluations = predictor.train(dataset);

  for (const auto& evaluation : evaluations) {
    EXPECT_GT(evaluation.train_samples, 0u) << job_name(evaluation.job);
    // Sanity bound: a usable model, not a random guess (relative errors of
    // untrained nets on these targets exceed 300%).
    EXPECT_LT(evaluation.mean_relative_error, 1.5)
        << job_name(evaluation.job);
  }
}

TEST(PredictorTest, PredictsPositiveRuntimes) {
  const Dataset dataset = small_dataset();
  PredictorOptions options;
  options.gcn = ml::GcnConfig::fast();
  options.gcn.epochs = 40;
  RuntimePredictor predictor(options);
  predictor.train(dataset);

  const auto& sample =
      dataset.samples[static_cast<int>(JobKind::kPlacement)].front();
  const auto runtimes = predictor.predict(JobKind::kPlacement, sample);
  for (double runtime : runtimes) EXPECT_GT(runtime, 0.0);
}

TEST(PredictorTest, PredictedLaddersDriveTheOptimizer) {
  // The full Fig. 1 path: GCN-predicted runtimes (not measurements) feed
  // the MCKP and yield a feasible, priced plan.
  const Dataset dataset = small_dataset();
  PredictorOptions options;
  options.gcn = ml::GcnConfig::fast();
  options.gcn.epochs = 40;
  RuntimePredictor predictor(options);
  predictor.train(dataset);

  RuntimeLadders ladders{};
  for (JobKind job : kAllJobs) {
    const auto& samples = dataset.samples[static_cast<int>(job)];
    ASSERT_FALSE(samples.empty());
    const auto predicted = predictor.predict(job, samples.front());
    for (int i = 0; i < 4; ++i) {
      ASSERT_GT(predicted[i], 0.0) << job_name(job);
      ladders[static_cast<int>(job)][i] = predicted[i];
    }
  }
  DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(ladders);
  const double fastest = cloud::fastest_completion_seconds(stages);
  const auto plan = optimizer.optimize(ladders, fastest * 1.5);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.entries.size(), 4u);
  EXPECT_GT(plan.total_cost_usd, 0.0);
}

TEST(PredictorTest, UntrainedPredictReturnsZeros) {
  RuntimePredictor predictor;
  EXPECT_FALSE(predictor.trained(JobKind::kRouting));
  ml::GraphSample sample;
  sample.features = ml::Matrix(1, 20);
  sample.in_neighbors = nl::build_csr(1, {});
  const auto runtimes = predictor.predict(JobKind::kRouting, sample);
  for (double runtime : runtimes) EXPECT_DOUBLE_EQ(runtime, 0.0);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(GcnGoldenTest, StartupPredictorSavePinned) {
  // The startup predictor's save() bytes, pinned to the values the three
  // hand-written matmul loops produced before the shared GEMM kernel
  // replaced them; re-pinned when routing moved to pending order (the
  // training set's routing counters moved).
  for (const int threads : {1, 4}) {
    util::set_global_thread_count(threads);
    const StartupPredictor startup =
        train_startup_predictor(library(), 2, 1, 2, 7);
    const std::string text = startup.predictor.save();
    EXPECT_EQ(text.size(), 238499u) << "threads " << threads;
    EXPECT_EQ(fnv1a(text), 10790828001851759451ULL) << "threads " << threads;
  }
  util::set_global_thread_count(1);
}

}  // namespace
}  // namespace edacloud::core
