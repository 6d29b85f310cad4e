#include "ml/gcn.hpp"

#include <algorithm>
#include <sstream>
#include <cmath>
#include <stdexcept>

namespace edacloud::ml {

GcnConfig GcnConfig::paper() {
  GcnConfig config;
  config.hidden1 = 256;
  config.hidden2 = 128;
  config.fc = 128;
  config.epochs = 200;
  config.learning_rate = 1e-4;
  return config;
}

GcnConfig GcnConfig::fast() {
  GcnConfig config;
  config.hidden1 = 32;
  config.hidden2 = 16;
  config.fc = 24;
  config.epochs = 120;
  config.learning_rate = 3e-3;
  return config;
}

void TargetScaler::fit(const std::vector<GraphSample>& samples) {
  mean.fill(0.0);
  stddev.fill(1.0);
  if (samples.empty()) return;
  for (int j = 0; j < kRuntimeOutputs; ++j) {
    double sum = 0.0;
    for (const auto& sample : samples) sum += sample.log_runtimes[j];
    mean[j] = sum / static_cast<double>(samples.size());
    double var = 0.0;
    for (const auto& sample : samples) {
      const double d = sample.log_runtimes[j] - mean[j];
      var += d * d;
    }
    stddev[j] =
        std::sqrt(var / std::max<std::size_t>(1, samples.size() - 1));
    if (stddev[j] < 1e-9) stddev[j] = 1.0;
  }
}

std::array<double, kRuntimeOutputs> TargetScaler::transform(
    const std::array<double, kRuntimeOutputs>& raw) const {
  std::array<double, kRuntimeOutputs> out{};
  for (int j = 0; j < kRuntimeOutputs; ++j) {
    out[j] = (raw[j] - mean[j]) / stddev[j];
  }
  return out;
}

std::array<double, kRuntimeOutputs> TargetScaler::inverse(
    const std::array<double, kRuntimeOutputs>& scaled) const {
  std::array<double, kRuntimeOutputs> out{};
  for (int j = 0; j < kRuntimeOutputs; ++j) {
    out[j] = scaled[j] * stddev[j] + mean[j];
  }
  return out;
}

GcnModel::Tensor::Tensor(std::size_t rows, std::size_t cols, util::Rng& rng,
                         double scale)
    : value(rows, cols),
      grad(rows, cols),
      adam_m(rows, cols),
      adam_v(rows, cols) {
  for (double& v : value.data()) v = rng.next_gaussian() * scale;
}

GcnModel::GcnModel(const GcnConfig& config) : config_(config) {
  util::Rng rng(config.seed);
  const auto he = [](int fan_in) { return std::sqrt(2.0 / fan_in); };
  const std::size_t f = static_cast<std::size_t>(config.input_dim);
  const std::size_t h1 = static_cast<std::size_t>(config.hidden1);
  const std::size_t h2 = static_cast<std::size_t>(config.hidden2);
  const std::size_t fc = static_cast<std::size_t>(config.fc);
  w1_ = Tensor(f, h1, rng, he(config.input_dim));
  s1_ = Tensor(f, h1, rng, he(config.input_dim));
  b1_ = BiasTensor(h1);
  w2_ = Tensor(h1, h2, rng, he(config.hidden1));
  s2_ = Tensor(h1, h2, rng, he(config.hidden1));
  b2_ = BiasTensor(h2);
  // Pool vector = mean-pooled H2 plus one explicit log-size channel (a
  // numerically-stable stand-in for the paper's raw sum pooling).
  w3_ = Tensor(h2 + 1, fc, rng, he(config.hidden2 + 1));
  b3_ = BiasTensor(fc);
  w4_ = Tensor(fc, kRuntimeOutputs, rng, he(config.fc));
  b4_ = BiasTensor(kRuntimeOutputs);
}

std::size_t GcnModel::parameter_count() const {
  auto count = [](const Tensor& t) { return t.value.data().size(); };
  return count(w1_) + count(s1_) + b1_.value.size() + count(w2_) +
         count(s2_) + b2_.value.size() + count(w3_) + b3_.value.size() +
         count(w4_) + b4_.value.size();
}

std::string GcnModel::save() const {
  std::ostringstream out;
  out.precision(17);
  out << "edacloud-gcn 1 " << config_.input_dim << ' ' << config_.hidden1
      << ' ' << config_.hidden2 << ' ' << config_.fc << '\n';
  auto dump_matrix = [&out](const Tensor& t) {
    out << t.value.rows() << ' ' << t.value.cols();
    for (double v : t.value.data()) out << ' ' << v;
    out << '\n';
  };
  auto dump_bias = [&out](const BiasTensor& t) {
    out << t.value.size();
    for (double v : t.value) out << ' ' << v;
    out << '\n';
  };
  dump_matrix(w1_);
  dump_matrix(s1_);
  dump_bias(b1_);
  dump_matrix(w2_);
  dump_matrix(s2_);
  dump_bias(b2_);
  dump_matrix(w3_);
  dump_bias(b3_);
  dump_matrix(w4_);
  dump_bias(b4_);
  return out.str();
}

bool GcnModel::load(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  int version = 0, input_dim = 0, h1 = 0, h2 = 0, fc = 0;
  if (!(in >> magic >> version >> input_dim >> h1 >> h2 >> fc)) return false;
  if (magic != "edacloud-gcn" || version != 1 ||
      input_dim != config_.input_dim || h1 != config_.hidden1 ||
      h2 != config_.hidden2 || fc != config_.fc) {
    return false;
  }
  auto read_matrix = [&in](Tensor& t) {
    std::size_t rows = 0, cols = 0;
    if (!(in >> rows >> cols)) return false;
    if (rows != t.value.rows() || cols != t.value.cols()) return false;
    for (double& v : t.value.data()) {
      if (!(in >> v)) return false;
    }
    return true;
  };
  auto read_bias = [&in](BiasTensor& t) {
    std::size_t n = 0;
    if (!(in >> n)) return false;
    if (n != t.value.size()) return false;
    for (double& v : t.value) {
      if (!(in >> v)) return false;
    }
    return true;
  };
  GcnModel staging(config_);
  if (!read_matrix(staging.w1_) || !read_matrix(staging.s1_) ||
      !read_bias(staging.b1_) || !read_matrix(staging.w2_) ||
      !read_matrix(staging.s2_) || !read_bias(staging.b2_) ||
      !read_matrix(staging.w3_) || !read_bias(staging.b3_) ||
      !read_matrix(staging.w4_) || !read_bias(staging.b4_)) {
    return false;
  }
  *this = std::move(staging);
  return true;
}

GcnModel::Forward GcnModel::run_forward(const GraphSample& sample) const {
  Forward f;
  // Layer 1: H1 = relu(agg(H0) W1 + H0 S1 + b1).
  f.agg1 = aggregate_mean(sample.in_neighbors, sample.features);
  f.z1 = matmul(f.agg1, w1_.value);
  {
    Matrix self = matmul(sample.features, s1_.value);
    for (std::size_t i = 0; i < f.z1.data().size(); ++i) {
      f.z1.data()[i] += self.data()[i];
    }
  }
  add_bias_rows(f.z1, b1_.value);
  f.h1 = f.z1;
  relu_inplace(f.h1);

  // Layer 2.
  f.agg2 = aggregate_mean(sample.in_neighbors, f.h1);
  f.z2 = matmul(f.agg2, w2_.value);
  {
    Matrix self = matmul(f.h1, s2_.value);
    for (std::size_t i = 0; i < f.z2.data().size(); ++i) {
      f.z2.data()[i] += self.data()[i];
    }
  }
  add_bias_rows(f.z2, b2_.value);
  f.h2 = f.z2;
  relu_inplace(f.h2);

  // Mean pooling + log-size channel (see header note).
  const std::vector<double> pooled = sum_pool(f.h2);
  const double n = static_cast<double>(std::max<std::size_t>(1, f.h2.rows()));
  f.pooled = Matrix(1, pooled.size() + 1);
  for (std::size_t j = 0; j < pooled.size(); ++j) {
    f.pooled.at(0, j) = pooled[j] / n;
  }
  f.pooled.at(0, pooled.size()) = std::log1p(n);

  // FC head.
  f.z3 = matmul(f.pooled, w3_.value);
  add_bias_rows(f.z3, b3_.value);
  f.h3 = f.z3;
  relu_inplace(f.h3);
  Matrix out = matmul(f.h3, w4_.value);
  add_bias_rows(out, b4_.value);
  for (int j = 0; j < kRuntimeOutputs; ++j) f.out[j] = out.at(0, j);
  return f;
}

std::array<double, kRuntimeOutputs> GcnModel::predict(
    const GraphSample& sample) const {
  return run_forward(sample).out;
}

double GcnModel::train_step(
    const GraphSample& sample,
    const std::array<double, kRuntimeOutputs>& target) {
  const Forward f = run_forward(sample);

  // MSE loss over the four outputs.
  double loss = 0.0;
  Matrix dout(1, kRuntimeOutputs);
  for (int j = 0; j < kRuntimeOutputs; ++j) {
    const double diff = f.out[j] - target[j];
    loss += diff * diff;
    dout.at(0, j) = 2.0 * diff / kRuntimeOutputs;
  }
  loss /= kRuntimeOutputs;

  // ---- backward ---------------------------------------------------------
  // out = h3 W4 + b4
  w4_.grad = matmul_at_b(f.h3, dout);
  for (int j = 0; j < kRuntimeOutputs; ++j) b4_.grad[j] = dout.at(0, j);
  Matrix dh3 = matmul_a_bt(dout, w4_.value);
  relu_backward_inplace(dh3, f.z3);
  // h3 = relu(pooled W3 + b3)
  w3_.grad = matmul_at_b(f.pooled, dh3);
  for (std::size_t j = 0; j < b3_.grad.size(); ++j) b3_.grad[j] = dh3.at(0, j);
  Matrix dpooled = matmul_a_bt(dh3, w3_.value);

  // pooled[0..h2) = mean over rows -> broadcast gradient / n; the log-size
  // channel carries no gradient into H2.
  const double inv_n =
      1.0 / static_cast<double>(std::max<std::size_t>(1, f.h2.rows()));
  Matrix dh2(f.h2.rows(), f.h2.cols());
  for (std::size_t i = 0; i < dh2.rows(); ++i) {
    double* row = dh2.row(i);
    for (std::size_t j = 0; j < dh2.cols(); ++j) {
      row[j] = dpooled.at(0, j) * inv_n;
    }
  }
  relu_backward_inplace(dh2, f.z2);

  // z2 = agg2 W2 + h1 S2 + b2
  w2_.grad = matmul_at_b(f.agg2, dh2);
  s2_.grad = matmul_at_b(f.h1, dh2);
  b2_.grad = sum_pool(dh2);
  Matrix dagg2 = matmul_a_bt(dh2, w2_.value);
  Matrix dh1 = aggregate_mean_backward(sample.in_neighbors, dagg2);
  {
    Matrix dh1_self = matmul_a_bt(dh2, s2_.value);
    for (std::size_t i = 0; i < dh1.data().size(); ++i) {
      dh1.data()[i] += dh1_self.data()[i];
    }
  }
  relu_backward_inplace(dh1, f.z1);

  // z1 = agg1 W1 + X S1 + b1
  w1_.grad = matmul_at_b(f.agg1, dh1);
  s1_.grad = matmul_at_b(sample.features, dh1);
  b1_.grad = sum_pool(dh1);

  adam_step();
  return loss;
}

void GcnModel::adam_step() {
  ++adam_t_;
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEpsilon = 1e-8;
  const double correction1 =
      1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
  const double correction2 =
      1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));
  const double lr = config_.learning_rate;

  auto update_matrix = [&](Tensor& t) {
    for (std::size_t i = 0; i < t.value.data().size(); ++i) {
      const double g = t.grad.data()[i];
      double& m = t.adam_m.data()[i];
      double& v = t.adam_v.data()[i];
      m = kBeta1 * m + (1.0 - kBeta1) * g;
      v = kBeta2 * v + (1.0 - kBeta2) * g * g;
      const double mhat = m / correction1;
      const double vhat = v / correction2;
      t.value.data()[i] -= lr * mhat / (std::sqrt(vhat) + kEpsilon);
    }
  };
  auto update_bias = [&](BiasTensor& t) {
    for (std::size_t i = 0; i < t.value.size(); ++i) {
      const double g = t.grad[i];
      double& m = t.adam_m[i];
      double& v = t.adam_v[i];
      m = kBeta1 * m + (1.0 - kBeta1) * g;
      v = kBeta2 * v + (1.0 - kBeta2) * g * g;
      t.value[i] -= lr * (m / correction1) /
                    (std::sqrt(v / correction2) + kEpsilon);
    }
  };
  update_matrix(w1_);
  update_matrix(s1_);
  update_bias(b1_);
  update_matrix(w2_);
  update_matrix(s2_);
  update_bias(b2_);
  update_matrix(w3_);
  update_bias(b3_);
  update_matrix(w4_);
  update_bias(b4_);
}

TrainResult Trainer::fit(GcnModel& model, const TargetScaler& scaler,
                         const std::vector<GraphSample>& train) const {
  TrainResult result;
  if (train.empty() || config_.epochs <= 0) return result;
  util::Rng rng(config_.seed ^ 0xABCDEF);
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  const double base_lr = config_.learning_rate;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Step decay: halve at 60%, halve again at 85% of the schedule.
    double lr = base_lr;
    if (epoch >= config_.epochs * 85 / 100) {
      lr = base_lr * 0.25;
    } else if (epoch >= config_.epochs * 60 / 100) {
      lr = base_lr * 0.5;
    }
    model.set_learning_rate(lr);
    // Fisher-Yates shuffle for per-epoch sample order.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    double loss_sum = 0.0;
    for (std::size_t idx : order) {
      const GraphSample& sample = train[idx];
      loss_sum +=
          model.train_step(sample, scaler.transform(sample.log_runtimes));
    }
    result.epoch_losses.push_back(loss_sum /
                                  static_cast<double>(train.size()));
  }
  result.final_train_loss = result.epoch_losses.back();
  return result;
}

EvalResult Trainer::evaluate(const GcnModel& model, const TargetScaler& scaler,
                             const std::vector<GraphSample>& test) {
  EvalResult result;
  for (const GraphSample& sample : test) {
    const auto predicted_log = scaler.inverse(model.predict(sample));
    for (int j = 0; j < kRuntimeOutputs; ++j) {
      const double truth = std::exp(sample.log_runtimes[j]);
      const double predicted = std::exp(predicted_log[j]);
      if (truth > 0.0) {
        result.relative_errors.push_back(
            std::abs(predicted - truth) / truth);
      }
    }
  }
  if (!result.relative_errors.empty()) {
    double sum = 0.0;
    for (double e : result.relative_errors) sum += e;
    result.mean_relative_error =
        sum / static_cast<double>(result.relative_errors.size());
  }
  return result;
}

void split_by_family(const std::vector<GraphSample>& all,
                     std::uint32_t modulus, std::uint32_t remainder,
                     std::vector<GraphSample>& train,
                     std::vector<GraphSample>& test) {
  train.clear();
  test.clear();
  for (const GraphSample& sample : all) {
    if (sample.family_id % modulus == remainder) {
      test.push_back(sample);
    } else {
      train.push_back(sample);
    }
  }
}

}  // namespace edacloud::ml
