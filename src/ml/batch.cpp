#include "ml/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.hpp"

namespace edacloud::ml {

namespace {

// splitmix64 finalizer: full-avalanche 64-bit permutation.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kLane0 = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kLane1 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kLane2 = 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kLane3 = 0x94D049BB133111EBULL;

inline std::uint64_t word_of(double v) {
  std::uint64_t w;
  std::memcpy(&w, &v, sizeof(w));
  return w;
}

}  // namespace

ContentKey ContentKey::salted(std::uint64_t salt) const {
  ContentKey out;
  out.lo = mix64(lo ^ (salt * kLane0));
  out.hi = mix64(hi + salt + kLane1);
  return out;
}

ContentKey content_key(const GraphSample& sample) {
  // Two multiply-xor chains over the structure words. Each step is a
  // bijection of the accumulator for fixed input, so same-length inputs
  // differing in any single word always produce different lane values.
  std::uint64_t a = 0x6A09E667F3BCC908ULL;
  std::uint64_t b = 0xBB67AE8584CAA73BULL;
  const auto mix = [&](std::uint64_t w) {
    a = (a ^ w) * kLane0;
    b = (b ^ (w + kLane1)) * kLane2;
  };
  const nl::Csr& csr = sample.in_neighbors;
  mix(csr.offsets.size());
  for (const std::uint32_t o : csr.offsets) mix(o);
  mix(csr.targets.size());
  for (const nl::VertexId t : csr.targets) mix(t);
  mix(sample.features.rows());
  mix(sample.features.cols());

  // Features are the bulk (20 doubles per node): four independent lanes so
  // the multiply chains overlap and hashing stays far cheaper than one
  // forward pass.
  std::uint64_t h0 = kLane0, h1 = kLane1, h2 = kLane2, h3 = kLane3;
  const std::vector<double>& f = sample.features.data();
  std::size_t i = 0;
  for (; i + 4 <= f.size(); i += 4) {
    h0 = (h0 ^ word_of(f[i])) * kLane0;
    h1 = (h1 ^ word_of(f[i + 1])) * kLane1;
    h2 = (h2 ^ word_of(f[i + 2])) * kLane2;
    h3 = (h3 ^ word_of(f[i + 3])) * kLane3;
  }
  for (; i < f.size(); ++i) h0 = (h0 ^ word_of(f[i])) * kLane0;
  mix(mix64(h0) ^ mix64(h2));
  mix(mix64(h1) ^ mix64(h3));

  ContentKey key;
  key.lo = mix64(a);
  key.hi = mix64(b);
  return key;
}

GraphSample sample_from_graph(const nl::DesignGraph& graph) {
  GraphSample sample;
  sample.in_neighbors = nl::transpose(graph.forward);
  sample.features = Matrix(graph.node_count(), nl::kNodeFeatureDim);
  std::copy(graph.features.begin(), graph.features.end(),
            sample.features.data().begin());
  return sample;
}

std::size_t group_row_budget(const GcnConfig& config) {
  const int widest =
      std::max({config.input_dim, config.hidden1, config.hidden2});
  return std::max<std::size_t>(
      1, kGroupBudgetBytes /
             (static_cast<std::size_t>(widest) * sizeof(double)));
}

BatchedGcn::BatchedGcn(const GcnModel& model, BatchOptions options)
    : model_(model), options_(options) {}

std::vector<std::array<double, kRuntimeOutputs>> BatchedGcn::predict(
    const std::vector<const GraphSample*>& samples) const {
  if (options_.dedup) {
    std::vector<ContentKey> keys;
    keys.reserve(samples.size());
    for (const GraphSample* sample : samples) {
      keys.push_back(content_key(*sample));
    }
    return run(samples, &keys);
  }
  return run(samples, nullptr);
}

std::vector<std::array<double, kRuntimeOutputs>> BatchedGcn::predict(
    const std::vector<const GraphSample*>& samples,
    const std::vector<ContentKey>& keys) const {
  return run(samples, options_.dedup ? &keys : nullptr);
}

std::vector<std::array<double, kRuntimeOutputs>> BatchedGcn::run(
    const std::vector<const GraphSample*>& samples,
    const std::vector<ContentKey>* keys) const {
  stats_ = BatchStats{};
  stats_.queries = samples.size();
  std::vector<std::array<double, kRuntimeOutputs>> results(samples.size());
  if (samples.empty()) return results;

  // Dedup identical content: each distinct sample is computed once and the
  // result fanned out to every query that asked for it.
  std::vector<const GraphSample*> reps;
  std::vector<std::size_t> rep_of(samples.size());
  if (keys != nullptr) {
    std::map<ContentKey, std::size_t> seen;
    for (std::size_t q = 0; q < samples.size(); ++q) {
      const auto [it, inserted] = seen.emplace((*keys)[q], reps.size());
      if (inserted) reps.push_back(samples[q]);
      rep_of[q] = it->second;
    }
  } else {
    reps = samples;
    for (std::size_t q = 0; q < samples.size(); ++q) rep_of[q] = q;
  }
  stats_.distinct = reps.size();
  stats_.duplicates = samples.size() - reps.size();

  // Distinct samples keep their first-occurrence order; a group is the
  // longest run of them that fits the row budget (a sample larger than
  // the budget runs alone). Group membership never changes a row's bits,
  // only which rows share a kernel call.
  const std::size_t budget = group_row_budget(model_.config());
  std::vector<std::array<double, kRuntimeOutputs>> rep_results(reps.size());
  const std::span<const GraphSample* const> all(reps);
  const std::span<std::array<double, kRuntimeOutputs>> all_out(rep_results);
  std::size_t begin = 0;
  std::size_t rows = 0;
  const auto flush = [&](std::size_t end) {
    forward_group(all.subspan(begin, end - begin),
                  all_out.subspan(begin, end - begin));
    ++stats_.groups;
    begin = end;
    rows = 0;
  };
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const std::size_t n = reps[r]->features.rows();
    if (r > begin && rows + n > budget) flush(r);
    rows += n;
  }
  flush(reps.size());

  for (std::size_t q = 0; q < samples.size(); ++q) {
    results[q] = rep_results[rep_of[q]];
  }
  return results;
}

void BatchedGcn::forward_group(
    std::span<const GraphSample* const> members,
    std::span<std::array<double, kRuntimeOutputs>> out) const {
  const std::size_t count = members.size();
  std::vector<std::size_t> offset(count + 1, 0);
  std::size_t edges = 0;
  for (std::size_t m = 0; m < count; ++m) {
    offset[m + 1] = offset[m] + members[m]->features.rows();
    edges += members[m]->in_neighbors.edge_count();
  }
  const std::size_t total_rows = offset[count];
  stats_.real_rows += total_rows;

  // One member runs on its own CSR and features. More are stacked into a
  // block-diagonal CSR: member m's vertex v becomes row offset[m] + v, and
  // its in-edges shift by the same offset.
  const nl::Csr* csr = &members[0]->in_neighbors;
  const Matrix* x = &members[0]->features;
  nl::Csr merged;
  Matrix stacked;
  if (count > 1) {
    merged.offsets.assign(total_rows + 1, 0);
    merged.targets.reserve(edges);
    stacked = Matrix(total_rows,
                     static_cast<std::size_t>(model_.config_.input_dim));
    for (std::size_t m = 0; m < count; ++m) {
      const GraphSample& s = *members[m];
      const std::uint32_t edge_base =
          static_cast<std::uint32_t>(merged.targets.size());
      const nl::VertexId shift = static_cast<nl::VertexId>(offset[m]);
      for (std::size_t v = 0; v < s.features.rows(); ++v) {
        merged.offsets[offset[m] + v + 1] =
            edge_base + s.in_neighbors.offsets[v + 1];
      }
      for (const nl::VertexId t : s.in_neighbors.targets) {
        merged.targets.push_back(shift + t);
      }
      std::copy(s.features.data().begin(), s.features.data().end(),
                stacked.row(offset[m]));
    }
    csr = &merged;
    x = &stacked;
  }

  // Fused (z + self) + bias then ReLU — the exact per-element sequence of
  // the serial forward (elementwise add, then add_bias_rows, then
  // relu_inplace).
  const auto add_self_bias_relu = [](Matrix& z, const Matrix& self,
                                     const std::vector<double>& bias) {
    for (std::size_t i = 0; i < z.rows(); ++i) {
      double* zrow = z.row(i);
      const double* srow = self.row(i);
      for (std::size_t j = 0; j < z.cols(); ++j) {
        zrow[j] = std::max(0.0, (zrow[j] + srow[j]) + bias[j]);
      }
    }
  };

  // Layer 1: H1 = relu(agg(X) W1 + X S1 + b1), stacked.
  Matrix h1 = matmul(aggregate_mean(*csr, *x), model_.w1_.value);
  add_self_bias_relu(h1, matmul(*x, model_.s1_.value), model_.b1_.value);

  // Layer 2.
  Matrix h2 = matmul(aggregate_mean(*csr, h1), model_.w2_.value);
  add_self_bias_relu(h2, matmul(h1, model_.s2_.value), model_.b2_.value);

  // Per-graph mean pooling + log-size channel: rows ascending within each
  // member, one divide of the summed value — identical to the serial
  // sum_pool-then-divide sequence.
  Matrix pooled(count, h2.cols() + 1);
  for (std::size_t m = 0; m < count; ++m) {
    double* prow = pooled.row(m);
    for (std::size_t i = offset[m]; i < offset[m + 1]; ++i) {
      const double* row = h2.row(i);
      for (std::size_t j = 0; j < h2.cols(); ++j) prow[j] += row[j];
    }
    const double n = static_cast<double>(
        std::max<std::size_t>(1, offset[m + 1] - offset[m]));
    for (std::size_t j = 0; j < h2.cols(); ++j) prow[j] /= n;
    prow[h2.cols()] = std::log1p(n);
  }

  // FC head, stacked: every row is one graph, so the stock row-wise
  // kernels reproduce the serial 1-row path per member.
  Matrix h3 = matmul(pooled, model_.w3_.value);
  add_bias_rows(h3, model_.b3_.value);
  relu_inplace(h3);
  Matrix logits = matmul(h3, model_.w4_.value);
  add_bias_rows(logits, model_.b4_.value);

  for (std::size_t m = 0; m < count; ++m) {
    for (int j = 0; j < kRuntimeOutputs; ++j) {
      out[m][j] = logits.at(m, static_cast<std::size_t>(j));
    }
  }
}

// ------------------------------------------------------- PredictionCache --

std::optional<std::array<double, kRuntimeOutputs>> PredictionCache::lookup(
    const ContentKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->second;
}

void PredictionCache::insert(
    const ContentKey& key,
    const std::array<double, kRuntimeOutputs>& value) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  index_.emplace(key, lru_.begin());
  ++stats_.insertions;
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PredictionCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

PredictionCache::Stats PredictionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PredictionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

void PredictionCache::export_to(obs::Registry& registry,
                                const std::string& prefix) const {
  const Stats snapshot = stats();
  registry.counter(prefix + ".hits").add(snapshot.hits);
  registry.counter(prefix + ".misses").add(snapshot.misses);
  registry.counter(prefix + ".insertions").add(snapshot.insertions);
  registry.counter(prefix + ".evictions").add(snapshot.evictions);
  registry.gauge(prefix + ".size").set(static_cast<double>(size()));
}

}  // namespace edacloud::ml
