// Batched GCN inference: the bit-identity contract (batched == serial at
// any thread count), in-batch content dedup, group packing under the row
// budget and PredictionCache LRU/eviction/thread-safety semantics. These
// suites run under TSan in scripts/check.sh (MlBatchTest in the tier-2
// regex).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "core/predictor.hpp"
#include "ml/batch.hpp"
#include "ml/gcn.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::ml {
namespace {

/// Restore the global kernel width on scope exit so a failing assertion
/// cannot leak a non-default width into later tests.
struct ThreadWidthGuard {
  explicit ThreadWidthGuard(int n) { util::set_global_thread_count(n); }
  ~ThreadWidthGuard() { util::set_global_thread_count(1); }
};

/// Small random DAG sample (gcn_test idiom): edge i <- rng.below(i).
GraphSample make_sample(std::size_t n, std::uint64_t seed) {
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
    for (std::size_t c = 0; c < 19; ++c) {
      sample.features.at(v, c) = rng.next_double(0.0, 1.0);
    }
    sample.features.at(v, 19) = 1.0;  // bias channel
  }
  return sample;
}

GcnConfig tiny_config() {
  GcnConfig config;
  config.hidden1 = 8;
  config.hidden2 = 8;
  config.fc = 8;
  return config;
}

std::array<double, kRuntimeOutputs> make_value(double base) {
  return {base, base + 1.0, base + 2.0, base + 3.0};
}

TEST(MlBatchTest, BatchedMatchesSerialBitIdenticalAcrossThreadCounts) {
  const GcnConfig config = tiny_config();
  const GcnModel model(config);  // deterministic init; untrained is fine

  // Mixed sizes across several power-of-two buckets, plus duplicates.
  const std::size_t sizes[] = {1, 5, 16, 33, 64, 100};
  std::vector<GraphSample> storage;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    storage.push_back(make_sample(sizes[i], 100 + i));
  }
  std::vector<const GraphSample*> batch;
  for (const auto& sample : storage) batch.push_back(&sample);
  for (const auto& sample : storage) batch.push_back(&sample);  // duplicates

  std::vector<std::array<double, kRuntimeOutputs>> serial;
  for (const auto* sample : batch) serial.push_back(model.predict(*sample));

  for (const int threads : {1, 2, 8}) {
    ThreadWidthGuard guard(threads);
    const BatchedGcn batched(model);
    const auto out = batched.predict(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (int j = 0; j < kRuntimeOutputs; ++j) {
        EXPECT_EQ(out[i][j], serial[i][j])
            << "threads=" << threads << " query=" << i << " lane=" << j;
      }
    }
  }
}

TEST(MlBatchTest, EmptyBatchReturnsEmpty) {
  const GcnModel model(tiny_config());
  const BatchedGcn batched(model);
  EXPECT_TRUE(batched.predict({}).empty());
  EXPECT_EQ(batched.last_stats().queries, 0u);
  EXPECT_EQ(batched.last_stats().groups, 0u);
}

TEST(MlBatchTest, SingletonGroupMatchesSerial) {
  const GcnModel model(tiny_config());
  const GraphSample sample = make_sample(7, 42);
  const BatchedGcn batched(model);
  const auto out = batched.predict({&sample});
  const auto serial = model.predict(sample);
  ASSERT_EQ(out.size(), 1u);
  for (int j = 0; j < kRuntimeOutputs; ++j) EXPECT_EQ(out[0][j], serial[j]);
  EXPECT_EQ(batched.last_stats().groups, 1u);
  EXPECT_EQ(batched.last_stats().real_rows, 7u);
}

TEST(MlBatchTest, SmallSamplesShareOneGroupAtRealOffsets) {
  const GcnModel model(tiny_config());
  const GraphSample a = make_sample(16, 1);
  const GraphSample b = make_sample(9, 2);
  const BatchedGcn batched(model);
  const auto out = batched.predict({&a, &b});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(batched.last_stats().groups, 1u);
  EXPECT_EQ(batched.last_stats().real_rows, 25u);
  const auto sa = model.predict(a);
  const auto sb = model.predict(b);
  for (int j = 0; j < kRuntimeOutputs; ++j) {
    EXPECT_EQ(out[0][j], sa[j]);
    EXPECT_EQ(out[1][j], sb[j]);
  }
}

TEST(MlBatchTest, MixedSizesPackUnderTheGroupBudget) {
  const GcnConfig config = tiny_config();
  const GcnModel model(config);
  const std::size_t budget = group_row_budget(config);
  // The first four distinct samples (7 + 16 + 33 + 300 = 356 rows) fit one
  // group; the oversized one must run alone; the 9-row tail starts a third.
  ASSERT_GE(budget, 356u);
  const std::size_t sizes[] = {7, 16, 33, 300, budget + 20, 9};
  std::vector<GraphSample> storage;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    storage.push_back(make_sample(sizes[i], 200 + i));
  }
  const std::vector<const GraphSample*> batch = {
      &storage[0], &storage[1], &storage[2], &storage[1], &storage[3],
      &storage[0], &storage[4], &storage[2], &storage[5], &storage[4]};
  std::size_t distinct_rows = 0;
  for (const std::size_t n : sizes) distinct_rows += n;

  std::vector<std::array<double, kRuntimeOutputs>> serial;
  for (const auto* sample : batch) serial.push_back(model.predict(*sample));

  for (const int threads : {1, 2, 4}) {
    ThreadWidthGuard guard(threads);
    const BatchedGcn batched(model);
    const auto out = batched.predict(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (int j = 0; j < kRuntimeOutputs; ++j) {
        EXPECT_EQ(out[i][j], serial[i][j])
            << "threads=" << threads << " query=" << i << " lane=" << j;
      }
    }
    const BatchStats& stats = batched.last_stats();
    EXPECT_EQ(stats.distinct, std::size(sizes));
    EXPECT_EQ(stats.duplicates, batch.size() - std::size(sizes));
    EXPECT_EQ(stats.groups, 3u) << "threads=" << threads;
    EXPECT_EQ(stats.real_rows, distinct_rows) << "threads=" << threads;
  }
}

TEST(MlBatchTest, DedupComputesDistinctContentOnce) {
  const GcnModel model(tiny_config());
  const GraphSample a = make_sample(12, 1);
  const GraphSample a_copy = make_sample(12, 1);  // identical content
  const GraphSample b = make_sample(12, 2);
  const BatchedGcn batched(model);
  const auto out = batched.predict({&a, &a_copy, &b, &a});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(batched.last_stats().queries, 4u);
  EXPECT_EQ(batched.last_stats().distinct, 2u);
  EXPECT_EQ(batched.last_stats().duplicates, 2u);
  for (int j = 0; j < kRuntimeOutputs; ++j) {
    EXPECT_EQ(out[0][j], out[1][j]);
    EXPECT_EQ(out[0][j], out[3][j]);
  }
}

TEST(MlBatchTest, DedupDisabledComputesEveryQuery) {
  const GcnModel model(tiny_config());
  const GraphSample a = make_sample(12, 1);
  BatchOptions options;
  options.dedup = false;
  const BatchedGcn batched(model, options);
  const auto out = batched.predict({&a, &a, &a});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(batched.last_stats().distinct, 3u);
  EXPECT_EQ(batched.last_stats().duplicates, 0u);
  for (int j = 0; j < kRuntimeOutputs; ++j) EXPECT_EQ(out[0][j], out[2][j]);
}

TEST(MlBatchTest, CallerSuppliedKeysMatchHashedPath) {
  const GcnModel model(tiny_config());
  const GraphSample a = make_sample(20, 5);
  const GraphSample b = make_sample(24, 6);
  const std::vector<const GraphSample*> batch = {&a, &b, &a};
  const std::vector<ContentKey> keys = {content_key(a), content_key(b),
                                        content_key(a)};
  const BatchedGcn batched(model);
  const auto hashed = batched.predict(batch);
  const auto keyed = batched.predict(batch, keys);
  ASSERT_EQ(hashed.size(), keyed.size());
  for (std::size_t i = 0; i < hashed.size(); ++i) {
    for (int j = 0; j < kRuntimeOutputs; ++j) {
      EXPECT_EQ(hashed[i][j], keyed[i][j]);
    }
  }
}

TEST(MlBatchTest, ContentKeyDiscriminatesContent) {
  const GraphSample a = make_sample(30, 9);
  GraphSample a_copy = make_sample(30, 9);
  EXPECT_EQ(content_key(a), content_key(a_copy));

  // A single feature bit flip must change the key.
  a_copy.features.at(17, 3) =
      std::nextafter(a_copy.features.at(17, 3), 2.0);
  EXPECT_FALSE(content_key(a) == content_key(a_copy));

  // Structure matters too: a different DAG over the same feature matrix.
  GraphSample restructured = make_sample(30, 9);
  std::vector<std::pair<nl::VertexId, nl::VertexId>> edges = {{0, 29}};
  restructured.in_neighbors = nl::transpose(nl::build_csr(30, edges));
  EXPECT_FALSE(content_key(a) == content_key(restructured));

  // Salting separates domains without losing equality within one.
  const GraphSample a_fresh = make_sample(30, 9);
  EXPECT_FALSE(content_key(a) == content_key(a).salted(1));
  EXPECT_FALSE(content_key(a).salted(1) == content_key(a).salted(2));
  EXPECT_EQ(content_key(a).salted(3), content_key(a_fresh).salted(3));
}

TEST(MlBatchTest, CacheHitReturnsByteIdenticalValue) {
  PredictionCache cache(8);
  const ContentKey key{1, 2};
  const auto value = make_value(3.25);
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, value);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  for (int j = 0; j < kRuntimeOutputs; ++j) EXPECT_EQ((*hit)[j], value[j]);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(MlBatchTest, LruEvictionIsDeterministic) {
  PredictionCache cache(2);
  const ContentKey k1{1, 0}, k2{2, 0}, k3{3, 0};
  cache.insert(k1, make_value(1.0));
  cache.insert(k2, make_value(2.0));
  ASSERT_TRUE(cache.lookup(k1).has_value());  // k1 now MRU, k2 is LRU
  cache.insert(k3, make_value(3.0));          // evicts k2
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().insertions, 3u);
}

TEST(MlBatchTest, CacheInsertUpdatesExistingKey) {
  PredictionCache cache(4);
  const ContentKey key{7, 7};
  cache.insert(key, make_value(1.0));
  cache.insert(key, make_value(9.0));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0], 9.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MlBatchTest, CapacityZeroDisablesCache) {
  PredictionCache cache(0);
  const ContentKey key{5, 5};
  cache.insert(key, make_value(1.0));
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(MlBatchTest, CacheIsSafeUnderConcurrentAccess) {
  PredictionCache cache(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const ContentKey key{static_cast<std::uint64_t>(i % 32),
                             static_cast<std::uint64_t>(t % 2)};
        if (const auto hit = cache.lookup(key)) {
          // Hits must carry the value some thread inserted for this key.
          EXPECT_EQ((*hit)[0], static_cast<double>(i % 32));
        } else {
          cache.insert(key, make_value(static_cast<double>(i % 32)));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 200u);
  EXPECT_LE(cache.size(), 16u);
}

TEST(MlBatchTest, OneUlpChangeInAnyFeatureSlotChangesTheKey) {
  // Property sweep (ISSUE 9 satellite): nudging ANY single feature slot by
  // one ulp must produce a key distinct from the base AND from every other
  // single-slot nudge — the cache must never serve a stale prediction for
  // an almost-identical graph. 12 vertices x 20 channels = 240 variants.
  const GraphSample base = make_sample(12, 77);
  std::vector<ContentKey> keys;
  keys.push_back(content_key(base));
  for (std::size_t v = 0; v < base.features.rows(); ++v) {
    for (std::size_t c = 0; c < base.features.cols(); ++c) {
      GraphSample nudged = make_sample(12, 77);
      double& slot = nudged.features.at(v, c);
      slot = std::nextafter(slot, std::numeric_limits<double>::infinity());
      keys.push_back(content_key(nudged));
    }
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_FALSE(keys[i - 1] == keys[i])
        << "collision between single-ulp variants at sorted index " << i;
  }
}

/// Reference LRU: the obviously-correct O(n) model the real cache is
/// checked against, move-to-front on hit and insert, evict from the back.
class ModelLru {
 public:
  explicit ModelLru(std::size_t capacity) : capacity_(capacity) {}

  bool lookup(const ContentKey& key) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i] == key) {
        const ContentKey hit = entries_[i];
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        entries_.insert(entries_.begin(), hit);
        return true;
      }
    }
    return false;
  }

  void insert(const ContentKey& key) {
    if (capacity_ == 0) return;
    if (lookup(key)) return;  // update moves to front, no growth
    entries_.insert(entries_.begin(), key);
    if (entries_.size() > capacity_) {
      ++evictions_;
      entries_.pop_back();
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::vector<ContentKey> entries_;  // front = most recently used
  std::uint64_t evictions_ = 0;
};

TEST(MlBatchTest, RandomizedOpsAgreeWithReferenceLruModel) {
  // Property test: 5000 random lookup/insert ops over a small key universe
  // (forcing heavy eviction traffic) must agree with the reference model
  // op for op — same hit/miss answer, same size, same eviction count at
  // every step. Replaying the same seed reproduces the exact trace.
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    for (const std::size_t capacity : {1u, 3u, 8u}) {
      PredictionCache cache(capacity);
      ModelLru model(capacity);
      util::Rng rng(seed);
      for (int op = 0; op < 5000; ++op) {
        const ContentKey key{rng.next_below(capacity * 4 + 2), 9};
        if (rng.next_bool(0.5)) {
          const bool model_hit = model.lookup(key);
          const bool cache_hit = cache.lookup(key).has_value();
          ASSERT_EQ(cache_hit, model_hit)
              << "seed=" << seed << " capacity=" << capacity << " op=" << op;
        } else {
          model.insert(key);
          cache.insert(key, make_value(static_cast<double>(key.lo)));
        }
        ASSERT_EQ(cache.size(), model.size());
        ASSERT_LE(cache.size(), capacity);
        ASSERT_EQ(cache.stats().evictions, model.evictions());
      }
    }
  }
}

TEST(MlBatchTest, ConcurrentInterleavingsKeepCapacityAndStatsConsistent) {
  // Under concurrent mutation the interleaving is not deterministic, but
  // the invariants must hold at every observation: size never exceeds
  // capacity, hits + misses equals the number of lookups issued, and
  // insertions - evictions equals the resident count when the run ends.
  for (const int workers : {2, 8}) {
    PredictionCache cache(12);
    const int kOpsPerWorker = 3000;
    std::vector<std::thread> threads;
    for (int t = 0; t < workers; ++t) {
      threads.emplace_back([&cache, t] {
        util::Rng rng(1000 + static_cast<std::uint64_t>(t));
        for (int op = 0; op < kOpsPerWorker; ++op) {
          const ContentKey key{rng.next_below(40), 3};
          if (rng.next_bool(0.5)) {
            (void)cache.lookup(key);
          } else {
            cache.insert(key, make_value(static_cast<double>(key.lo)));
          }
          EXPECT_LE(cache.size(), 12u);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const auto stats = cache.stats();
    std::uint64_t lookups = 0;
    for (int t = 0; t < workers; ++t) {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int op = 0; op < kOpsPerWorker; ++op) {
        (void)rng.next_below(40);
        if (rng.next_bool(0.5)) ++lookups;
      }
    }
    EXPECT_EQ(stats.hits + stats.misses, lookups) << "workers=" << workers;
    EXPECT_EQ(stats.insertions - stats.evictions, cache.size());
    EXPECT_LE(cache.size(), 12u);
  }
}

TEST(MlBatchTest, PredictorBatchReturnsZerosWhenUntrained) {
  const core::RuntimePredictor predictor;
  const GraphSample sample = make_sample(10, 3);
  const auto out =
      predictor.predict_batch(core::JobKind::kSynthesis, {&sample});
  ASSERT_EQ(out.size(), 1u);
  for (int j = 0; j < kRuntimeOutputs; ++j) EXPECT_EQ(out[0][j], 0.0);
}

}  // namespace
}  // namespace edacloud::ml
