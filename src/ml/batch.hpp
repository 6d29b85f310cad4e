#pragma once
// Batched GCN inference for high-QPS serving. Three pieces:
//
//   * content_key() — a canonical 128-bit hash over a GraphSample's CSR
//     structure and feature bits. Two samples with identical graph content
//     always hash equal; the key is what makes the cache and the in-batch
//     deduplication *content*-addressed rather than pointer-addressed.
//   * BatchedGcn — stacks the distinct samples of a batch, in their
//     first-occurrence order, at prefix-sum row offsets into block-diagonal
//     groups (no padding rows) and runs ONE merged forward pass per group
//     through the row-blocked kernels. A group closes when its next member
//     would take it past kGroupBudgetBytes of widest-layer activations, so
//     each group's matrices are small enough to stay in a core's L2; a
//     one-sample group runs on the sample's own CSR and features.
//     Duplicate content inside a batch is computed once. The hard
//     contract: every output is bit-identical to GcnModel::predict on the
//     same sample, at any thread count — every row's aggregate, matmul
//     terms, bias and ReLU run in the serial per-element order, and no row
//     reads another member's rows.
//   * PredictionCache — bounded LRU keyed by ContentKey, internally locked
//     (server workers hit it concurrently), with hit/miss/eviction
//     counters exportable to the obs registry.
//
// A BatchedGcn instance holds per-call scratch stats and is NOT safe for
// concurrent predict() calls; it is cheap (two references), so callers
// construct one per batch (core::RuntimePredictor::predict_batch does).

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/gcn.hpp"
#include "nl/star_graph.hpp"

namespace edacloud::obs {
class Registry;
}

namespace edacloud::ml {

/// 128-bit content address of a GraphSample (structure + feature bits).
struct ContentKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const ContentKey& a, const ContentKey& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator<(const ContentKey& a, const ContentKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
  /// Domain-separated derivative (e.g. per-job model salt): same content,
  /// different salt -> different key.
  [[nodiscard]] ContentKey salted(std::uint64_t salt) const;
};

/// Canonical hash of the sample's CSR offsets/targets and feature doubles
/// (labels and family_id are excluded — they don't affect the forward
/// pass). Word-wise multi-lane mixing: hashing is a small fraction of one
/// forward pass even on cache hits.
[[nodiscard]] ContentKey content_key(const GraphSample& sample);

/// Unlabeled feature graph for prediction — the inference-side counterpart
/// of the labeled builder in core/dataset.cpp (shared by svc::Service, the
/// CLI predict subcommand and the throughput bench).
[[nodiscard]] GraphSample sample_from_graph(const nl::DesignGraph& graph);

/// Activation budget of one merged group: rows x the widest layer row
/// (max of input_dim, hidden1, hidden2 doubles). 64 KiB is 256 rows at
/// GcnConfig::fast() widths, the best plan throughput in a sweep of
/// 64..16,384 rows (DESIGN.md §12); the paper widths get 32 rows. A
/// sample larger than the budget runs as a group of its own.
inline constexpr std::size_t kGroupBudgetBytes = 64 * 1024;

/// Rows one merged group may hold under kGroupBudgetBytes (at least 1).
[[nodiscard]] std::size_t group_row_budget(const GcnConfig& config);

struct BatchOptions {
  /// Deduplicate identical-content samples inside a batch (compute once,
  /// fan the result out). Costs one content_key per sample.
  bool dedup = true;
};

/// Per-predict() accounting, for tests and bench reporting.
struct BatchStats {
  std::size_t queries = 0;     // samples passed in
  std::size_t distinct = 0;    // forward passes actually computed
  std::size_t duplicates = 0;  // queries - distinct (dedup wins)
  std::size_t groups = 0;      // merged forward passes
  std::size_t real_rows = 0;   // graph vertices across distinct samples
};

class BatchedGcn {
 public:
  explicit BatchedGcn(const GcnModel& model, BatchOptions options = {});

  /// Merged-batch predict: returns exactly what model.predict(*samples[i])
  /// returns, bit for bit, for every i. Hashes each sample for dedup when
  /// options.dedup is set.
  [[nodiscard]] std::vector<std::array<double, kRuntimeOutputs>> predict(
      const std::vector<const GraphSample*>& samples) const;

  /// Same, with caller-supplied content keys (memoized by svc::Service) so
  /// the hash is not recomputed per query. keys.size() must match
  /// samples.size(); keys are only used for equality inside this batch.
  [[nodiscard]] std::vector<std::array<double, kRuntimeOutputs>> predict(
      const std::vector<const GraphSample*>& samples,
      const std::vector<ContentKey>& keys) const;

  [[nodiscard]] const BatchStats& last_stats() const { return stats_; }

 private:
  std::vector<std::array<double, kRuntimeOutputs>> run(
      const std::vector<const GraphSample*>& samples,
      const std::vector<ContentKey>* keys) const;
  /// One merged forward pass over `members` stacked at prefix-sum row
  /// offsets; writes members[k]'s result into out[k].
  void forward_group(
      std::span<const GraphSample* const> members,
      std::span<std::array<double, kRuntimeOutputs>> out) const;

  const GcnModel& model_;
  BatchOptions options_;
  mutable BatchStats stats_;
};

/// Bounded, thread-safe LRU cache of final predictions keyed by content.
/// Capacity 0 disables (lookups miss, inserts drop).
class PredictionCache {
 public:
  explicit PredictionCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::optional<std::array<double, kRuntimeOutputs>> lookup(
      const ContentKey& key);
  void insert(const ContentKey& key,
              const std::array<double, kRuntimeOutputs>& value);
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Counters + current size under `prefix` (e.g. "svc.predict_cache").
  void export_to(obs::Registry& registry, const std::string& prefix) const;

 private:
  using Entry = std::pair<ContentKey, std::array<double, kRuntimeOutputs>>;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<ContentKey, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace edacloud::ml
