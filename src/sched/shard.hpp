#pragma once
// Sharding substrate for the parallel fleet simulator (DESIGN.md §13): the
// canonical pool enumeration, the pool -> shard ownership map, the
// per-shard event queue ordered by *intrinsic* event keys (never insertion
// order, which would differ across shard counts), and the cross-shard
// job-handoff message delivered at window barriers.
//
// Determinism ground rules baked into these types:
//   * Every (family, vCPU) pool has a fixed canonical index, independent of
//     which pools a run actually touches.
//   * A pool is owned by exactly one shard for the whole run
//     (shard = pool_index % shard_count), so all pool-local state is
//     single-writer inside a synchronization window.
//   * Event ordering is a strict total order over
//     (time, type, pool, job_id, vm_id) — a pure function of simulation
//     content, so a pool's event sequence is identical whether its shard
//     owns 1 pool or all 12.

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/flow.hpp"
#include "sched/fleet.hpp"
#include "sched/job.hpp"

namespace edacloud::sched {

/// Event kinds processed by a shard. The enumerator order is the tie-break
/// rank for simultaneous events (earlier enumerators fire first).
enum class ShardEventType : std::uint8_t {
  kJobDeliver,       // a job (admission or stage handoff) reaches its pool
  kVmBootComplete,   // a launched VM becomes schedulable (or fails to boot)
  kTaskComplete,     // the stage running on (pool, vm_id) finishes
  kSpotInterruption, // the spot VM (pool, vm_id) is reclaimed mid-run
  kVmCrash,          // the VM (pool, vm_id) dies mid-run (fault injection)
  kTaskRetry,        // a killed stage's backoff expired; re-enqueue it
  kPoolTick,         // per-pool autoscaler decision
  kMarketTick,       // per-pool re-bid/migrate re-evaluation of the queue
};

/// One pool-local event. All ids are pool-local (each pool owns its own VM
/// id space), so the full key tuple is unique per live event and the
/// comparator below is a strict total order with no hidden state.
struct ShardEvent {
  double time = 0.0;
  ShardEventType type = ShardEventType::kJobDeliver;
  int pool = 0;               // canonical pool index (ShardTopology)
  std::uint64_t job_id = 0;
  int vm_id = -1;
};

/// Min-heap "later than" comparator over the intrinsic event key.
struct ShardEventLater {
  bool operator()(const ShardEvent& a, const ShardEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.type != b.type) return a.type > b.type;
    if (a.pool != b.pool) return a.pool > b.pool;
    if (a.job_id != b.job_id) return a.job_id > b.job_id;
    return a.vm_id > b.vm_id;
  }
};

/// One shard's event queue. There is deliberately no insertion
/// sequence number: ordering must not depend on *when* an event was pushed,
/// because barrier-delivered handoffs arrive in coordinator order while
/// locally-scheduled events arrive in execution order, and those interleave
/// differently at different shard counts.
class ShardEventQueue {
 public:
  void push(const ShardEvent& event) { heap_.push(event); }
  ShardEvent pop() {
    ShardEvent event = heap_.top();
    heap_.pop();
    return event;
  }
  [[nodiscard]] const ShardEvent& peek() const { return heap_.top(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  std::priority_queue<ShardEvent, std::vector<ShardEvent>, ShardEventLater>
      heap_;
};

/// A job travelling between stages (or from admission to its first pool).
/// Handoffs always pay `handoff_latency_seconds`, intra-shard ones
/// included: the uniform latency is what makes the event stream a pure
/// function of simulation content rather than of the pool -> shard map.
struct JobHandoff {
  double deliver_time = 0.0;
  int dest_pool = 0;  // canonical pool index
  Job job;
  std::array<PoolKey, core::kJobCount> plan{};
};

/// The canonical pool universe and its partition into shards. All three
/// instance families x the four vCPU sizes = 12 pools, indexed
/// family-major in (family, vcpus) order — PoolKey's own ordering —
/// regardless of which pools a run ever launches into.
class ShardTopology {
 public:
  static constexpr int kFamilyCount = 3;
  static constexpr int kPoolCount =
      kFamilyCount * static_cast<int>(perf::kVcpuOptions.size());

  /// `shard_count` in [1, kPoolCount]; wider makes no sense (a shard would
  /// own nothing) and is clamped by the caller-facing simulator config.
  explicit ShardTopology(int shard_count);

  [[nodiscard]] int shard_count() const { return shard_count_; }

  /// Canonical index of `key` in [0, kPoolCount).
  [[nodiscard]] static int pool_index(const PoolKey& key);
  /// The PoolKey at canonical index `index`.
  [[nodiscard]] static PoolKey pool_at(int index);

  /// Owning shard of a pool: pool_index % shard_count. Static round-robin
  /// keeps the map a pure function of (pool, shard_count). Pools are
  /// indexed family-major over the 4 vCPU sizes, so at 2 or 4 shards this
  /// groups pools by vCPU size, not by family: at 4 shards, shard s owns
  /// the three families' pools of the s-th size. Under the benchmark's
  /// fleet load (4 shards) one shard processes most events — measured
  /// imbalance 3.53 of a possible 4 (max shard events x shards / events).
  [[nodiscard]] int shard_of_pool(int pool) const {
    return pool % shard_count_;
  }

  /// Canonical pool indices owned by `shard`, ascending.
  [[nodiscard]] const std::vector<int>& pools_of_shard(int shard) const {
    return pools_of_shard_[static_cast<std::size_t>(shard)];
  }

 private:
  int shard_count_ = 1;
  std::vector<std::vector<int>> pools_of_shard_;
};

}  // namespace edacloud::sched
