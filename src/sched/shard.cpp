#include "sched/shard.hpp"

#include <algorithm>
#include <stdexcept>

namespace edacloud::sched {

namespace {

/// Adds the events before `end` in the heap subtree rooted at `node` to
/// `count`, stopping at `cap`. Every event before `end` has all its
/// ancestors before `end` too, so a root at or after `end` ends the walk
/// of its subtree; the recursion is at most the heap's height deep.
void count_subtree(const std::vector<ShardEvent>& heap, std::size_t node,
                   double end, std::size_t cap, std::size_t& count) {
  if (node >= heap.size() || count >= cap || !(heap[node].time < end)) return;
  ++count;
  count_subtree(heap, 2 * node + 1, end, cap, count);
  count_subtree(heap, 2 * node + 2, end, cap, count);
}

}  // namespace

std::size_t ShardEventQueue::count_before(double end, std::size_t cap) const {
  std::size_t count = 0;
  count_subtree(heap_, 0, end, cap, count);
  return count;
}

ShardTopology::ShardTopology(int shard_count) : shard_count_(shard_count) {
  if (shard_count < 1 || shard_count > kPoolCount) {
    throw std::invalid_argument("shard_count must be in [1, " +
                                std::to_string(kPoolCount) + "]");
  }
  pools_of_shard_.resize(static_cast<std::size_t>(shard_count));
  for (int pool = 0; pool < kPoolCount; ++pool) {
    pools_of_shard_[static_cast<std::size_t>(shard_of_pool(pool))].push_back(
        pool);
  }
}

int ShardTopology::pool_index(const PoolKey& key) {
  const auto it = std::find(perf::kVcpuOptions.begin(),
                            perf::kVcpuOptions.end(), key.vcpus);
  if (it == perf::kVcpuOptions.end()) {
    throw std::invalid_argument("pool_index: unknown vCPU size " +
                                std::to_string(key.vcpus));
  }
  const int size_index =
      static_cast<int>(std::distance(perf::kVcpuOptions.begin(), it));
  return static_cast<int>(key.family) *
             static_cast<int>(perf::kVcpuOptions.size()) +
         size_index;
}

PoolKey ShardTopology::pool_at(int index) {
  if (index < 0 || index >= kPoolCount) {
    throw std::invalid_argument("pool_at: index out of range");
  }
  const int sizes = static_cast<int>(perf::kVcpuOptions.size());
  PoolKey key;
  key.family = static_cast<perf::InstanceFamily>(index / sizes);
  key.vcpus = perf::kVcpuOptions[static_cast<std::size_t>(index % sizes)];
  return key;
}

}  // namespace edacloud::sched
