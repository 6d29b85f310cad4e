#include "perf/instrument.hpp"

#include <stdexcept>

namespace edacloud::perf {

Instrument::Instrument() = default;

Instrument::Instrument(std::vector<VmConfig> configs,
                       std::uint32_t mem_sample_period)
    : configs_(std::move(configs)),
      sample_period_(mem_sample_period == 0 ? 1 : mem_sample_period) {
  if (configs_.empty()) {
    throw std::invalid_argument("Instrument requires at least one config");
  }
  predictor_ = std::make_unique<BranchPredictor>();
  // Per-vCPU L1s never see interference or worker offsets, so configs with
  // the same L1 geometry see the same L1 stream: simulate it once.
  l1_group_.reserve(configs_.size());
  llcs_.reserve(configs_.size());
  for (const VmConfig& config : configs_) {
    std::size_t group = 0;
    while (group < l1s_.size() && l1s_[group].size_bytes() != config.l1_bytes) {
      ++group;
    }
    if (group == l1s_.size()) l1s_.emplace_back(config.l1_bytes, 64, 8);
    l1_group_.push_back(group);
    llcs_.emplace_back(config.llc_bytes, 64, 16);
  }
  l1_hit_.assign(l1s_.size(), 0);
  ring_.assign(kRingSize, 0);
  interference_credit_.assign(configs_.size(), 0);
}

Instrument Instrument::for_configs(const std::vector<VmConfig>& configs) {
  return configs.empty() ? Instrument() : Instrument(configs);
}

void Instrument::probe_l1s(std::uint64_t address) {
  for (std::size_t g = 0; g < l1s_.size(); ++g) {
    l1_hit_[g] = l1s_[g].access(address) ? 1 : 0;
  }
}

void Instrument::on_memory(std::uint64_t address) {
  ring_[ring_head_] = address;
  ring_head_ = (ring_head_ + 1) % kRingSize;
  probe_l1s(address);
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    CacheSim& llc = llcs_[c];
    if (l1_hit_[l1_group_[c]] == 0) llc.access(address);
    // Gentle cross-thread pollution: with k vCPUs, sibling worker threads
    // keep private state (per-thread search arrays, partial results) that
    // competes for the shared LLC slice. We inject a lagged self-similar
    // phantom access at a per-thread offset once every
    // kInterferenceInterval/(k-1) measured accesses — enough to nudge
    // already-fitting working sets (routing), while the k-times-larger
    // slice still dominates for capacity-bound jobs (placement). Phantom
    // traffic occupies LLC capacity only (L1s are private per vCPU) and
    // leaves the measured stats untouched.
    const int extra_threads = configs_[c].vcpus - 1;
    if (extra_threads > 0) {
      interference_credit_[c] += extra_threads;
      if (interference_credit_[c] >= kInterferenceInterval) {
        interference_credit_[c] -= kInterferenceInterval;
        const std::size_t lag = 31;
        const std::uint64_t thread_base =
            (1ULL + (event_counter_ % extra_threads)) << 26;
        const std::uint64_t lagged =
            ring_[(ring_head_ + kRingSize - lag) % kRingSize];
        llc.touch(lagged + thread_base);
      }
    }
  }
}

void Instrument::on_memory_private(std::uint64_t address,
                                   std::uint32_t stream) {
  ring_[ring_head_] = address;
  ring_head_ = (ring_head_ + 1) % kRingSize;
  // The L1 probe uses the un-offset address (each worker core owns a
  // private L1, so per-worker locality is unchanged); the shared LLC sees
  // the worker-offset address (aggregate private footprint grows with the
  // worker count).
  probe_l1s(address);
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    if (l1_hit_[l1_group_[c]] != 0) continue;
    const std::uint32_t worker =
        stream % static_cast<std::uint32_t>(configs_[c].vcpus);
    llcs_[c].access(address + (static_cast<std::uint64_t>(worker) << 27));
  }
}

OpCounts Instrument::counts(std::size_t index) const {
  if (index >= configs_.size()) {
    throw std::out_of_range("config index out of range");
  }
  OpCounts out;
  out.int_ops = int_ops_;
  out.fp_ops = fp_ops_;
  out.avx_ops = avx_ops_;
  out.loads = loads_;
  out.stores = stores_;
  if (predictor_) {
    out.branches = predictor_->stats().branches;
    out.branch_misses = predictor_->stats().mispredicts;
  }
  const CacheStats& l1 = l1s_[l1_group_[index]].stats();
  const CacheStats& llc = llcs_[index].stats();
  const std::uint64_t scale = sample_period_;
  out.l1_accesses = l1.accesses * scale;
  out.l1_misses = l1.misses * scale;
  out.llc_accesses = llc.accesses * scale;
  out.llc_misses = llc.misses * scale;
  return out;
}

std::vector<OpCounts> Instrument::counts() const {
  std::vector<OpCounts> out;
  out.reserve(configs_.size());
  for (std::size_t i = 0; i < configs_.size(); ++i) out.push_back(counts(i));
  return out;
}

}  // namespace edacloud::perf
