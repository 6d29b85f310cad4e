#pragma once
// Instrumentation facade the EDA engines report events into. One engine run
// is measured against *all* candidate VM configurations simultaneously:
// each configuration owns a private simulated LLC slice, and multi-tenancy
// is emulated by phantom co-runner accesses that contend for that slice
// (see DESIGN.md). Branch and arithmetic-mix counters are
// configuration-independent and shared.
//
// The simulation runs once per distinct input, not once per configuration.
// The per-vCPU L1 sees neither interference nor worker offsets, so one L1
// is simulated per distinct L1 size. An LLC slice's input depends only on
// its L1's outcome and its vCPU count (interference rate, phantom thread
// base, worker offset), so slices with the same (L1, vcpus) key read one
// stream. The slices of one stream are 16-way caches of 64 B lines whose
// set counts differ, and LRU has the inclusion property: one LlcNest
// (llc_nest.hpp) simulates every slice of a stream, equal set counts alias
// one cache, and set counts S and 2S share one nested stack. On the bench
// ladders general-purpose-k (S sets), memory-optimized-k (2S) and
// compute-optimized-k (S, after rounding) are one nest per vCPU count.
//
// Memory simulation is sampled (1-in-N events drive the cache models) to
// bound host cost; reported access/miss counts are scaled back up, and the
// miss *rates* the paper plots are sampling-invariant.
//
// Engines report through a perf::Sink (sink.hpp), one pointer to this
// object. The simulators are stateful, so the counters are a function of
// the event order; every reporting engine section is serial, so that order
// is fixed by the algorithm alone.

#include <cstdint>
#include <optional>
#include <vector>

#include "perf/branch_sim.hpp"
#include "perf/cache_sim.hpp"
#include "perf/counters.hpp"
#include "perf/llc_nest.hpp"
#include "perf/vm.hpp"

namespace edacloud::perf {

class Instrument {
 public:
  /// Measures against `configs`; `mem_sample_period` >= 1.
  explicit Instrument(std::vector<VmConfig> configs,
                      std::uint32_t mem_sample_period = 4);

  /// Null-object instrument: counts nothing, allocates nothing.
  Instrument();

  Instrument(const Instrument&) = delete;
  Instrument& operator=(const Instrument&) = delete;
  Instrument(Instrument&&) noexcept = default;
  Instrument& operator=(Instrument&&) noexcept = default;

  /// An engine run's instrument: measures against `configs`, or the
  /// null-object instrument when `configs` is empty.
  [[nodiscard]] static Instrument for_configs(
      const std::vector<VmConfig>& configs);

  [[nodiscard]] bool enabled() const { return !configs_.empty(); }
  [[nodiscard]] const std::vector<VmConfig>& configs() const {
    return configs_;
  }

  // ---- events reported by engines -----------------------------------------
  void load(std::uint64_t address) {
    if (!enabled()) return;
    ++loads_;
    if (sampled()) on_memory(address);
  }
  void store(std::uint64_t address) {
    if (!enabled()) return;
    ++stores_;
    if (sampled()) on_memory(address);
  }
  /// Access to thread-PRIVATE state (per-worker scratch arrays). With k
  /// vCPUs the work is spread over k private copies, so the address is
  /// offset by the owning worker (stream % k) — reproducing the growing
  /// aggregate footprint that makes e.g. routing's miss rate rise with
  /// provisioned vCPUs.
  void load_private(std::uint64_t address, std::uint32_t stream) {
    if (!enabled()) return;
    ++loads_;
    if (sampled()) on_memory_private(address, stream);
  }

  void int_ops(std::uint64_t n) { int_ops_ += enabled() ? n : 0; }
  void fp_ops(std::uint64_t n) { fp_ops_ += enabled() ? n : 0; }
  void avx_ops(std::uint64_t n) { avx_ops_ += enabled() ? n : 0; }
  void branch(std::uint64_t site, bool taken) {
    if (!enabled()) return;
    predictor_->observe(site, taken);
  }

  /// Counter snapshot for configs()[index], with sampling scaled out.
  [[nodiscard]] OpCounts counts(std::size_t index) const;
  /// Snapshots for every config, in configs() order (empty when disabled).
  [[nodiscard]] std::vector<OpCounts> counts() const;

 private:
  /// Counts one memory event; true for the 1-in-N events that drive the
  /// cache models (the first, then every sample_period_-th).
  bool sampled() {
    ++event_counter_;
    if (--sample_countdown_ != 0) return false;
    sample_countdown_ = sample_period_;
    return true;
  }
  // Sampled memory events only.
  void on_memory(std::uint64_t address);
  void on_memory_private(std::uint64_t address, std::uint32_t stream);
  /// Probe every L1 group once; records the outcome in l1_hit_.
  void probe_l1s(std::uint64_t address);

  std::vector<VmConfig> configs_;
  std::uint32_t sample_period_ = 1;
  std::uint32_t sample_countdown_ = 1;
  std::uint64_t event_counter_ = 0;  // memory events seen

  std::uint64_t int_ops_ = 0;
  std::uint64_t fp_ops_ = 0;
  std::uint64_t avx_ops_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;

  std::optional<BranchPredictor> predictor_;
  // One L1 per distinct l1_bytes; l1_group_ maps config -> L1.
  std::vector<CacheSim> l1s_;
  std::vector<std::size_t> l1_group_;
  std::vector<std::uint8_t> l1_hit_;

  // The LLCs see only accesses that missed their L1. One LlcStream per
  // distinct (L1 group, vcpus) input; its slices are nests_[first_nest,
  // end_nest), and slices_ maps each config to its cache in that range.
  struct LlcStream {
    std::size_t l1_group;
    int vcpus;
    std::size_t first_nest;
    std::size_t end_nest;
    std::uint64_t interference_credit = 0;
  };
  struct LlcSlice {
    std::size_t nest;
    bool large;  // the nest's 2S cache, not its S cache
  };
  std::vector<LlcStream> streams_;
  std::vector<LlcNest> nests_;
  std::vector<LlcSlice> slices_;

  // Recent real addresses replayed as phantom co-runner traffic.
  static constexpr std::size_t kRingSize = 1024;
  static constexpr std::uint64_t kInterferenceInterval = 36;
  std::vector<std::uint64_t> ring_;
  std::size_t ring_head_ = 0;
};

}  // namespace edacloud::perf
