#pragma once
// Instrumentation facade the EDA engines report events into. One engine run
// is measured against *all* candidate VM configurations simultaneously:
// each configuration owns a private simulated LLC slice, and multi-tenancy
// is emulated by phantom co-runner accesses that contend for that slice
// (see DESIGN.md). The per-vCPU L1 sees neither interference nor worker
// offsets, so its stream is the same for every configuration; one L1 is
// simulated per distinct L1 size and its misses fan out to the LLC slices
// of the configurations sharing it. Branch and arithmetic-mix counters are
// configuration-independent and shared.
//
// Memory simulation is sampled (1-in-N events drive the cache models) to
// bound host cost; reported access/miss counts are scaled back up, and the
// miss *rates* the paper plots are sampling-invariant.

#include <cstdint>
#include <memory>
#include <vector>

#include "perf/branch_sim.hpp"
#include "perf/cache_sim.hpp"
#include "perf/counters.hpp"
#include "perf/event_log.hpp"
#include "perf/vm.hpp"

namespace edacloud::perf {

class Instrument {
 public:
  /// Measures against `configs`; `mem_sample_period` >= 1.
  explicit Instrument(std::vector<VmConfig> configs,
                      std::uint32_t mem_sample_period = 4);

  /// Null-object instrument: counts nothing, near-zero overhead.
  Instrument();

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

  /// Feed a recorded event stream back in, in its recorded order. Parallel
  /// engine sections log into per-task perf::EventLogs and replay them here
  /// serially in a thread-count-independent order (see event_log.hpp), so
  /// the stateful simulators produce identical totals at any thread count.
  void replay(const EventLog& log);

  void int_ops(std::uint64_t n) { int_ops_ += enabled() ? n : 0; }
  void fp_ops(std::uint64_t n) { fp_ops_ += enabled() ? n : 0; }
  void avx_ops(std::uint64_t n) { avx_ops_ += enabled() ? n : 0; }
  void branch(std::uint64_t site, bool taken) {
    if (!enabled()) return;
    predictor_->observe(site, taken);
  }

  /// Counter snapshot for configs()[index], with sampling scaled out.
  [[nodiscard]] OpCounts counts(std::size_t index) const;

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

  std::unique_ptr<BranchPredictor> predictor_;
  // One L1 per distinct l1_bytes (l1_group_ maps config -> L1) and one LLC
  // slice per config; the LLC sees only accesses that missed its L1.
  std::vector<CacheSim> l1s_;
  std::vector<std::size_t> l1_group_;
  std::vector<std::uint8_t> l1_hit_;
  std::vector<CacheSim> llcs_;

  // Recent real addresses replayed as phantom co-runner traffic.
  static constexpr std::size_t kRingSize = 1024;
  static constexpr std::uint64_t kInterferenceInterval = 36;
  std::vector<std::uint64_t> ring_;
  std::size_t ring_head_ = 0;
  std::vector<std::uint64_t> interference_credit_;
};

}  // namespace edacloud::perf
