#pragma once
// SLO / cost / utilization metrics for one simulated run. Latency and
// slowdown quantiles come from util::Histogram::quantile so a million-job
// run needs bounded memory for the tail statistics; everything is a pure
// function of the (seeded) event stream, so two runs with the same
// configuration produce bit-identical metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/job.hpp"

namespace edacloud::sched {

struct FleetMetrics {
  // Population.
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;   // retry budget exhausted; job abandoned
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t preemptions = 0;
  double arrival_window_seconds = 0.0;  // configured load duration
  double drained_at_seconds = 0.0;      // sim time the last event fired

  // Fault tolerance (see DESIGN.md §10).
  std::uint64_t crashes = 0;         // injected mid-task VM deaths
  std::uint64_t boot_failures = 0;   // VMs that never came up
  std::uint64_t retries = 0;         // backoff-delayed re-enqueues
  std::uint64_t spot_fallbacks = 0;  // stages degraded to on-demand-only

  // Market policy (see DESIGN.md §15); all zero when --rebid is off.
  std::uint64_t market_rebids = 0;      // bids raised after an eviction
  std::uint64_t market_fallbacks = 0;   // queued tasks priced off spot
  std::uint64_t market_migrations = 0;  // queued tasks moved to cheaper pools

  double wasted_seconds = 0.0;       // killed-attempt service time lost
  double checkpoint_overhead_seconds = 0.0;  // snapshot time paid
  /// busy seconds that advanced jobs / all busy seconds; 1.0 when nothing
  /// was killed, lower as waste and snapshot overhead accumulate.
  double goodput_fraction = 1.0;

  // Latency (arrival -> flow completion, seconds).
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double mean_latency = 0.0;
  double mean_queue_wait = 0.0;  // per stage task
  // Slowdown = latency / the job's best-case service time; p99 <= the SLO
  // multiplier means the p99 job finished within its SLO.
  double slowdown_p99 = 0.0;

  // SLO.
  std::uint64_t slo_violations = 0;
  double slo_violation_rate = 0.0;

  // Fleet.
  double utilization = 0.0;    // busy seconds / alive seconds
  double total_cost_usd = 0.0; // per-second billing, boot + idle included
  double cost_per_job_usd = 0.0;
  int peak_vms = 0;  // sum of per-pool peaks (an upper bound on the global)
  int vms_launched = 0;
  double throughput_per_hour = 0.0;

  /// Two-column summary table for the CLI.
  [[nodiscard]] std::string render() const;

  /// Absorb this run into the unified metrics registry as fleet.* counters
  /// and gauges under `labels` (e.g. {{"policy","cost"},{"mix","bursty"}}).
  /// This is the machine-readable path — `fleet-sim --metrics` and the
  /// bench drivers export the registry instead of scraping render().
  void export_to(obs::Registry& registry, const obs::Labels& labels = {}) const;
};

/// Accumulates per-job and per-task samples during a run, then finalizes
/// the fleet-level numbers.
class MetricsCollector {
 public:
  void record_submitted() { ++submitted_; }
  void record_dispatch(double queue_wait_seconds);
  void record_preemption() { ++preemptions_; }
  void record_crash() { ++crashes_; }
  void record_boot_failure() { ++boot_failures_; }
  void record_retry() { ++retries_; }
  void record_spot_fallback() { ++spot_fallbacks_; }
  void record_market_rebid() { ++market_rebids_; }
  void record_market_fallback() { ++market_fallbacks_; }
  void record_market_migration() { ++market_migrations_; }
  void record_failure() { ++failed_; }
  /// Service seconds a killed attempt burned without advancing the job.
  void record_wasted(double seconds) { wasted_seconds_ += seconds; }
  /// Service seconds spent writing checkpoint snapshots.
  void record_checkpoint_overhead(double seconds) {
    checkpoint_overhead_seconds_ += seconds;
  }
  /// `best_case_service_seconds` is the job's scaled best-case service time
  /// (the slowdown denominator).
  void record_completion(const Job& job, double best_case_service_seconds);

  /// Absorb another collector's samples (the sharded simulator keeps one
  /// collector per pool and merges them in canonical pool order, so the
  /// sample vectors — and therefore every float accumulation — end up in a
  /// shard-count-independent order).
  void merge_from(const MetricsCollector& other);

  struct FleetStats {
    double busy_seconds = 0.0;
    double alive_seconds = 0.0;
    double total_cost_usd = 0.0;
    int peak_vms = 0;
    int vms_launched = 0;
  };
  [[nodiscard]] FleetMetrics finalize(double arrival_window_seconds,
                                      double drained_at_seconds,
                                      const FleetStats& fleet) const;

 private:
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t boot_failures_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t spot_fallbacks_ = 0;
  std::uint64_t market_rebids_ = 0;
  std::uint64_t market_fallbacks_ = 0;
  std::uint64_t market_migrations_ = 0;
  std::uint64_t slo_violations_ = 0;
  double queue_wait_sum_ = 0.0;
  double wasted_seconds_ = 0.0;
  double checkpoint_overhead_seconds_ = 0.0;
  std::vector<double> latencies_;
  std::vector<double> slowdowns_;
};

}  // namespace edacloud::sched
