#pragma once
// The simulated VM fleet: pools of identical (family, vCPU) instances with
// boot latency, per-second billing through cloud::PricingCatalog, and an
// optional spot tier (discounted rate, reclaimable mid-run). The fleet only
// tracks machine state and money; *what* runs *where* is the policy's job.

#include <compare>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/market.hpp"
#include "cloud/pricing.hpp"
#include "perf/vm.hpp"
#include "sched/job.hpp"
#include "util/rng.hpp"

namespace edacloud::sched {

struct PoolKey {
  perf::InstanceFamily family = perf::InstanceFamily::kGeneralPurpose;
  int vcpus = 1;
  auto operator<=>(const PoolKey&) const = default;
};

std::string to_string(const PoolKey& key);

struct VmInstance {
  enum class State : std::uint8_t { kBooting, kIdle, kBusy, kRetired };

  int id = -1;
  PoolKey pool;
  perf::VmConfig config;
  bool spot = false;
  State state = State::kBooting;
  double launch_time = 0.0;
  double ready_time = 0.0;
  double retire_time = -1.0;   // < 0 while alive
  double busy_seconds = 0.0;   // accumulated service time
  std::uint64_t running_job = kNoJob;
  double run_start = 0.0;
  double run_service = 0.0;    // scheduled service time of the current run
  double run_work = 0.0;       // work component (service minus snapshots)
};

struct FleetConfig {
  double boot_seconds = 45.0;
  double spot_fraction = 0.0;  // probability a launched VM is a spot instance
  cloud::SpotModel spot;
  cloud::PricingCatalog catalog = cloud::PricingCatalog::aws_like();
  /// The spot market spot VMs bill and get reclaimed against. Null means
  /// "the classic flat model": consumers normalize it to a StaticMarket
  /// wrapping `spot` (cloud::ensure_market), which reproduces pre-market
  /// billing and reclaim draws bit-for-bit.
  std::shared_ptr<const cloud::Market> market;
  /// Default bid, as a fraction of the on-demand rate, a spot attempt
  /// places when its job has not re-bid higher. Price-triggered markets
  /// reclaim the VM the moment the spot price crosses above the bid; the
  /// static market ignores bids entirely.
  double spot_bid_fraction = 0.5;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  /// Launch a VM into `pool` at `now`. `warm` skips the boot delay (used to
  /// seed a pre-provisioned fleet at t = 0). Spot assignment is drawn from
  /// `rng` at `spot_fraction`. Returns the new VM id.
  int launch(const PoolKey& pool, double now, util::Rng& rng,
             bool warm = false);

  void mark_ready(int id);
  /// Start a run. `work_seconds` is the useful-work component of the
  /// service time (defaults to all of it; less when checkpoint snapshots
  /// pad the schedule).
  void assign(int id, std::uint64_t job, double now, double service_seconds,
              double work_seconds = -1.0);
  /// Finish the current run and return the VM to the idle pool.
  void release(int id, double now);
  /// Retire the VM (scale-down or spot reclaim). Busy VMs are allowed —
  /// the in-flight run's elapsed time is credited as busy time.
  void retire(int id, double now);

  [[nodiscard]] VmInstance& vm(int id) { return vms_[id]; }
  [[nodiscard]] const VmInstance& vm(int id) const { return vms_[id]; }
  [[nodiscard]] const std::vector<VmInstance>& instances() const {
    return vms_;
  }

  /// Idle VM ids in `pool`, ascending (the dispatch order).
  [[nodiscard]] std::vector<int> idle_in(const PoolKey& pool) const;
  /// The live idle-id set for `pool` (ascending), maintained incrementally —
  /// the O(1)-per-transition view the sharded simulator dispatches from.
  /// Invalidated by assign/retire of a member; advance iterators first.
  [[nodiscard]] const std::set<int>& idle_set(const PoolKey& pool) const;
  [[nodiscard]] int alive_count(const PoolKey& pool) const;
  [[nodiscard]] int busy_count(const PoolKey& pool) const;
  [[nodiscard]] int idle_count(const PoolKey& pool) const;
  [[nodiscard]] int total_alive() const;

  /// Hourly rate of one VM at its launch instant, spot discount included
  /// (the market's launch-time price; constant for the static market).
  [[nodiscard]] double hourly_rate_usd(const VmInstance& vm) const;
  /// Fleet bill at `now`: every VM pays per second (whole seconds, boot and
  /// idle time included) from launch until retirement or `now`. Spot VMs
  /// bill at the market's time-weighted mean price over their lifetime —
  /// the prevailing per-second price, not the launch-time multiplier.
  [[nodiscard]] double total_cost_usd(double now) const;
  [[nodiscard]] double busy_seconds_total() const;
  [[nodiscard]] double alive_seconds_total(double now) const;

  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  // Per-pool incremental tallies so count queries never rescan the VM list
  // (a million-VM fleet would otherwise pay O(pool) per dispatch).
  struct PoolCounts {
    int alive = 0;
    int busy = 0;
  };

  FleetConfig config_;
  std::vector<VmInstance> vms_;
  std::map<PoolKey, std::set<int>> idle_by_pool_;
  std::map<PoolKey, PoolCounts> counts_;
  int total_alive_ = 0;
};

}  // namespace edacloud::sched
