#include "sched/fleet.hpp"

#include <cmath>
#include <stdexcept>

namespace edacloud::sched {

std::string to_string(const PoolKey& key) {
  return perf::vm_label(key.family, key.vcpus);
}

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  config_.market = cloud::ensure_market(config_.market, config_.spot);
}

int Fleet::launch(const PoolKey& pool, double now, util::Rng& rng, bool warm) {
  VmInstance vm;
  vm.id = static_cast<int>(vms_.size());
  vm.pool = pool;
  vm.config = perf::make_vm(pool.family, pool.vcpus);
  vm.spot = config_.spot_fraction > 0.0 && rng.next_bool(config_.spot_fraction);
  vm.launch_time = now;
  vm.ready_time = warm ? now : now + config_.boot_seconds;
  vm.state = warm ? VmInstance::State::kIdle : VmInstance::State::kBooting;
  vms_.push_back(vm);
  if (warm) idle_by_pool_[pool].insert(vm.id);
  ++counts_[pool].alive;
  ++total_alive_;
  return vm.id;
}

void Fleet::mark_ready(int id) {
  VmInstance& vm = vms_[id];
  if (vm.state == VmInstance::State::kBooting) {
    vm.state = VmInstance::State::kIdle;
    idle_by_pool_[vm.pool].insert(id);
  }
}

void Fleet::assign(int id, std::uint64_t job, double now,
                   double service_seconds, double work_seconds) {
  VmInstance& vm = vms_[id];
  if (vm.state != VmInstance::State::kIdle) {
    throw std::logic_error("assign: VM is not idle");
  }
  vm.state = VmInstance::State::kBusy;
  vm.running_job = job;
  vm.run_start = now;
  vm.run_service = service_seconds;
  vm.run_work = work_seconds < 0.0 ? service_seconds : work_seconds;
  idle_by_pool_[vm.pool].erase(id);
  ++counts_[vm.pool].busy;
}

void Fleet::release(int id, double now) {
  VmInstance& vm = vms_[id];
  if (vm.state != VmInstance::State::kBusy) {
    throw std::logic_error("release: VM is not busy");
  }
  vm.busy_seconds += now - vm.run_start;
  vm.state = VmInstance::State::kIdle;
  vm.running_job = kNoJob;
  vm.run_service = 0.0;
  vm.run_work = 0.0;
  idle_by_pool_[vm.pool].insert(id);
  --counts_[vm.pool].busy;
}

void Fleet::retire(int id, double now) {
  VmInstance& vm = vms_[id];
  if (vm.state == VmInstance::State::kRetired) return;
  if (vm.state == VmInstance::State::kBusy) {
    vm.busy_seconds += now - vm.run_start;
    vm.running_job = kNoJob;
    --counts_[vm.pool].busy;
  } else if (vm.state == VmInstance::State::kIdle) {
    idle_by_pool_[vm.pool].erase(id);
  }
  vm.state = VmInstance::State::kRetired;
  vm.retire_time = now;
  --counts_[vm.pool].alive;
  --total_alive_;
}

std::vector<int> Fleet::idle_in(const PoolKey& pool) const {
  const std::set<int>& idle = idle_set(pool);
  return std::vector<int>(idle.begin(), idle.end());
}

const std::set<int>& Fleet::idle_set(const PoolKey& pool) const {
  static const std::set<int> kEmpty;
  const auto it = idle_by_pool_.find(pool);
  return it == idle_by_pool_.end() ? kEmpty : it->second;
}

int Fleet::alive_count(const PoolKey& pool) const {
  const auto it = counts_.find(pool);
  return it == counts_.end() ? 0 : it->second.alive;
}

int Fleet::busy_count(const PoolKey& pool) const {
  const auto it = counts_.find(pool);
  return it == counts_.end() ? 0 : it->second.busy;
}

int Fleet::idle_count(const PoolKey& pool) const {
  return static_cast<int>(idle_set(pool).size());
}

int Fleet::total_alive() const { return total_alive_; }

double Fleet::hourly_rate_usd(const VmInstance& vm) const {
  double rate = config_.catalog.hourly_usd(vm.pool.family, vm.pool.vcpus);
  if (vm.spot) {
    rate *= config_.market->price_at(vm.pool.family, vm.pool.vcpus,
                                     vm.launch_time);
  }
  return rate;
}

double Fleet::total_cost_usd(double now) const {
  double total = 0.0;
  for (const auto& vm : vms_) {
    const double end = vm.retire_time >= 0.0 ? vm.retire_time : now;
    const double billed = std::ceil(std::max(0.0, end - vm.launch_time));
    // Prevailing-price billing: a spot VM pays the market's time-weighted
    // mean price over its lifetime, not its launch-time multiplier for
    // life. The static market's mean IS the flat multiplier, so the float
    // operations below reproduce the pre-market bill bit-for-bit.
    double rate = config_.catalog.hourly_usd(vm.pool.family, vm.pool.vcpus);
    if (vm.spot) {
      rate *= config_.market->mean_price(vm.pool.family, vm.pool.vcpus,
                                         vm.launch_time, end);
    }
    total += rate * billed / 3600.0;
  }
  return total;
}

double Fleet::busy_seconds_total() const {
  double total = 0.0;
  for (const auto& vm : vms_) total += vm.busy_seconds;
  return total;
}

double Fleet::alive_seconds_total(double now) const {
  double total = 0.0;
  for (const auto& vm : vms_) {
    const double end = vm.retire_time >= 0.0 ? vm.retire_time : now;
    total += std::max(0.0, end - vm.launch_time);
  }
  return total;
}

}  // namespace edacloud::sched
