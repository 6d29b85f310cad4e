#include "sched/fleet.hpp"

#include <cmath>
#include <stdexcept>

namespace edacloud::sched {

std::string to_string(const PoolKey& key) {
  return perf::vm_label(key.family, key.vcpus);
}

Fleet::Fleet(PoolKey key, FleetConfig config)
    : key_(key), config_(std::move(config)) {
  config_.market = cloud::ensure_market(config_.market, config_.spot);
}

int Fleet::launch(double now, util::Rng& rng, bool warm) {
  VmInstance vm;
  vm.id = static_cast<int>(vms_.size());
  vm.spot = config_.spot_fraction > 0.0 && rng.next_bool(config_.spot_fraction);
  vm.launch_time = now;
  vm.ready_time = warm ? now : now + config_.boot_seconds;
  vm.state = warm ? VmInstance::State::kIdle : VmInstance::State::kBooting;
  vms_.push_back(vm);
  if (warm) idle_.insert(vm.id);
  ++alive_;
  return vm.id;
}

void Fleet::mark_ready(int id) {
  VmInstance& vm = vms_[id];
  if (vm.state == VmInstance::State::kBooting) {
    vm.state = VmInstance::State::kIdle;
    idle_.insert(id);
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
  idle_.erase(id);
  ++busy_;
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
  idle_.insert(id);
  --busy_;
}

void Fleet::retire(int id, double now) {
  VmInstance& vm = vms_[id];
  if (vm.state == VmInstance::State::kRetired) return;
  if (vm.state == VmInstance::State::kBusy) {
    vm.busy_seconds += now - vm.run_start;
    vm.running_job = kNoJob;
    --busy_;
  } else if (vm.state == VmInstance::State::kIdle) {
    idle_.erase(id);
  }
  vm.state = VmInstance::State::kRetired;
  vm.retire_time = now;
  --alive_;
}

double Fleet::hourly_rate_usd(const VmInstance& vm) const {
  double rate = config_.catalog.hourly_usd(key_.family, key_.vcpus);
  if (vm.spot) {
    rate *= config_.market->price_at(key_.family, key_.vcpus, vm.launch_time);
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
    double rate = config_.catalog.hourly_usd(key_.family, key_.vcpus);
    if (vm.spot) {
      rate *= config_.market->mean_price(key_.family, key_.vcpus,
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
