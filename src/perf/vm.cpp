#include "perf/vm.hpp"

#include <algorithm>
#include <stdexcept>

namespace edacloud::perf {

namespace {

std::string format_label(InstanceFamily family, int vcpus, bool spot) {
  std::string out(to_string(family));
  out += '-';
  out += std::to_string(vcpus);
  out += "vcpu";
  if (spot) out += "-spot";
  return out;
}

}  // namespace

std::string VmConfig::name() const { return vm_label(family, vcpus); }

VmConfig make_vm(InstanceFamily family, int vcpus) {
  if (vcpus <= 0) throw std::invalid_argument("vcpus must be positive");
  VmConfig vm;
  vm.family = family;
  vm.vcpus = vcpus;
  // Cache geometry is scaled down with the benchmark designs (hundreds to
  // tens of thousands of instances instead of the paper's 200k+), keeping
  // the working-set-to-capacity ratios — and therefore the Fig. 2b trends —
  // in the regime the paper measured. See DESIGN.md.
  vm.l1_bytes = 8 * 1024;
  switch (family) {
    case InstanceFamily::kGeneralPurpose:
      vm.memory_gib = 4.0 * vcpus;
      vm.clock_ghz = 3.3;
      vm.llc_bytes = static_cast<std::uint64_t>(vcpus) * 96 * 1024;
      vm.has_avx = true;
      break;
    case InstanceFamily::kMemoryOptimized:
      vm.memory_gib = 8.0 * vcpus;
      vm.clock_ghz = 3.3;
      vm.llc_bytes = static_cast<std::uint64_t>(vcpus) * 192 * 1024;
      vm.has_avx = true;
      break;
    case InstanceFamily::kComputeOptimized:
      vm.memory_gib = 2.0 * vcpus;
      vm.clock_ghz = 3.6;
      vm.llc_bytes = static_cast<std::uint64_t>(vcpus) * 64 * 1024;
      vm.has_avx = true;
      break;
  }
  return vm;
}

std::array<VmConfig, 4> vm_ladder(InstanceFamily family) {
  return {make_vm(family, kVcpuOptions[0]), make_vm(family, kVcpuOptions[1]),
          make_vm(family, kVcpuOptions[2]), make_vm(family, kVcpuOptions[3])};
}

std::string_view ladder_label(InstanceFamily family, std::size_t vcpu_index,
                              bool spot) {
  using Table =
      std::array<std::array<std::array<std::string, 2>, kVcpuOptions.size()>,
                 kFamilyCount>;
  static const Table table = [] {
    Table built;
    for (std::size_t f = 0; f < kFamilyCount; ++f) {
      for (std::size_t i = 0; i < kVcpuOptions.size(); ++i) {
        for (int spot_tier = 0; spot_tier < 2; ++spot_tier) {
          built[f][i][static_cast<std::size_t>(spot_tier)] = format_label(
              static_cast<InstanceFamily>(f), kVcpuOptions[i], spot_tier != 0);
        }
      }
    }
    return built;
  }();
  return table.at(static_cast<std::size_t>(family))
      .at(vcpu_index)[spot ? 1 : 0];
}

std::string vm_label(InstanceFamily family, int vcpus) {
  const auto it =
      std::find(kVcpuOptions.begin(), kVcpuOptions.end(), vcpus);
  if (it == kVcpuOptions.end()) return format_label(family, vcpus, false);
  return std::string(ladder_label(
      family, static_cast<std::size_t>(it - kVcpuOptions.begin())));
}

std::string_view to_string(InstanceFamily family) {
  switch (family) {
    case InstanceFamily::kGeneralPurpose:
      return "general-purpose";
    case InstanceFamily::kMemoryOptimized:
      return "memory-optimized";
    case InstanceFamily::kComputeOptimized:
      return "compute-optimized";
  }
  return "?";
}

}  // namespace edacloud::perf
