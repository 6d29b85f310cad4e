#include "perf/vm.hpp"

#include <stdexcept>

namespace edacloud::perf {

std::string VmConfig::name() const {
  std::string out(to_string(family));
  out += '-';
  out += std::to_string(vcpus);
  out += "vcpu";
  return out;
}

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
