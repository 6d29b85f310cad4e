#pragma once
// Cloud VM configuration model (§II). A VM is sold in units of vCPUs with a
// family-dependent memory-to-core ratio; multi-tenancy is modeled by slicing
// the host LLC per vCPU, so provisioning more vCPUs also buys more
// last-level cache — the effect the paper observes in Fig. 2b.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace edacloud::perf {

enum class InstanceFamily : std::uint8_t {
  kGeneralPurpose,   // m5-like: 4 GiB/vCPU, balanced
  kMemoryOptimized,  // r5-like: 8 GiB/vCPU, larger LLC slice
  kComputeOptimized, // c5-like: 2 GiB/vCPU, higher clock, smaller LLC slice
};

constexpr std::size_t kFamilyCount = 3;  // InstanceFamily values
constexpr std::array<int, 4> kVcpuOptions = {1, 2, 4, 8};

struct VmConfig {
  InstanceFamily family = InstanceFamily::kGeneralPurpose;
  int vcpus = 1;
  double memory_gib = 4.0;
  double clock_ghz = 3.3;
  std::uint64_t l1_bytes = 32 * 1024;   // private, per vCPU
  std::uint64_t llc_bytes = 2 * 1024 * 1024;  // tenant slice (scales w/ vCPUs)
  bool has_avx = true;

  [[nodiscard]] std::string name() const;
};

/// Build the configuration a vendor would sell for (family, vcpus).
VmConfig make_vm(InstanceFamily family, int vcpus);

/// All four sizes of one family, in kVcpuOptions order.
std::array<VmConfig, 4> vm_ladder(InstanceFamily family);

std::string_view to_string(InstanceFamily family);

/// The one label format of a VM shape: "general-purpose-4vcpu", with
/// "-spot" appended for spot capacity. Served from a static table indexed
/// by (family, kVcpuOptions index, spot), so it never allocates.
std::string_view ladder_label(InstanceFamily family, std::size_t vcpu_index,
                              bool spot = false);

/// The label of a `vcpus`-wide shape: the table's entry for a kVcpuOptions
/// size, the same format built on demand for any other.
std::string vm_label(InstanceFamily family, int vcpus);

}  // namespace edacloud::perf
