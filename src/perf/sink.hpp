#pragma once
// perf::Sink — the one way stage engines report instrumentation events.
//
// A sink is a nullable handle on an Instrument: it holds one Instrument*,
// null for the null sink and for a disabled Instrument. Engine functions
// take it by value and report into it without null checks; every event
// call is one pointer test. A block that computes more than an address for
// its events tests `if (sink)` once around the whole block.
//
// The Instrument's simulators are stateful (branch predictor, LRU caches,
// the co-runner ring), so its totals depend on the order events arrive.
// Every engine section that reports runs serially, so that order is the
// algorithm's own and does not depend on any thread count.

#include <cstdint>

#include "perf/instrument.hpp"

namespace edacloud::perf {

class Sink {
 public:
  /// The null sink: records nothing.
  Sink() = default;
  /// Reports into `instrument`; null when it is disabled.
  explicit Sink(Instrument& instrument)
      : instrument_(instrument.enabled() ? &instrument : nullptr) {}

  explicit operator bool() const { return instrument_ != nullptr; }

  void load(std::uint64_t address) const {
    if (instrument_ != nullptr) instrument_->load(address);
  }
  void store(std::uint64_t address) const {
    if (instrument_ != nullptr) instrument_->store(address);
  }
  void load_private(std::uint64_t address, std::uint32_t stream) const {
    if (instrument_ != nullptr) instrument_->load_private(address, stream);
  }
  void branch(std::uint64_t site, bool taken) const {
    if (instrument_ != nullptr) instrument_->branch(site, taken);
  }
  void int_ops(std::uint64_t n) const {
    if (instrument_ != nullptr) instrument_->int_ops(n);
  }
  void fp_ops(std::uint64_t n) const {
    if (instrument_ != nullptr) instrument_->fp_ops(n);
  }
  void avx_ops(std::uint64_t n) const {
    if (instrument_ != nullptr) instrument_->avx_ops(n);
  }

 private:
  Instrument* instrument_ = nullptr;
};

}  // namespace edacloud::perf
