#pragma once
// perf::Sink — the one way stage engines report instrumentation events.
//
// A sink points at an Instrument, at an EventLog, or at nothing. Engine
// functions take it by value and report into it without null checks: a
// null sink, and a sink built from a disabled Instrument, drops every event
// for the cost of two pointer tests. A block that computes more than an
// address for its events tests `if (sink)` once around the whole block.
//
// Parallel sections record into ChunkLogs (one EventLog per chunk) and
// replay them into their parent sink in chunk order, so the Instrument's
// stateful simulators see the same event stream at any thread count (see
// event_log.hpp). The parent may itself be a log sink: replaying into a log
// appends the events in order, so logged sections nest. A section that
// stays serial under a non-null sink (instrumented routing) reports into
// it directly and logs nothing.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "perf/event_log.hpp"
#include "perf/instrument.hpp"

namespace edacloud::perf {

class Sink {
 public:
  /// The null sink: records nothing.
  Sink() = default;
  /// Reports into `instrument`; null when it is disabled.
  explicit Sink(Instrument& instrument)
      : instrument_(instrument.enabled() ? &instrument : nullptr) {}
  /// Records into `log`, for replay later.
  explicit Sink(EventLog& log) : log_(&log) {}

  explicit operator bool() const {
    return instrument_ != nullptr || log_ != nullptr;
  }

  /// A sink recording into `log` when this one records at all, else null:
  /// how a section keeps events it may replay into this sink later.
  [[nodiscard]] Sink child(EventLog& log) const {
    return *this ? Sink(log) : Sink();
  }

  void load(std::uint64_t address) const {
    dispatch([&](auto& target) { target.load(address); });
  }
  void store(std::uint64_t address) const {
    dispatch([&](auto& target) { target.store(address); });
  }
  void load_private(std::uint64_t address, std::uint32_t stream) const {
    dispatch([&](auto& target) { target.load_private(address, stream); });
  }
  void branch(std::uint64_t site, bool taken) const {
    dispatch([&](auto& target) { target.branch(site, taken); });
  }
  void int_ops(std::uint64_t n) const {
    dispatch([&](auto& target) { target.int_ops(n); });
  }
  void fp_ops(std::uint64_t n) const {
    dispatch([&](auto& target) { target.fp_ops(n); });
  }
  void avx_ops(std::uint64_t n) const {
    dispatch([&](auto& target) { target.avx_ops(n); });
  }
  /// Feeds `log`'s events in, in their recorded order.
  void replay(const EventLog& log) const {
    dispatch([&](auto& target) { target.replay(log); });
  }

 private:
  template <typename Call>
  void dispatch(Call call) const {
    if (instrument_ != nullptr) {
      call(*instrument_);
    } else if (log_ != nullptr) {
      call(*log_);
    }
  }

  Instrument* instrument_ = nullptr;
  EventLog* log_ = nullptr;
};

/// One EventLog per chunk of a parallel section. Chunk c records through
/// operator[](c); replay() feeds the logs to the parent in chunk order.
/// Under a null parent no log is allocated and every chunk sink is null.
class ChunkLogs {
 public:
  ChunkLogs(Sink parent, std::size_t chunks)
      : parent_(parent), logs_(parent ? chunks : 0) {}

  [[nodiscard]] Sink operator[](std::size_t chunk) {
    return logs_.empty() ? Sink() : Sink(logs_[chunk]);
  }
  void replay() const {
    for (const EventLog& log : logs_) parent_.replay(log);
  }

  [[nodiscard]] std::size_t size() const { return logs_.size(); }
  [[nodiscard]] auto begin() const { return logs_.cbegin(); }
  [[nodiscard]] auto end() const { return logs_.cend(); }

 private:
  Sink parent_;
  std::vector<EventLog> logs_;
};

}  // namespace edacloud::perf
