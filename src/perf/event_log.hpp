#pragma once
// Deterministic instrumentation capture for parallel engine sections.
//
// The Instrument's simulators are *stateful* (gshare branch predictor,
// set-associative LRU caches, the co-runner interference ring), so its
// counter totals depend on the order events arrive. Sharding one Instrument
// per worker would make totals a function of the thread count — exactly what
// the determinism guarantee forbids. Instead, a parallel section reports
// through perf::Sinks (sink.hpp) that record into thread-private EventLogs
// (one per level chunk), and the engine replays the logs into its parent
// sink serially, in an order fixed by the algorithm (chunk order). The
// simulators then see a bit-identical event stream at any thread count. A
// parent sink may itself be a log: replaying into a log appends the events
// in order, so logged sections nest.
//
// Recording costs about as much as the work it records (a maze expansion
// logs ~25 events), so engines log only where a section runs in parallel.
// The router logs nothing: an instrumented route searches serially in
// commit order and reports straight into its sink (route/router.hpp).
// Under a null parent sink no log is allocated and every recording sink is
// null, so uninstrumented flows pay nothing for this machinery.

#include <cstdint>
#include <vector>

namespace edacloud::perf {

/// One recorded Instrument event. Packed to 16 bytes; `a` holds the
/// address / branch site / op count, `b` the private-stream id or the
/// branch taken flag.
struct PerfEvent {
  enum class Kind : std::uint8_t {
    kLoad,
    kStore,
    kLoadPrivate,
    kBranch,
    kIntOps,
    kFpOps,
    kAvxOps,
  };

  std::uint64_t a = 0;
  std::uint32_t b = 0;
  Kind kind = Kind::kLoad;
};

/// Append-only event buffer mirroring the Instrument reporting surface.
/// Consecutive arithmetic-op events of the same kind are coalesced, which
/// keeps hot loops (one int_ops per maze expansion) compact.
class EventLog {
 public:
  void load(std::uint64_t address) { append(PerfEvent::Kind::kLoad, address, 0); }
  void store(std::uint64_t address) {
    append(PerfEvent::Kind::kStore, address, 0);
  }
  void load_private(std::uint64_t address, std::uint32_t stream) {
    append(PerfEvent::Kind::kLoadPrivate, address, stream);
  }
  void branch(std::uint64_t site, bool taken) {
    append(PerfEvent::Kind::kBranch, site, taken ? 1U : 0U);
  }
  void int_ops(std::uint64_t n) { append_ops(PerfEvent::Kind::kIntOps, n); }
  void fp_ops(std::uint64_t n) { append_ops(PerfEvent::Kind::kFpOps, n); }
  void avx_ops(std::uint64_t n) { append_ops(PerfEvent::Kind::kAvxOps, n); }

  /// Appends `log`'s events, in order (a nested section's replay).
  void replay(const EventLog& log) {
    events_.insert(events_.end(), log.events_.begin(), log.events_.end());
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  [[nodiscard]] const std::vector<PerfEvent>& events() const {
    return events_;
  }

 private:
  void append(PerfEvent::Kind kind, std::uint64_t a, std::uint32_t b) {
    events_.push_back(PerfEvent{a, b, kind});
  }
  void append_ops(PerfEvent::Kind kind, std::uint64_t n) {
    if (!events_.empty() && events_.back().kind == kind) {
      events_.back().a += n;
      return;
    }
    events_.push_back(PerfEvent{n, 0, kind});
  }

  std::vector<PerfEvent> events_;
};

}  // namespace edacloud::perf
