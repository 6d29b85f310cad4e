#pragma once
// Deterministic instrumentation capture for parallel engine sections.
//
// The Instrument's simulators are *stateful* (gshare branch predictor,
// set-associative LRU caches, the co-runner interference ring), so its
// counter totals depend on the order events arrive. Sharding one Instrument
// per worker would make totals a function of the thread count — exactly what
// the determinism guarantee forbids. Instead, a parallel section records its
// events into thread-private EventLogs (one per committed route search /
// per level chunk), and the engine replays the logs into the single shared
// Instrument serially, in an order fixed by the algorithm (commit order,
// chunk order). The simulators then see a bit-identical event stream at any
// thread count.
//
// Recording costs about as much as the work it records (a maze expansion
// logs ~25 events), so engines log only work that will be replayed: the
// router searches the attempts of a round unlogged and re-runs just the
// committing searches with logs (route/router.cpp). Uninstrumented runs
// pass a null log pointer and skip recording entirely, so measured-speedup
// flows pay nothing for this machinery.

#include <cstdint>
#include <vector>

namespace edacloud::perf {

class Instrument;

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
