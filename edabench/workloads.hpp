#pragma once
// The four benchmark workloads. Each one is a closed loop over a fixed work
// budget made from the seed: set-up builds its inputs, run() executes the
// budget as identical rounds (so a run's exact work counters must repeat
// round after round), gate() checks the program's outputs outside the
// timed phase, and probe() adds the per-layer figures of the traced run.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace edabench {

/// What one timed phase did.
struct Timed {
  std::uint64_t ops = 0;             // operations completed
  std::uint64_t failed = 0;          // operations that errored
  std::vector<double> round_wall_s;  // wall time per round
  std::vector<double> round_cpu_s;   // process CPU time per round
  /// Exact work counters per round; every round must match the first.
  std::vector<std::map<std::string, std::uint64_t>> round_counters;

  void start_round() {
    round_start_s_ = wall_now();
    round_cpu_start_s_ = process_cpu_seconds();
  }
  void end_round() {
    round_wall_s.push_back(wall_now() - round_start_s_);
    round_cpu_s.push_back(process_cpu_seconds() - round_cpu_start_s_);
  }

 private:
  double round_start_s_ = 0.0;
  double round_cpu_start_s_ = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One complete set-up, replacing any previous state.
  virtual void setup(SpanRecorder& spans) = 0;
  /// The timed phase: `rounds` identical rounds of the work budget.
  virtual Timed run(int rounds, SpanRecorder& spans) = 0;
  /// Correctness checks outside the timed phase; appends a line per
  /// failure to `problems`.
  virtual void gate(const Timed& timed, std::vector<std::string>& problems) = 0;
  /// Per-layer metrics from a traced round (`spans` holds its spans).
  virtual void probe(const Timed& traced, SpanRecorder& spans,
                     std::vector<Metric>& out) = 0;
  /// Thread and connection settings, as a JSON object.
  [[nodiscard]] virtual std::string settings() const = 0;
  /// Nominal wall seconds of one round on a 4-vCPU host; sizes the budget.
  [[nodiscard]] virtual double round_seconds() const = 0;
};

const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace edabench
