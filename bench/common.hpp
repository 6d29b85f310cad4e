#pragma once
// Shared helpers for the experiment harnesses (one binary per paper
// table/figure). Each harness prints the paper-style table to stdout and
// writes a CSV next to the binary under experiment_results/ so the series
// can be re-plotted.

#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::bench {

/// --fast on the command line (or EDACLOUD_FAST=1) shrinks workloads for
/// quick iteration; default reproduces the full experiment.
inline bool fast_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--fast") return true;
  }
  const char* env = std::getenv("EDACLOUD_FAST");
  return env != nullptr && std::string(env) == "1";
}

inline std::string flag_value(int argc, char** argv,
                              const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return argv[i + 1];
  }
  return "";
}

/// --threads N on a bench driver that runs parallel code (GCN training in
/// fig5_prediction, the fleet engine in ext_fleet_scale): widen the global
/// pool to N workers. Every result is bit-identical at any value; only host
/// wall time changes. Returns the effective count (the pool's current width
/// when the flag is absent or invalid).
inline int apply_threads(int argc, char** argv) {
  const std::string value = flag_value(argc, argv, "--threads");
  if (value.empty()) return util::global_thread_count();
  const int n = std::atoi(value.c_str());
  if (n < 1) {
    EDACLOUD_WARN << "--threads wants a positive integer, got '" << value
                  << "'; keeping " << util::global_thread_count();
    return util::global_thread_count();
  }
  util::set_global_thread_count(n);
  return n;
}

/// --trace F / --metrics F on any bench driver: enables the global tracer
/// (call at the top of main with the clock domain the harness runs in —
/// kVirtual for fleet simulations, kWall for engine runs) ...
inline void observability_setup(int argc, char** argv, obs::ClockMode mode) {
  if (!flag_value(argc, argv, "--trace").empty()) {
    obs::Tracer::global().enable(mode);
  }
}

/// ... and writes the requested files before main returns.
inline void observability_flush(int argc, char** argv) {
  const std::string trace_path = flag_value(argc, argv, "--trace");
  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (obs::Tracer::global().write_json(trace_path)) {
      EDACLOUD_INFO << "wrote " << trace_path;
    }
  }
  const std::string metrics_path = flag_value(argc, argv, "--metrics");
  if (!metrics_path.empty()) {
    if (obs::Registry::global().write(metrics_path)) {
      EDACLOUD_INFO << "wrote " << metrics_path;
    }
  }
}

inline void write_csv(const util::CsvWriter& csv, const std::string& name) {
  std::filesystem::create_directories("experiment_results");
  const std::string path = "experiment_results/" + name;
  if (!csv.write(path)) {
    EDACLOUD_WARN << "failed to write " << path;
  } else {
    EDACLOUD_INFO << "wrote " << path;
  }
}

}  // namespace edacloud::bench
