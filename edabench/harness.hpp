#pragma once
// The benchmark's own measurement helpers: clocks, percentiles that carry
// their sample count, the loadgen-compatible response digest, and a span
// recorder that the traced run wraps around public layer calls. Nothing
// here depends on the edacloud libraries, so the helpers are tested on
// their own (harness_test.cpp).

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace edabench {

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU seconds consumed by the whole process (all threads).
double process_cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// A percentile together with the number of samples it was taken over, so
/// a tail figure never travels without its evidence.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Percentile `q` (0..100) by linear interpolation between closest ranks
/// (the numpy default). Empty input gives {0, 0}.
Percentile percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// FNV-1a over raw bytes, continuing from `hash`.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes);

/// The svc::run_loadgen digest: FNV-1a over (id as 8 little-endian bytes,
/// response bytes, 0xFF) folded in ascending id order. Recomputing it over
/// in-process responses checks the served bytes end to end.
std::uint64_t response_digest(
    std::vector<std::pair<std::uint64_t, std::string>> responses);

/// Wall and process-CPU self time of one layer, summed over its spans.
struct LayerTime {
  double self_s = 0.0;
  double self_cpu_s = 0.0;
  double total_s = 0.0;  // inclusive (children included)
  double total_cpu_s = 0.0;
  std::uint64_t spans = 0;
};

/// In-memory span recorder. A span's layer is its name up to the first
/// '.', so "route.run" belongs to "route". Spans nest per thread: the
/// parent of a new span is the innermost open span on the same thread.
/// Self time is a span's duration minus the union of its children's
/// intervals. Disabled recorders record nothing and cost one branch.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int parent = -1;
    int tid = 0;
    double start_s = 0.0;
    double end_s = 0.0;
    double cpu_start_s = 0.0;
    double cpu_end_s = 0.0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, int index)
        : recorder_(recorder), index_(index) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->end(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] Scope scope(std::string name) {
    if (!enabled_) return Scope(nullptr, -1);
    return Scope(this, begin(std::move(name)));
  }

  /// Explicit interval, for tests and for spans measured elsewhere.
  int record(std::string name, int parent, int tid, double start_s,
             double end_s, double cpu_start_s = 0.0, double cpu_end_s = 0.0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Self time of one span: its duration minus its children's coverage.
  [[nodiscard]] double self_seconds(int index) const;
  /// Per-layer totals, keyed by layer name.
  [[nodiscard]] std::map<std::string, LayerTime> layer_table() const;
  /// Chrome trace_event JSON ("X" complete events, microseconds from the
  /// first span), with `other_data` (a JSON object) under "otherData".
  [[nodiscard]] std::string chrome_trace(const std::string& other_data) const;

 private:
  int begin(std::string name);
  void end(int index);
  [[nodiscard]] double self_seconds_locked(int index, bool cpu) const;

  bool enabled_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<int>> open_;  // per-thread stacks
  std::map<std::thread::id, int> tids_;
};

/// Escape a string for a JSON string literal (without the quotes).
std::string json_escape(std::string_view text);
/// Shortest round-tripping decimal for a double (JSON number).
std::string json_number(double value);

}  // namespace edabench
