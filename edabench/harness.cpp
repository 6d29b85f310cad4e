#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace edabench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
// execve, so a benchmark launched from a larger process (a Python runner)
// would report the parent's footprint instead of its own.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = values[lo] + frac * (values[hi] - values[lo]);
  return out;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t response_digest(
    std::vector<std::pair<std::uint64_t, std::string>> responses) {
  std::sort(responses.begin(), responses.end());
  std::uint64_t digest = kFnvOffset;
  for (const auto& [id, response] : responses) {
    char id_bytes[8];
    for (int b = 0; b < 8; ++b) {
      id_bytes[b] = static_cast<char>((id >> (8 * b)) & 0xFF);
    }
    digest = fnv1a(digest, std::string_view(id_bytes, sizeof(id_bytes)));
    digest = fnv1a(digest, response);
    digest = fnv1a(digest, std::string_view("\xFF", 1));
  }
  return digest;
}

int SpanRecorder::begin(std::string name) {
  const double cpu = process_cpu_seconds();
  const double now = wall_now();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id self = std::this_thread::get_id();
  const auto [tid, inserted] =
      tids_.emplace(self, static_cast<int>(tids_.size()));
  (void)inserted;
  std::vector<int>& stack = open_[self];
  Span span;
  span.layer = name.substr(0, name.find('.'));
  span.name = std::move(name);
  span.parent = stack.empty() ? -1 : stack.back();
  span.tid = tid->second;
  span.start_s = now;
  span.cpu_start_s = cpu;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  const double now = wall_now();
  const double cpu = process_cpu_seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end_s = now;
  spans_[index].cpu_end_s = cpu;
  std::vector<int>& stack = open_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == index) stack.pop_back();
}

int SpanRecorder::record(std::string name, int parent, int tid,
                         double start_s, double end_s, double cpu_start_s,
                         double cpu_end_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.layer = name.substr(0, name.find('.'));
  span.name = std::move(name);
  span.parent = parent;
  span.tid = tid;
  span.start_s = start_s;
  span.end_s = end_s;
  span.cpu_start_s = cpu_start_s;
  span.cpu_end_s = cpu_end_s;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double SpanRecorder::self_seconds(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return self_seconds_locked(index, false);
}

// Duration minus the union of the children's intervals, each clipped to
// the parent (children may overlap when recorded explicitly).
double SpanRecorder::self_seconds_locked(int index, bool cpu) const {
  const Span& parent = spans_[index];
  const double start = cpu ? parent.cpu_start_s : parent.start_s;
  const double end = cpu ? parent.cpu_end_s : parent.end_s;
  std::vector<std::pair<double, double>> children;
  for (const Span& span : spans_) {
    if (span.parent != index) continue;
    const double s = std::max(start, cpu ? span.cpu_start_s : span.start_s);
    const double e = std::min(end, cpu ? span.cpu_end_s : span.end_s);
    if (e > s) children.emplace_back(s, e);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (const auto& [s, e] : children) {
    if (!open || s > run_end) {
      if (open) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      open = true;
    } else {
      run_end = std::max(run_end, e);
    }
  }
  if (open) covered += run_end - run_start;
  return std::max(0.0, (end - start) - covered);
}

std::map<std::string, LayerTime> SpanRecorder::layer_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, LayerTime> table;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    LayerTime& row = table[span.layer];
    row.self_s += self_seconds_locked(static_cast<int>(i), false);
    row.self_cpu_s += self_seconds_locked(static_cast<int>(i), true);
    row.total_s += span.end_s - span.start_s;
    row.total_cpu_s += span.cpu_end_s - span.cpu_start_s;
    ++row.spans;
  }
  return table;
}

std::string SpanRecorder::chrome_trace(const std::string& other_data) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double origin = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (i == 0 || spans_[i].start_s < origin) origin = spans_[i].start_s;
  }
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"self_us\":%.3f,\"parent\":%d}}",
                  span.tid, 1e6 * (span.start_s - origin),
                  1e6 * (span.end_s - span.start_s),
                  1e6 * self_seconds_locked(static_cast<int>(i), false),
                  span.parent);
    out += i == 0 ? "" : ",";
    out += "\n{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
           json_escape(span.layer) + "\"," + buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" + other_data + "}\n";
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace edabench
