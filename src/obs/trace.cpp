#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::obs {

namespace {

double steady_now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread tracer state. Lane ids are handed out by the tracer under its
// mutex on first use; depth is pure thread-local nesting.
thread_local std::uint32_t t_lane = 0;
thread_local bool t_lane_assigned = false;
thread_local std::uint32_t t_depth = 0;

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(ClockMode mode) {
  std::lock_guard<std::mutex> lock(mutex_);
  mode_ = mode;
  wall_epoch_us_ = steady_now_us();
  virtual_us_.store(0.0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

double Tracer::now_us() const {
  if (mode_ == ClockMode::kVirtual) {
    return virtual_us_.load(std::memory_order_relaxed);
  }
  return steady_now_us() - wall_epoch_us_;
}

void Tracer::set_virtual_time_seconds(double seconds) {
  virtual_us_.store(seconds * 1e6, std::memory_order_relaxed);
}

void Tracer::emit_complete(std::string_view name, std::string_view category,
                           double ts_us, double dur_us, std::uint32_t tid,
                           std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = tid;
  event.depth = t_depth;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::emit_counter(std::string_view name, double ts_us, double value) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::string(name);
  event.phase = 'C';
  event.ts_us = ts_us;
  event.tid = 0;
  event.args.push_back({"value", value});
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::emit_batch(std::vector<TraceEvent> events) {
  if (!enabled() || events.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.reserve(events_.size() + events.size());
  for (TraceEvent& event : events) events_.push_back(std::move(event));
}

std::uint32_t Tracer::thread_lane() {
  // Pool workers get a deterministic lane derived from their slot instead
  // of a registration-order one: pools can be torn down and recreated at a
  // different width mid-process, and counter-based lanes would then pile
  // replacement workers onto fresh ids (or collide with external threads).
  const int slot = util::this_thread_pool_slot();
  if (slot > 0) return kPoolLaneBase + static_cast<std::uint32_t>(slot) - 1;
  if (!t_lane_assigned) {
    std::lock_guard<std::mutex> lock(mutex_);
    t_lane = next_lane_++;
    t_lane_assigned = true;
  }
  return t_lane;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::string Tracer::to_json() const {
  std::vector<TraceEvent> events = snapshot();
  // Parents end after their children under RAII, so destruction order is
  // child-first; sort so output order is a pure function of the recorded
  // timestamps (byte-identical for deterministic clocks).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                     return a.name < b.name;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":";
    util::append_json_string(out, event.name);
    out += ",\"cat\":";
    util::append_json_string(
        out, event.category.empty() ? "edacloud" : event.category);
    out += ",\"ph\":\"";
    out += event.phase;
    out += "\",\"pid\":1,\"tid\":";
    util::append_json_number(out, event.tid);
    out += ",\"ts\":";
    util::append_json_number(out, event.ts_us);
    if (event.phase == 'X') {
      out += ",\"dur\":";
      util::append_json_number(out, event.dur_us);
    }
    out += ",\"args\":{";
    for (std::size_t i = 0; i < event.args.size(); ++i) {
      if (i > 0) out += ",";
      util::append_json_string(out, event.args[i].key);
      out += ":";
      util::append_json_number(out, event.args[i].value);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream file(path);
  file << to_json();
  if (!file) {
    EDACLOUD_WARN << "tracer: cannot write " << path;
    return false;
  }
  return true;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

std::uint32_t Tracer::push_depth() { return t_depth++; }

void Tracer::pop_depth() {
  if (t_depth > 0) --t_depth;
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  name_ = std::string(name);
  category_ = std::string(category);
  start_us_ = tracer.now_us();
  depth_ = tracer.push_depth();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  tracer.pop_depth();  // t_depth is back at this span's own depth
  if (!tracer.enabled()) return;  // disabled mid-span: drop, nesting repaired
  const double end_us = tracer.now_us();
  tracer.emit_complete(name_, category_, start_us_, end_us - start_us_,
                       tracer.thread_lane(), std::move(args_));
}

void ScopedSpan::counter(std::string_view key, double value) {
  if (!active_) return;
  args_.push_back({std::string(key), value});
}

}  // namespace edacloud::obs
