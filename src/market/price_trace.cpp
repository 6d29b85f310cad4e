#include "market/price_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace edacloud::market {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Index of the segment covering `t`: the last point at or before t,
/// clamped to the first point for t before the trace starts.
std::size_t segment_index(const std::vector<PricePoint>& points, double t) {
  const auto it = std::upper_bound(
      points.begin(), points.end(), t,
      [](double value, const PricePoint& p) { return value < p.time; });
  if (it == points.begin()) return 0;
  return static_cast<std::size_t>(it - points.begin()) - 1;
}

perf::InstanceFamily family_from_name(const std::string& name) {
  for (const perf::InstanceFamily family :
       {perf::InstanceFamily::kGeneralPurpose,
        perf::InstanceFamily::kMemoryOptimized,
        perf::InstanceFamily::kComputeOptimized}) {
    if (name == perf::to_string(family)) return family;
  }
  throw std::invalid_argument("price trace: unknown instance family '" +
                              name + "'");
}

/// Shortest decimal that round-trips the double exactly.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double parsed = 0.0;
  std::sscanf(buffer, "%lf", &parsed);
  if (parsed == value) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
      std::sscanf(shorter, "%lf", &parsed);
      if (parsed == value) return shorter;
    }
  }
  return buffer;
}

}  // namespace

double PriceTrace::price_at(double t) const {
  if (points.empty()) return 0.0;
  return points[segment_index(points, t)].price;
}

double PriceTrace::mean_over(double t0, double t1) const {
  if (points.empty()) return 0.0;
  if (t1 <= t0) return price_at(t0);
  double integral = 0.0;
  double t = t0;
  std::size_t i = segment_index(points, t0);
  while (true) {
    double seg_end = i + 1 < points.size() ? points[i + 1].time : t1;
    seg_end = std::min(seg_end, t1);
    if (seg_end > t) {
      integral += points[i].price * (seg_end - t);
      t = seg_end;
    }
    if (t >= t1 || i + 1 >= points.size()) break;
    ++i;
  }
  return integral / (t1 - t0);
}

double PriceTrace::mean_price() const {
  if (points.empty()) return 0.0;
  if (points.size() == 1) return points.front().price;
  return mean_over(points.front().time, points.back().time);
}

double PriceTrace::first_crossing_above(double t, double bid) const {
  if (points.empty()) return kInf;
  if (price_at(t) > bid) return 0.0;
  for (std::size_t i = segment_index(points, t) + 1; i < points.size(); ++i) {
    if (points[i].price > bid) return points[i].time - t;
  }
  return kInf;
}

double PriceTrace::upward_crossings_per_hour(double bid) const {
  if (points.size() < 2) return 0.0;
  const double span_hours =
      (points.back().time - points.front().time) / 3600.0;
  if (span_hours <= 0.0) return 0.0;
  std::uint64_t crossings = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i - 1].price <= bid && points[i].price > bid) ++crossings;
  }
  return static_cast<double>(crossings) / span_hours;
}

double PriceTrace::min_price() const {
  double lo = kInf;
  for (const PricePoint& p : points) lo = std::min(lo, p.price);
  return points.empty() ? 0.0 : lo;
}

double PriceTrace::max_price() const {
  double hi = 0.0;
  for (const PricePoint& p : points) hi = std::max(hi, p.price);
  return hi;
}

const PriceTrace* PriceTraceSet::find(perf::InstanceFamily family,
                                      int vcpus) const {
  for (const PriceTrace& trace : traces) {
    if (trace.family == family && trace.vcpus == vcpus) return &trace;
  }
  return nullptr;
}

std::string write_price_traces(const PriceTraceSet& set) {
  std::string out = "edacloud-price-trace v1\n";
  for (const PriceTrace& trace : set.traces) {
    out += "trace ";
    out += perf::to_string(trace.family);
    out += ' ';
    out += std::to_string(trace.vcpus);
    out += '\n';
    for (const PricePoint& point : trace.points) {
      out += format_double(point.time);
      out += " ";
      out += format_double(point.price);
      out += "\n";
    }
  }
  return out;
}

PriceTraceSet parse_price_traces(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "edacloud-price-trace v1") {
    throw std::invalid_argument(
        "price trace: missing 'edacloud-price-trace v1' header");
  }
  PriceTraceSet set;
  PriceTrace* current = nullptr;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "trace") {
      std::string family_name;
      int vcpus = 0;
      if (!(fields >> family_name >> vcpus) || vcpus <= 0) {
        throw std::invalid_argument(
            "price trace: bad 'trace <family> <vcpus>' at line " +
            std::to_string(line_no));
      }
      PriceTrace trace;
      trace.family = family_from_name(family_name);
      trace.vcpus = vcpus;
      if (set.find(trace.family, trace.vcpus) != nullptr) {
        throw std::invalid_argument(
            "price trace: duplicate trace for " + family_name + "-" +
            std::to_string(vcpus) + "vcpu at line " + std::to_string(line_no));
      }
      set.traces.push_back(trace);
      current = &set.traces.back();
      continue;
    }
    if (current == nullptr) {
      throw std::invalid_argument(
          "price trace: point before any 'trace' section at line " +
          std::to_string(line_no));
    }
    PricePoint point;
    std::istringstream row(line);
    if (!(row >> point.time >> point.price)) {
      throw std::invalid_argument("price trace: bad point at line " +
                                  std::to_string(line_no));
    }
    if (point.price <= 0.0) {
      throw std::invalid_argument("price trace: price must be > 0 at line " +
                                  std::to_string(line_no));
    }
    if (!current->points.empty() &&
        point.time <= current->points.back().time) {
      throw std::invalid_argument(
          "price trace: times must be strictly ascending at line " +
          std::to_string(line_no));
    }
    current->points.push_back(point);
  }
  for (const PriceTrace& trace : set.traces) {
    if (trace.points.empty()) {
      throw std::invalid_argument(
          "price trace: empty trace for " +
          perf::vm_label(trace.family, trace.vcpus));
    }
  }
  if (set.traces.empty()) {
    throw std::invalid_argument("price trace: no trace sections");
  }
  return set;
}

PriceTraceSet load_price_traces(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read price trace: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_price_traces(buffer.str());
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string(error.what()) + " (" + path + ")");
  }
}

PriceTraceSet generate_price_traces(const PriceTraceGenConfig& config) {
  if (config.step_seconds <= 0.0 || config.duration_seconds <= 0.0) {
    throw std::invalid_argument(
        "price trace generation: step and duration must be > 0");
  }
  if (config.floor_price <= 0.0 || config.cap_price < config.floor_price) {
    throw std::invalid_argument(
        "price trace generation: need 0 < floor <= cap");
  }
  PriceTraceSet set;
  int shape_index = 0;
  for (const perf::InstanceFamily family :
       {perf::InstanceFamily::kGeneralPurpose,
        perf::InstanceFamily::kMemoryOptimized,
        perf::InstanceFamily::kComputeOptimized}) {
    for (const int vcpus : perf::kVcpuOptions) {
      // Each shape owns a salted splitmix stream, so the set is a pure
      // function of (config) and shapes never alias each other's draws.
      std::uint64_t state =
          config.seed ^ ((101 + static_cast<std::uint64_t>(shape_index)) *
                         0x9E3779B97F4A7C15ULL);
      util::Rng rng(util::splitmix64(state));
      ++shape_index;

      PriceTrace trace;
      trace.family = family;
      trace.vcpus = vcpus;
      double price = std::clamp(config.start_price, config.floor_price,
                                config.cap_price);
      double spike_until = -1.0;
      for (double t = 0.0; t <= config.duration_seconds;
           t += config.step_seconds) {
        if (t > 0.0) {
          // Log-space random walk keeps the price positive and makes the
          // drift multiplicative, clamped into [floor, cap].
          price = std::clamp(
              price * std::exp(config.drift_sigma * rng.next_gaussian()),
              config.floor_price, config.cap_price);
        }
        const bool spike_roll = config.spike_probability > 0.0 &&
                                rng.next_bool(config.spike_probability);
        if (spike_roll && t >= spike_until) {
          spike_until = t + config.spike_duration_seconds;
        }
        const double quoted =
            t < spike_until
                ? std::min(config.cap_price, price * config.spike_factor)
                : price;
        if (trace.points.empty() || quoted != trace.points.back().price) {
          trace.points.push_back({t, quoted});
        }
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

}  // namespace edacloud::market
