#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace edacloud::obs {

namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string labels_csv(const Labels& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ";";
    out += labels[i].first + "=" + labels[i].second;
  }
  return out;
}

}  // namespace

void HistogramMetric::observe(double value) {
  if (std::isnan(value)) return;  // mirrors util::Histogram::add
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  bins_.add(value);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

std::string Registry::key(std::string_view name, const Labels& labels) {
  std::string out(name);
  const Labels ordered = sorted(labels);
  out += "{";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (i > 0) out += ",";
    out += ordered[i].first + "=" + ordered[i].second;
  }
  out += "}";
  return out;
}

Registry::Entry& Registry::intern(Kind kind, std::string_view name,
                                  const Labels& labels, double lo, double hi,
                                  std::size_t bins) {
  const std::string id = key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.name = std::string(name);
    entry.labels = sorted(labels);
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<HistogramMetric>(lo, hi, bins);
        break;
    }
    it = entries_.emplace(id, std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metric '" + id +
                           "' already registered with a different type");
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  return *intern(Kind::kCounter, name, labels, 0, 0, 0).counter;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  return *intern(Kind::kGauge, name, labels, 0, 0, 0).gauge;
}

HistogramMetric& Registry::histogram(std::string_view name,
                                     const Labels& labels, double lo,
                                     double hi, std::size_t bins) {
  return *intern(Kind::kHistogram, name, labels, lo, hi, bins).histogram;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

const Counter* Registry::find_counter(std::string_view name,
                                      const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key(name, labels));
  return it == entries_.end() ? nullptr : it->second.counter.get();
}

const Gauge* Registry::find_gauge(std::string_view name,
                                  const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key(name, labels));
  return it == entries_.end() ? nullptr : it->second.gauge.get();
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [id, entry] : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":";
    util::append_json_string(out, entry.name);
    out += ",\"labels\":{";
    for (std::size_t i = 0; i < entry.labels.size(); ++i) {
      if (i > 0) out += ",";
      util::append_json_string(out, entry.labels[i].first);
      out += ":";
      util::append_json_string(out, entry.labels[i].second);
    }
    out += "},";
    switch (entry.kind) {
      case Kind::kCounter:
        out += "\"type\":\"counter\",\"value\":";
        util::append_json_number(out,
                                 static_cast<double>(entry.counter->value()));
        break;
      case Kind::kGauge:
        out += "\"type\":\"gauge\",\"value\":";
        util::append_json_number(out, entry.gauge->value());
        break;
      case Kind::kHistogram: {
        const HistogramMetric& h = *entry.histogram;
        out += "\"type\":\"histogram\",\"count\":";
        util::append_json_number(out, static_cast<double>(h.count()));
        out += ",\"sum\":";
        util::append_json_number(out, h.sum());
        out += ",\"min\":";
        util::append_json_number(out, h.min());
        out += ",\"max\":";
        util::append_json_number(out, h.max());
        out += ",\"p50\":";
        util::append_json_number(out, h.quantile(0.50));
        out += ",\"p95\":";
        util::append_json_number(out, h.quantile(0.95));
        out += ",\"p99\":";
        util::append_json_number(out, h.quantile(0.99));
        break;
      }
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string Registry::to_csv() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out =
      "name,labels,type,value,count,sum,min,max,p50,p95,p99\n";
  for (const auto& [id, entry] : entries_) {
    // RFC 4180 fields: the labels are always quoted, the name only when
    // it needs to be.
    std::string row = util::csv_field(entry.name) + "," +
                      util::csv_field(labels_csv(entry.labels),
                                      /*always_quote=*/true) +
                      ",";
    switch (entry.kind) {
      case Kind::kCounter:
        row += "counter,";
        util::append_json_number(row,
                                 static_cast<double>(entry.counter->value()));
        row += ",,,,,,,";
        break;
      case Kind::kGauge:
        row += "gauge,";
        util::append_json_number(row, entry.gauge->value());
        row += ",,,,,,,";
        break;
      case Kind::kHistogram: {
        const HistogramMetric& h = *entry.histogram;
        row += "histogram,,";
        util::append_json_number(row, static_cast<double>(h.count()));
        row += ",";
        util::append_json_number(row, h.sum());
        row += ",";
        util::append_json_number(row, h.min());
        row += ",";
        util::append_json_number(row, h.max());
        row += ",";
        util::append_json_number(row, h.quantile(0.50));
        row += ",";
        util::append_json_number(row, h.quantile(0.95));
        row += ",";
        util::append_json_number(row, h.quantile(0.99));
        break;
      }
    }
    out += row + "\n";
  }
  return out;
}

bool Registry::write(const std::string& path) const {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  std::ofstream file(path);
  file << (csv ? to_csv() : to_json());
  if (!file) {
    EDACLOUD_WARN << "metrics: cannot write " << path;
    return false;
  }
  return true;
}

void Registry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace edacloud::obs
