#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace phifi::telemetry {

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)) {
  if (edges_.empty()) {
    throw std::runtime_error("Histogram: needs at least one bucket edge");
  }
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::runtime_error("Histogram: edges must be strictly ascending");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(edges_.size() + 1);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  const std::size_t index =
      static_cast<std::size_t>(it - edges_.begin());  // overflow -> size()
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_edges) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_edges));
  }
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

util::json::Value MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::json::Value root = util::json::Value::object();
  util::json::Value counters = util::json::Value::object();
  for (const auto& [name, counter] : counters_) {
    counters[name] = counter->value();
  }
  util::json::Value gauges = util::json::Value::object();
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = gauge->value();
  }
  util::json::Value histograms = util::json::Value::object();
  for (const auto& [name, histogram] : histograms_) {
    util::json::Value entry = util::json::Value::object();
    util::json::Value edges = util::json::Value::array();
    for (const double edge : histogram->upper_edges()) edges.push_back(edge);
    util::json::Value counts = util::json::Value::array();
    for (std::size_t i = 0; i < histogram->bucket_total(); ++i) {
      counts.push_back(histogram->bucket_count(i));
    }
    entry["upper_edges"] = std::move(edges);
    entry["counts"] = std::move(counts);
    entry["count"] = histogram->count();
    entry["sum"] = histogram->sum();
    entry["mean"] = histogram->mean();
    histograms[name] = std::move(entry);
  }
  root["counters"] = std::move(counters);
  root["gauges"] = std::move(gauges);
  root["histograms"] = std::move(histograms);
  return root;
}

namespace {

/// `phifi_` + the name with every non-[a-zA-Z0-9_] byte replaced by `_`
/// (dots and dashes in the registry's dotted names are not legal in the
/// exposition format). The prefix guarantees a legal first character.
std::string openmetrics_name(const std::string& name) {
  std::string out = "phifi_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string openmetrics_number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void render_family(std::string& out, const std::string& name,
                   const std::string& type, const std::string& help) {
  out += "# HELP " + name + " " + help + "\n";
  out += "# TYPE " + name + " " + type + "\n";
}

}  // namespace

std::string MetricsRegistry::render_openmetrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string om = openmetrics_name(name) + "_total";
    render_family(out, om, "counter", "phifi counter " + name);
    out += om + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string om = openmetrics_name(name);
    render_family(out, om, "gauge", "phifi gauge " + name);
    out += om + " " + openmetrics_number(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string om = openmetrics_name(name);
    render_family(out, om, "histogram", "phifi histogram " + name);
    // The exposition format wants cumulative buckets; the registry stores
    // disjoint per-bucket counts.
    std::uint64_t cumulative = 0;
    const std::vector<double>& edges = histogram->upper_edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      cumulative += histogram->bucket_count(i);
      out += om + "_bucket{le=\"" + openmetrics_number(edges[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += histogram->bucket_count(edges.size());  // overflow bucket
    out += om + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += om + "_sum " + openmetrics_number(histogram->sum()) + "\n";
    out += om + "_count " + std::to_string(histogram->count()) + "\n";
  }
  out += "# EOF\n";
  return out;
}

std::vector<double> default_latency_edges_ms() {
  return {1.0,    2.0,    5.0,    10.0,   20.0,    50.0,   100.0,
          200.0,  500.0,  1000.0, 2000.0, 5000.0,  10000.0, 30000.0};
}

std::vector<double> poll_interval_edges_ms() {
  return {0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0};
}

}  // namespace phifi::telemetry
