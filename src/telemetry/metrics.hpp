// Campaign metrics registry: counters, gauges, fixed-bucket histograms.
//
// The paper's analyses need more than an end-of-run tally: throughput and
// outcome mix while a 90k-injection campaign runs, trial-latency and
// watchdog-behaviour distributions afterwards. The registry is the single
// sink the supervisor, the campaign loop, and phi::Counters feed; the live
// progress emitter and the --metrics-out JSON snapshot both read it.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime (values live in node-based maps), so hot paths hold a
// pointer and never repeat the name lookup. All mutation is relaxed
// atomics: exact totals matter, cross-metric ordering does not.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace phifi::telemetry {

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: observations land in the first bucket whose
/// upper edge is >= the value; values above the last edge land in the
/// overflow bucket. Edges are set at creation and never change, so
/// observe() is lock-free.
class Histogram {
 public:
  /// `upper_edges` must be strictly ascending and non-empty.
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double value);

  [[nodiscard]] const std::vector<double>& upper_edges() const {
    return edges_;
  }
  /// Bucket i counts observations in (edges[i-1], edges[i]]; the last
  /// index (== upper_edges().size()) is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t bucket_total() const { return edges_.size() + 1; }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

 private:
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  /// Get-or-create by name. The returned reference stays valid for the
  /// registry's lifetime. Re-requesting an existing histogram ignores the
  /// edges argument (first creation wins).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_edges);

  /// Lookup without creating; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name) const;

  /// Point-in-time JSON snapshot:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"upper_edges": [...], "counts": [...],
  ///                          "count": n, "sum": s, "mean": m}, ...}}
  [[nodiscard]] util::json::Value snapshot() const;

  /// Prometheus / OpenMetrics text exposition of the same state, suitable
  /// for the node-exporter textfile collector. Names are prefixed with
  /// `phifi_` and sanitized (every non-[a-zA-Z0-9_] becomes `_`); counters
  /// get the `_total` suffix; histograms render *cumulative* `_bucket`
  /// series with `le` labels (the internal per-bucket counts are
  /// disjoint), plus `_sum` and `_count`. Each family carries `# HELP` and
  /// `# TYPE` lines and the document ends with `# EOF`.
  [[nodiscard]] std::string render_openmetrics() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Canonical latency bucket edges (milliseconds), 1ms..30s, roughly
/// logarithmic — shared by trial latency and watchdog metrics so
/// dashboards can overlay them.
std::vector<double> default_latency_edges_ms();

/// Bucket edges (milliseconds) for the watchdog poll-interval histogram;
/// finer at the sub-millisecond end, where completion-byte wakes land,
/// up to the 10ms watchdog tick and beyond.
std::vector<double> poll_interval_edges_ms();

}  // namespace phifi::telemetry
