#pragma once
/// \file metrics.hpp
/// \brief Central registry of named counters / gauges / histograms
///        (util::PercentileSampler sketches) with periodic snapshots into
///        time series.
///
/// The registry is the low-frequency half of the obs layer: instruments are
/// registered once (by the platform, regulator, ledger, and ladder feeds at
/// setup or on first use) and handle-addressed afterwards, so the per-tick
/// feed path never hashes a metric name. `snapshot(t)` appends one row per
/// instrument to an in-memory time series that the exporters (obs/export.hpp)
/// turn into CSV or JSON.
///
/// Everything here is observation-only and deterministic: instruments store
/// plain doubles/uint64s, ids are assigned in registration order, and
/// snapshots happen at simulated-time tick boundaries.

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "df3/util/stats.hpp"

namespace df3::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point sample.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Handle to a registered instrument. Opaque index into the registry.
struct MetricId {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const { return index != UINT32_MAX; }
};

/// One snapshot row: instrument values at a simulated timestamp. Counter
/// snapshots store the cumulative value; histogram snapshots store count,
/// mean and two tail quantiles so rate/latency trajectories can be plotted
/// straight from the CSV.
struct MetricSample {
  double t_s = 0.0;
  double value = 0.0;   ///< counter cumulative / gauge level / histogram mean
  double p50 = 0.0;     ///< histograms only
  double p99 = 0.0;     ///< histograms only
  std::uint64_t count = 0;  ///< histograms only
};

class MetricRegistry {
 public:
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name);

  Counter& at_counter(MetricId id) { return counters_[slot(id, MetricKind::kCounter)]; }
  Gauge& at_gauge(MetricId id) { return gauges_[slot(id, MetricKind::kGauge)]; }
  util::PercentileSampler& at_histogram(MetricId id) {
    return histograms_[slot(id, MetricKind::kHistogram)];
  }

  /// Append one row per instrument at simulated time `t_s`.
  void snapshot(double t_s);

  struct Instrument {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;  ///< index into the per-kind storage vector
    std::vector<MetricSample> series;
  };

  [[nodiscard]] const std::vector<Instrument>& instruments() const { return instruments_; }
  [[nodiscard]] std::size_t size() const { return instruments_.size(); }
  [[nodiscard]] std::size_t snapshots() const { return snapshots_; }

 private:
  MetricId intern(std::string_view name, MetricKind kind);
  [[nodiscard]] std::uint32_t slot(MetricId id, [[maybe_unused]] MetricKind kind) const {
    assert(id.index < instruments_.size());
    assert(instruments_[id.index].kind == kind);
    return instruments_[id.index].slot;
  }

  std::vector<Instrument> instruments_;
  std::unordered_map<std::string, std::uint32_t> by_name_;
  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<util::PercentileSampler> histograms_;
  std::size_t snapshots_ = 0;
};

}  // namespace df3::obs
