#pragma once
/// \file stats.hpp
/// \brief Streaming summary statistics, a bounded quantile sketch, and
///        time-weighted accumulators used by metric collectors.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace df3::util {

/// Welford online mean/variance accumulator. O(1) memory, numerically stable.
class StreamingStats {
 public:
  // Header-inline: every PercentileSampler sample (flow metrics, registry
  // histograms, the SLO window) passes through here, once per request.
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const StreamingStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Bounded-memory quantile sketch with 1 % relative error (DDSketch,
/// Masson et al., VLDB 2019). A positive sample x lands in bucket
/// key = ceil(ln x / ln gamma), gamma = (1 + alpha) / (1 - alpha); samples
/// below 1e-9 share one zero bucket. Counts live in a dense vector spanning
/// the observed key range, so memory grows with the log-range of the data,
/// never with the sample count, and two sketches merge by adding counts (a
/// merged sketch answers bit-identically to one fed everything). The
/// StreamingStats summary of the same data rides along, so min/max/mean and
/// percentile(0)/percentile(100) stay exact.
///
/// This is the one quantile type of the codebase: FlowMetrics, the metric
/// registry histograms, the SLO window, and df3trace all use it.
class PercentileSampler {
 public:
  static constexpr double kRelativeError = 0.01;

  /// Throws std::invalid_argument for negative, NaN or infinite samples.
  void add(double x);

  [[nodiscard]] std::size_t count() const { return summary_.count(); }
  [[nodiscard]] bool empty() const { return summary_.count() == 0; }

  /// Estimate of the sample at rank p/100 * (count - 1), within
  /// kRelativeError of it and clamped to [min, max]; p = 0 and p = 100 are
  /// the exact extrema. `p` in [0, 100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  [[nodiscard]] const StreamingStats& summary() const { return summary_; }
  [[nodiscard]] double mean() const { return summary_.mean(); }
  [[nodiscard]] double max() const { return summary_.max(); }
  [[nodiscard]] double min() const { return summary_.min(); }

  /// Dense positive buckets currently held (the zero bucket excluded): at
  /// most ceil(ln(max/min) / ln gamma) + 1 for positive data.
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }

  void merge(const PercentileSampler& other);
  /// Forget every sample; keeps the bucket storage for reuse.
  void clear();

 private:
  /// Grow the dense range so that it covers keys [lo, hi].
  void cover(std::int32_t lo, std::int32_t hi);

  StreamingStats summary_;
  std::uint64_t zero_count_ = 0;
  std::int32_t min_key_ = 0;           ///< key of counts_[0]
  std::vector<std::uint64_t> counts_;  ///< counts_[i] holds key min_key_ + i
};

/// Time-weighted mean of a piecewise-constant signal, e.g. "average number
/// of busy workers" or "mean room temperature". Call `record(t, value)` each
/// time the signal changes; queries integrate the step function.
class TimeWeightedValue {
 public:
  /// Record that the signal takes `value` from time `t` onwards.
  /// Times must be non-decreasing. Header-inline: called twice per building
  /// per physics tick by the comfort collectors. A second record at the
  /// same time leaves the first one with zero weight.
  void record(double t, double value) {
    if (!started_) {
      started_ = true;
      first_t_ = last_t_ = t;
      last_value_ = value;
      return;
    }
    if (t < last_t_) throw std::invalid_argument("TimeWeightedValue: time went backwards");
    weighted_sum_ += last_value_ * (t - last_t_);
    last_t_ = t;
    last_value_ = value;
  }

  /// Close the observation window at time `t` and return the time-weighted
  /// mean over [first_record, t]. Does not mutate state.
  [[nodiscard]] double mean_until(double t) const;

  /// Time integral of the signal over [first_record, t]
  /// (e.g. watt-signal -> joules).
  [[nodiscard]] double integral_until(double t) const;

  [[nodiscard]] bool empty() const { return !started_; }
  [[nodiscard]] double last_value() const { return last_value_; }

 private:
  bool started_ = false;
  double first_t_ = 0.0;
  double last_t_ = 0.0;
  double last_value_ = 0.0;
  double weighted_sum_ = 0.0;  // integral of value dt up to last_t_
};

/// Fixed set of (time, value) samples of a continuous signal, for exporting
/// series (monthly temperature, capacity per week, ...).
struct TimeSeries {
  std::vector<double> times;
  std::vector<double> values;

  void add(double t, double v) {
    times.push_back(t);
    values.push_back(v);
  }
  [[nodiscard]] std::size_t size() const { return times.size(); }
  [[nodiscard]] bool empty() const { return times.empty(); }

  /// Mean of values whose time lies in [t0, t1).
  [[nodiscard]] double mean_in_window(double t0, double t1) const;
};

/// Ordinary least squares fit y = a + b*x with goodness-of-fit. Used by the
/// thermosensitivity analysis (heat demand vs outdoor temperature).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
  std::size_t n = 0;

  [[nodiscard]] double predict(double x) const { return intercept + slope * x; }
};

/// Fit OLS over paired samples. Requires xs.size() == ys.size() >= 2.
[[nodiscard]] LinearFit fit_linear(const std::vector<double>& xs, const std::vector<double>& ys);

/// Pearson correlation of paired samples; 0 if degenerate.
[[nodiscard]] double pearson(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace df3::util
