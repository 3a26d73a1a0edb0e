#include "df3/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace df3::util {

double StreamingStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

constexpr double kGamma =
    (1.0 + PercentileSampler::kRelativeError) / (1.0 - PercentileSampler::kRelativeError);
const double kLnGamma = std::log(kGamma);
/// Samples below this share the zero bucket (answered as 0, then clamped).
constexpr double kZeroThreshold = 1e-9;

std::int32_t key_of(double x) {
  return static_cast<std::int32_t>(std::ceil(std::log(x) / kLnGamma));
}

/// Bucket `key` covers (gamma^(key-1), gamma^key]; this point is within
/// kRelativeError of every value in it.
double value_of(std::int32_t key) {
  return 2.0 * std::exp(static_cast<double>(key) * kLnGamma) / (kGamma + 1.0);
}

}  // namespace

void PercentileSampler::add(double x) {
  if (!(x >= 0.0) || !std::isfinite(x)) {
    throw std::invalid_argument("PercentileSampler: sample must be finite and >= 0");
  }
  summary_.add(x);
  if (x < kZeroThreshold) {
    ++zero_count_;
    return;
  }
  const std::int32_t key = key_of(x);
  cover(key, key);
  ++counts_[static_cast<std::size_t>(key - min_key_)];
}

void PercentileSampler::cover(std::int32_t lo, std::int32_t hi) {
  if (counts_.empty()) {
    min_key_ = lo;
    counts_.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    return;
  }
  if (lo < min_key_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(min_key_ - lo), 0);
    min_key_ = lo;
  }
  const auto need = static_cast<std::size_t>(hi - min_key_) + 1;
  if (need > counts_.size()) counts_.resize(need, 0);
}

double PercentileSampler::percentile(double p) const {
  if (empty()) return 0.0;
  if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile: p outside [0,100]");
  if (p == 0.0) return min();
  if (p == 100.0) return max();
  // The order statistic at 0-based index floor(p/100 * (n-1)) answers.
  const auto target =
      static_cast<std::uint64_t>((p / 100.0) * static_cast<double>(count() - 1));
  double estimate = 0.0;  // the zero bucket's value
  std::uint64_t seen = zero_count_;
  for (std::size_t i = 0; seen <= target && i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) estimate = value_of(min_key_ + static_cast<std::int32_t>(i));
  }
  return std::clamp(estimate, min(), max());
}

void PercentileSampler::merge(const PercentileSampler& other) {
  summary_.merge(other.summary_);
  zero_count_ += other.zero_count_;
  if (other.counts_.empty()) return;
  const auto n = other.counts_.size();
  cover(other.min_key_, other.min_key_ + static_cast<std::int32_t>(n) - 1);
  const auto offset = static_cast<std::size_t>(other.min_key_ - min_key_);
  for (std::size_t i = 0; i < n; ++i) counts_[offset + i] += other.counts_[i];
}

void PercentileSampler::clear() {
  summary_ = StreamingStats{};
  zero_count_ = 0;
  counts_.clear();
}

double TimeWeightedValue::mean_until(double t) const {
  if (!started_ || t <= first_t_) return started_ ? last_value_ : 0.0;
  return integral_until(t) / (t - first_t_);
}

double TimeWeightedValue::integral_until(double t) const {
  if (!started_) return 0.0;
  if (t < last_t_) throw std::invalid_argument("TimeWeightedValue: query before last record");
  return weighted_sum_ + last_value_ * (t - last_t_);
}

double TimeSeries::mean_in_window(double t0, double t1) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] >= t0 && times[i] < t1) {
      sum += values[i];
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

LinearFit fit_linear(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size()) throw std::invalid_argument("fit_linear: size mismatch");
  if (xs.size() < 2) throw std::invalid_argument("fit_linear: need at least 2 points");
  const double n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  LinearFit fit;
  fit.n = xs.size();
  if (sxx == 0.0) {  // vertical data: fall back to the mean predictor
    fit.intercept = my;
    fit.slope = 0.0;
    fit.r_squared = 0.0;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const auto fit = fit_linear(xs, ys);
  const double sign = fit.slope >= 0.0 ? 1.0 : -1.0;
  return sign * std::sqrt(fit.r_squared);
}

}  // namespace df3::util
