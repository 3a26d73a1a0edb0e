#include "df3/workload/arrivals.hpp"

#include <cmath>
#include <stdexcept>

#include "df3/thermal/calendar.hpp"

namespace df3::workload {

namespace {
// Guards state what must hold, so NaN (every comparison false) and inf fail.
bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }
bool non_negative_finite(double x) { return x >= 0.0 && std::isfinite(x); }
void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}
}  // namespace

PoissonArrivals::PoissonArrivals(double rate_per_s) : rate_(rate_per_s) {
  require(positive_finite(rate_), "PoissonArrivals: rate must be positive and finite");
}

sim::Time PoissonArrivals::next_after(sim::Time t, util::RngStream& rng) {
  return t + rng.exponential(rate_);
}

MmppArrivals::MmppArrivals(double rate_low, double rate_high, double mean_low_sojourn_s,
                           double mean_high_sojourn_s)
    : rate_low_(rate_low),
      rate_high_(rate_high),
      mean_low_s_(mean_low_sojourn_s),
      mean_high_s_(mean_high_sojourn_s) {
  require(non_negative_finite(rate_low_) && positive_finite(rate_high_) && rate_low_ <= rate_high_,
          "MmppArrivals: need finite rates, 0 <= rate_low <= rate_high, rate_high > 0");
  require(positive_finite(mean_low_s_) && positive_finite(mean_high_s_),
          "MmppArrivals: sojourn means must be positive and finite");
}

void MmppArrivals::advance_state(sim::Time t, util::RngStream& rng) {
  if (!initialised_) {
    initialised_ = true;
    in_high_ = false;
    state_until_ = t + rng.exponential(1.0 / mean_low_s_);
  }
  while (state_until_ <= t) {
    in_high_ = !in_high_;
    state_until_ += rng.exponential(1.0 / (in_high_ ? mean_high_s_ : mean_low_s_));
  }
}

sim::Time MmppArrivals::next_after(sim::Time t, util::RngStream& rng) {
  // Piecewise-homogeneous sampling: draw within the current state's
  // remaining sojourn; on overrun, continue from the state switch.
  sim::Time cur = t;
  for (;;) {
    advance_state(cur, rng);
    const double rate = in_high_ ? rate_high_ : rate_low_;
    if (rate <= 0.0) {
      cur = state_until_;
      continue;
    }
    const double gap = rng.exponential(rate);
    if (cur + gap <= state_until_) return cur + gap;
    cur = state_until_;
  }
}

double MmppArrivals::mean_rate() const {
  const double total = mean_low_s_ + mean_high_s_;
  return (rate_low_ * mean_low_s_ + rate_high_ * mean_high_s_) / total;
}

FixedIntervalArrivals::FixedIntervalArrivals(double period_s, double phase_s)
    : period_(period_s), phase_(phase_s) {
  require(positive_finite(period_), "FixedIntervalArrivals: period must be positive and finite");
  require(non_negative_finite(phase_), "FixedIntervalArrivals: phase must be >= 0 and finite");
}

sim::Time FixedIntervalArrivals::next_after(sim::Time t, util::RngStream&) {
  // The first tick at or after `t` (strictly after if t is exactly a tick).
  const double k = std::max(0.0, std::floor((t - phase_) / period_) + 1.0);
  const sim::Time next = phase_ + k * period_;
  // (t - phase) / period can round just below a whole number of periods
  // (period 60, phase 4.1, t 64.1), which makes `next` equal t itself; the
  // calendar would then re-fire that instant forever.
  return next > t ? next : phase_ + (k + 1.0) * period_;
}

ModulatedArrivals::ModulatedArrivals(std::function<double(sim::Time)> rate_fn, double rate_max,
                                     double mean_rate_hint)
    : rate_fn_(std::move(rate_fn)), rate_max_(rate_max), mean_rate_hint_(mean_rate_hint) {
  require(static_cast<bool>(rate_fn_), "ModulatedArrivals: empty rate function");
  require(positive_finite(rate_max_), "ModulatedArrivals: rate_max must be positive and finite");
  require(non_negative_finite(mean_rate_hint_), "ModulatedArrivals: mean rate must be >= 0");
}

sim::Time ModulatedArrivals::next_after(sim::Time t, util::RngStream& rng) {
  // Lewis-Shedler thinning against the dominating constant rate_max.
  sim::Time cur = t;
  for (;;) {
    cur += rng.exponential(rate_max_);
    const double r = rate_fn_(cur);
    if (r < 0.0 || r > rate_max_ * (1.0 + 1e-9)) {
      throw std::logic_error("ModulatedArrivals: rate function escaped [0, rate_max]");
    }
    if (rng.uniform01() * rate_max_ < r) return cur;
  }
}

std::unique_ptr<ModulatedArrivals> business_hours_arrivals(double base_rate,
                                                           double business_factor) {
  require(positive_finite(base_rate) && business_factor >= 1.0 && std::isfinite(business_factor),
          "business_hours_arrivals: need finite base_rate > 0, finite factor >= 1");
  auto fn = [base_rate, business_factor](sim::Time t) {
    return thermal::is_business_hours(t) ? base_rate * business_factor : base_rate;
  };
  // 50 h of 168 are business hours.
  const double mean = base_rate * ((118.0 + 50.0 * business_factor) / 168.0);
  return std::make_unique<ModulatedArrivals>(fn, base_rate * business_factor, mean);
}

std::unique_ptr<ModulatedArrivals> diurnal_arrivals(double base_rate, double depth,
                                                    double peak_hour) {
  require(positive_finite(base_rate) && depth >= 0.0 && depth <= 1.0 && std::isfinite(peak_hour),
          "diurnal_arrivals: need finite base_rate > 0, depth in [0,1], finite peak_hour");
  constexpr double kPi = 3.14159265358979323846;
  auto fn = [base_rate, depth, peak_hour](sim::Time t) {
    const double h = thermal::hour_of_day(t);
    return base_rate * (1.0 + depth * std::cos(2.0 * kPi * (h - peak_hour) / 24.0));
  };
  return std::make_unique<ModulatedArrivals>(fn, base_rate * (1.0 + depth), base_rate);
}

}  // namespace df3::workload
