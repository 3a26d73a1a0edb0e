#include "df3/thermal/room.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace df3::thermal {

namespace {
/// False for zero, negative, NaN and infinite values.
bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }
}  // namespace

Room::Room(RoomParams params, util::Celsius initial_temperature)
    : params_(params), temp_(initial_temperature) {
  if (!positive_finite(params_.resistance_k_per_w) ||
      !positive_finite(params_.capacitance_j_per_k)) {
    throw std::invalid_argument("Room: R and C must be positive and finite");
  }
}

util::Celsius Room::equilibrium(util::Watts q_heat, util::Celsius t_out) const {
  const double q_total = q_heat.value() + params_.internal_gains.value();
  return util::Celsius{t_out.value() + q_total * params_.resistance_k_per_w};
}

void Room::advance(util::Seconds dt, util::Watts q_heat, util::Celsius t_out) {
  if (dt.value() < 0.0) throw std::invalid_argument("Room::advance: negative dt");
  if (dt.value() == 0.0) return;
  // Exact solution of C dT/dt = (T_out - T)/R + Q for constant inputs:
  // exponential relaxation toward the equilibrium temperature.
  const util::Celsius eq = equilibrium(q_heat, t_out);
  if (dt.value() != decay_dt_) {
    decay_ = std::exp(-dt.value() / params_.tau_s());
    decay_dt_ = dt.value();
  }
  temp_ = util::Celsius{eq.value() + (temp_.value() - eq.value()) * decay_};
}

util::Watts Room::holding_power(util::Celsius target, util::Celsius t_out) const {
  const double needed =
      (target.value() - t_out.value()) / params_.resistance_k_per_w - params_.internal_gains.value();
  return util::Watts{std::max(0.0, needed)};
}

Room2R2C::Room2R2C(Room2R2CParams params, util::Celsius initial_temperature)
    : params_(params), t_air_(initial_temperature), t_env_(initial_temperature) {
  if (!positive_finite(params_.r_air_env_k_per_w) ||
      !positive_finite(params_.r_env_out_k_per_w) || !positive_finite(params_.c_air_j_per_k) ||
      !positive_finite(params_.c_env_j_per_k)) {
    throw std::invalid_argument("Room2R2C: all R and C must be positive and finite");
  }
  // Stability bound for explicit stepping: well below the fast (air) time
  // constant tau_air = R_ae * C_air. Depends only on the parameters, so it
  // is hoisted out of advance() entirely.
  const double tau_fast = params_.r_air_env_k_per_w * params_.c_air_j_per_k;
  max_step_ = std::max(1.0, tau_fast / 10.0);
}

util::Celsius Room2R2C::equilibrium(util::Watts q_heat, util::Celsius t_out) const {
  // In steady state the full heat flow crosses both resistances in series.
  const double q_total = q_heat.value() + params_.internal_gains.value();
  return util::Celsius{t_out.value() +
                       q_total * (params_.r_air_env_k_per_w + params_.r_env_out_k_per_w)};
}

util::Watts Room2R2C::holding_power(util::Celsius target, util::Celsius t_out) const {
  const double series_r = params_.r_air_env_k_per_w + params_.r_env_out_k_per_w;
  const double needed =
      (target.value() - t_out.value()) / series_r - params_.internal_gains.value();
  return util::Watts{std::max(0.0, needed)};
}

void Room2R2C::advance(util::Seconds dt, util::Watts q_heat, util::Celsius t_out) {
  if (dt.value() < 0.0) throw std::invalid_argument("Room2R2C::advance: negative dt");
  if (dt.value() != sched_dt_) {
    // Memoize the substep schedule by replaying the subtractive chain the
    // stepping loop used to run, so the float step sequence — and thus the
    // integrated trajectory — is reproduced bit-for-bit.
    double rem = dt.value();
    n_full_ = 0;
    while (rem > max_step_) {
      ++n_full_;
      rem -= max_step_;
    }
    h_last_ = rem;
    sched_dt_ = dt.value();
  }
  const double q_total = q_heat.value() + params_.internal_gains.value();
  const auto step = [&](double h) {
    const double flow_ae = (t_air_.value() - t_env_.value()) / params_.r_air_env_k_per_w;
    const double flow_eo = (t_env_.value() - t_out.value()) / params_.r_env_out_k_per_w;
    const double d_air = (q_total - flow_ae) / params_.c_air_j_per_k;
    const double d_env = (flow_ae - flow_eo) / params_.c_env_j_per_k;
    t_air_ = util::Celsius{t_air_.value() + h * d_air};
    t_env_ = util::Celsius{t_env_.value() + h * d_env};
  };
  for (std::size_t i = 0; i < n_full_; ++i) step(max_step_);
  if (h_last_ > 0.0) step(h_last_);
}

}  // namespace df3::thermal
