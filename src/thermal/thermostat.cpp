#include "df3/thermal/thermostat.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace df3::thermal {

HysteresisThermostat::HysteresisThermostat(util::Celsius target, util::KelvinDelta halfband,
                                           util::Watts rating)
    : target_(target), halfband_(halfband), rating_(rating) {
  const double band = halfband_.value();
  if (!(band >= 0.0 && std::isfinite(band))) {
    throw std::invalid_argument("HysteresisThermostat: band negative or not finite");
  }
  if (!(rating_.value() > 0.0 && std::isfinite(rating_.value()))) {
    throw std::invalid_argument("HysteresisThermostat: rating <= 0 or not finite");
  }
}

HeatDemand HysteresisThermostat::demand(util::Celsius room_temperature) {
  if (room_temperature.value() < target_.value() - halfband_.value()) {
    on_ = true;
  } else if (room_temperature.value() > target_.value() + halfband_.value()) {
    on_ = false;
  }
  return HeatDemand{on_ ? rating_ : util::Watts{0.0}, true};
}

ModulatingThermostat::ModulatingThermostat(util::Celsius target, double kp_w_per_k,
                                           util::Watts rating)
    : target_(target), kp_(kp_w_per_k), rating_(rating) {
  if (!(kp_ >= 0.0 && std::isfinite(kp_))) {
    throw std::invalid_argument("ModulatingThermostat: gain negative or not finite");
  }
  if (!(rating_.value() > 0.0 && std::isfinite(rating_.value()))) {
    throw std::invalid_argument("ModulatingThermostat: rating <= 0 or not finite");
  }
}

HeatDemand ModulatingThermostat::demand(util::Celsius room_temperature,
                                        util::Watts holding_power) const {
  const double error_k = target_.value() - room_temperature.value();
  const double raw = holding_power.value() + kp_ * error_k;
  return HeatDemand{util::Watts{std::clamp(raw, 0.0, rating_.value())}, true};
}

util::Celsius ComfortProfile::target_at_hour(double hour) const {
  const bool night = (night_start_hour > night_end_hour)
                         ? (hour >= night_start_hour || hour < night_end_hour)
                         : (hour >= night_start_hour && hour < night_end_hour);
  return night ? night_target : day_target;
}

}  // namespace df3::thermal
