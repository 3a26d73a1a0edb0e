#include "df3/core/heat_regulator.hpp"

#include <stdexcept>

namespace df3::core {

HeatRegulator::HeatRegulator(RegulatorConfig config) : config_(config) {
  if (config_.demand_epsilon_w < 0.0) {
    throw std::invalid_argument("HeatRegulator: negative demand epsilon");
  }
}

double HeatRegulator::relative_error() const {
  if (requested_.value() <= 0.0) return 0.0;
  return abs_error_.value() / requested_.value();
}

}  // namespace df3::core
