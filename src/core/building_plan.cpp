#include "df3/core/platform.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

// Planning a building: every field of its config checked and everything
// its tick reads derived, with no platform state touched, so that
// add_building can commit it by appending only.

namespace df3::core {

Df3Platform::BuildingPlan Df3Platform::plan_building(const BuildingConfig& cfg) const {
  const auto reject = [](std::string_view field, const std::string& what) {
    return std::invalid_argument("add_building: " + std::string(field) + " " + what);
  };
  const auto require = [&](bool ok, std::string_view field, const char* what) {
    if (!ok) throw reject(field, what);
  };
  // Runs another part's check and returns what it returns, naming the
  // field in what it throws.
  const auto checked = [&](std::string_view field, auto&& check) {
    try {
      return check();
    } catch (const std::invalid_argument& e) {
      throw reject(field, std::string("rejected: ") + e.what());
    }
  };
  const auto finite = [&](std::string_view field, double v) {
    require(std::isfinite(v), field, "is not finite");
  };
  const auto positive = [&](std::string_view field, double v) {
    require(v > 0.0 && std::isfinite(v), field, "is not positive and finite");
  };
  const auto non_negative = [&](std::string_view field, double v) {
    require(v >= 0.0 && std::isfinite(v), field, "is negative or not finite");
  };
  const auto hour = [&](std::string_view field, double v) {
    require(v >= 0.0 && v <= 24.0, field, "is not an hour in [0, 24]");
  };

  require(cfg.rooms > 0, "rooms", "must be positive");
  checked("device_link", [&] { net::Network::check_link_profile(cfg.device_link); });
  checked("wifi_link", [&] { net::Network::check_link_profile(cfg.wifi_link); });
  checked("uplink", [&] { net::Network::check_link_profile(cfg.uplink); });
  checked("lan", [&] { net::Network::check_link_profile(cfg.lan); });
  checked("the platform's cluster config", [&] { Cluster::check_config(config_.cluster); });
  BuildingPlan plan;
  plan.fabric_gbps = cfg.lan.bandwidth.value() / 1e9;
  positive("lan bandwidth in Gbps", plan.fabric_gbps);
  plan.server = checked("server", [&] { return &hw::ServerModel::intern(cfg.server); });
  plan.servers = cfg.water_tank ? 1 : static_cast<std::size_t>(cfg.rooms);

  RoomModel& m = plan.model;
  m.comfort = cfg.comfort;
  finite("comfort.day_target", m.comfort.day_target.value());
  finite("comfort.night_target", m.comfort.night_target.value());
  hour("comfort.night_start_hour", m.comfort.night_start_hour);
  hour("comfort.night_end_hour", m.comfort.night_end_hour);
  finite("comfort.heating_cutoff_outdoor", m.comfort.heating_cutoff_outdoor.value());
  finite("initial_temperature", cfg.initial_temperature.value());
  m.kp_w_per_k = cfg.thermostat_gain_w_per_k;
  non_negative("thermostat_gain_w_per_k", m.kp_w_per_k);
  m.solar_peak_w = cfg.solar_gain_peak_w;
  non_negative("solar_gain_peak_w", m.solar_peak_w);
  m.daily_hot_water_l = cfg.daily_hot_water_l;
  non_negative("daily_hot_water_l", m.daily_hot_water_l);
  m.rating_w = cfg.server.rated_power().value();
  positive("server rated power", m.rating_w);
  m.dual_pipe = cfg.server.routing == hw::HeatRouting::kDualPipe;
  if (cfg.water_tank) {
    checked("water_tank", [&] { plan.tank.emplace(*cfg.water_tank, cfg.water_tank->setpoint); });
  } else if (cfg.high_fidelity_rooms) {
    const thermal::Room2R2CParams& p = cfg.room_2r2c;
    m.r2_max_step = checked("room_2r2c", [&] {
      return thermal::Room2R2C(p, cfg.initial_temperature).max_step_s();
    });
    finite("room_2r2c.internal_gains", p.internal_gains.value());
    m.high_fidelity = true;
    m.r2c = p;
    m.gains_w = p.internal_gains.value();
    m.hold_r = p.r_air_env_k_per_w + p.r_env_out_k_per_w;
    // Memoize the substep schedule for the fixed tick by replaying the
    // integrator's subtractive chain (bit-exact step sequence).
    double rem = config_.tick_s;
    while (rem > m.r2_max_step) {
      ++m.r2_n_full;
      rem -= m.r2_max_step;
    }
    m.r2_h_last = rem;
  } else {
    positive("room.resistance_k_per_w", cfg.room.resistance_k_per_w);
    positive("room.capacitance_j_per_k", cfg.room.capacitance_j_per_k);
    finite("room.internal_gains", cfg.room.internal_gains.value());
    m.gains_w = cfg.room.internal_gains.value();
    m.hold_r = cfg.room.resistance_k_per_w;
    m.r1_decay = std::exp(-config_.tick_s / cfg.room.tau_s());
  }
  if (grid_ && !cfg.grid_region.empty()) {
    plan.region = checked("grid_region", [&] { return grid_->region_index(cfg.grid_region); });
  }
  std::string node;
  for (std::size_t i = 0; i < 3 + plan.servers; ++i) {
    if (network_->has_node(building_node_name(node, cfg.name, plan.tank.has_value(), i))) {
      throw reject("name", "is taken: node " + node + " exists");
    }
  }
  return plan;
}

const std::string& Df3Platform::building_node_name(std::string& out, const std::string& building,
                                                   bool boiler, std::size_t i) {
  static constexpr const char* kFixed[] = {"/gw", "/dev", "/wifi"};
  out.assign(building);
  if (i < 3) return out.append(kFixed[i]);
  return out.append(boiler ? "/boiler" : "/srv" + std::to_string(i - 3));
}

}  // namespace df3::core
