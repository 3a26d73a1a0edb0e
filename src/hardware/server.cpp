#include "df3/hw/server.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace df3::hw {

util::Watts ServerSpec::rated_power() const {
  const CpuModel model(cpu);
  return model.power(cpu.top_pstate(), 1.0) * static_cast<double>(cpu_count);
}

ServerSpec qrad_spec() {
  ServerSpec s;
  s.family = "qrad";
  s.cpu = qrad_cpu_spec();
  s.cpu_count = 4;
  s.standby_power = util::Watts{4.0};
  s.routing = HeatRouting::kIndoor;
  return s;
}

ServerSpec eradiator_spec() {
  ServerSpec s;
  s.family = "eradiator";
  s.cpu = qrad_cpu_spec();
  s.cpu_count = 8;  // ~1000 W chassis
  s.standby_power = util::Watts{6.0};
  s.routing = HeatRouting::kDualPipe;
  return s;
}

ServerSpec crypto_heater_spec() {
  ServerSpec s;
  s.family = "crypto-heater";
  s.cpu = crypto_gpu_spec();
  s.cpu_count = 2;
  s.standby_power = util::Watts{8.0};
  s.routing = HeatRouting::kIndoor;
  return s;
}

ServerSpec asperitas_boiler_spec() {
  ServerSpec s;
  s.family = "asperitas-aic24";
  s.cpu = boiler_cpu_spec();
  s.cpu_count = 200;
  s.standby_power = util::Watts{120.0};
  s.routing = HeatRouting::kWaterLoop;
  // Immersion cooling tolerates far hotter loops than room air.
  s.throttle_start = util::Celsius{45.0};
  s.shutdown_temp = util::Celsius{55.0};
  return s;
}

ServerSpec stimergy_boiler_spec() {
  ServerSpec s;
  s.family = "stimergy-boiler";
  s.cpu = boiler_cpu_spec();
  s.cpu_count = 40;  // ~4 kW oil bath
  s.standby_power = util::Watts{40.0};
  s.routing = HeatRouting::kWaterLoop;
  s.throttle_start = util::Celsius{45.0};
  s.shutdown_temp = util::Celsius{55.0};
  return s;
}

ServerModel::ServerModel(ServerSpec spec) : spec_(std::move(spec)), cpu_model_(spec_.cpu) {
  if (spec_.cpu_count <= 0) throw std::invalid_argument("DfServer: cpu_count must be positive");
  if (spec_.shutdown_temp <= spec_.throttle_start) {
    throw std::invalid_argument("DfServer: shutdown_temp must exceed throttle_start");
  }
  const auto n = spec_.cpu.pstates.size();
  tables_.resize(5 * n);
  for (std::size_t ps = 0; ps < n; ++ps) {
    tables_[ps] = cpu_model_.power(ps, 1.0).value() * static_cast<double>(spec_.cpu_count);
    tables_[n + ps] = cpu_model_.power(ps, 0.0).value() * static_cast<double>(spec_.cpu_count);
    tables_[2 * n + ps] = cpu_model_.core_speed_gcps(ps) /
                          cpu_model_.core_speed_gcps(spec_.cpu.top_pstate());
    tables_[3 * n + ps] = cpu_model_.dyn_coeff(ps);
    tables_[4 * n + ps] = cpu_model_.core_speed_gcps(ps);
  }
}

std::shared_ptr<const ServerModel> ServerModel::shared(ServerSpec spec) {
  // Leaked on purpose: servers in other statics may outlive any exit-time
  // destructor of this list.
  static auto* const mutex = new std::mutex;
  static auto* const models = new std::vector<std::weak_ptr<const ServerModel>>;
  const std::lock_guard<std::mutex> lock(*mutex);
  for (const auto& weak : *models) {
    if (auto model = weak.lock(); model && model->spec() == spec) return model;
  }
  auto model = std::make_shared<const ServerModel>(std::move(spec));
  std::erase_if(*models, [](const auto& weak) { return weak.expired(); });
  models->push_back(model);
  return model;
}

DfServer::DfServer(ServerSpec spec) : model_(ServerModel::shared(std::move(spec))) {
  // Mirror the spec scalars the per-tick path reads into the hot block.
  const ServerSpec& s = model_->spec();
  aging_reference_c_ = s.aging_reference_junction.value();
  standby_power_w_ = s.standby_power.value();
  throttle_start_c_ = s.throttle_start.value();
  shutdown_temp_c_ = s.shutdown_temp.value();
  static_power_w_ = s.cpu.static_power.value();
  total_cores_ = s.total_cores();
  cpu_count_ = s.cpu_count;
  routing_ = s.routing;
  pstate_ = s.cpu.top_pstate();
  n_pstates_ = model_->pstate_count();
  tables_ = model_->tables();
  refresh_thermal();
  refresh_operating();
}

util::Watts DfServer::apply_power_cap(util::Watts cap, bool allow_gating) {
  const double per_cpu_cap = cap.value() / static_cast<double>(cpu_count_);
  std::size_t ps = 0;
  if (cpu_model().highest_pstate_within(util::Watts{per_cpu_cap}, ps)) {
    set_powered(true);
    set_pstate(ps);
    return max_power_now();
  }
  if (allow_gating) {
    set_powered(false);
    return standby_power();
  }
  set_powered(true);
  set_pstate(0);
  return max_power_now();
}

}  // namespace df3::hw
