#include "df3/hw/cpu.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace df3::hw {

CpuModel::CpuModel(CpuSpec spec) : spec_(std::move(spec)) {
  if (spec_.pstates.empty()) throw std::invalid_argument("CpuModel: need at least one P-state");
  if (spec_.cores <= 0) throw std::invalid_argument("CpuModel: cores must be positive");
  for (std::size_t i = 1; i < spec_.pstates.size(); ++i) {
    if (spec_.pstates[i].freq_ghz <= spec_.pstates[i - 1].freq_ghz) {
      throw std::invalid_argument("CpuModel: P-states must be sorted by ascending frequency");
    }
  }
  // Written so that NaN fails each check.
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("CpuModel: ") + what);
  };
  for (const auto& ps : spec_.pstates) {
    require(ps.freq_ghz > 0.0 && std::isfinite(ps.freq_ghz),
            "P-state freq_ghz must be positive and finite");
    require(ps.voltage_v > 0.0 && std::isfinite(ps.voltage_v),
            "P-state voltage_v must be positive and finite");
  }
  const double stat = spec_.static_power.value();
  const double dyn = spec_.dynamic_power_max.value();
  require(stat >= 0.0 && std::isfinite(stat), "static_power must be finite and >= 0");
  require(dyn >= 0.0 && std::isfinite(dyn), "dynamic_power_max must be finite and >= 0");
  // Freeze the frequency/voltage ratios: the ladder never changes after
  // construction, so power() reduces to one fused multiply-add.
  const PState& top = spec_.pstates.back();
  dyn_coeff_.reserve(spec_.pstates.size());
  for (const auto& ps : spec_.pstates) {
    const double f_ratio = ps.freq_ghz / top.freq_ghz;
    const double v_ratio = ps.voltage_v / top.voltage_v;
    dyn_coeff_.push_back(spec_.dynamic_power_max.value() * f_ratio * v_ratio * v_ratio);
  }
}

double CpuModel::max_throughput_gcps(std::size_t ps) const {
  return core_speed_gcps(ps) * static_cast<double>(spec_.cores);
}

bool CpuModel::highest_pstate_within(util::Watts cap, std::size_t& out_ps) const {
  for (std::size_t i = spec_.pstates.size(); i-- > 0;) {
    if (power(i, 1.0) <= cap) {
      out_ps = i;
      return true;
    }
  }
  return false;
}

double CpuModel::efficiency_gc_per_joule(std::size_t ps) const {
  return max_throughput_gcps(ps) / power(ps, 1.0).value();
}

CpuSpec qrad_cpu_spec() {
  CpuSpec s;
  s.model = "qrad-i7";
  s.cores = 4;
  s.pstates = {{1.2, 0.80}, {1.6, 0.90}, {2.0, 1.00}, {2.6, 1.10}, {3.2, 1.20}};
  s.static_power = util::Watts{10.0};
  // 4 CPUs x ~125 W = 500 W chassis rating, per the Q.rad datasheet figures.
  s.dynamic_power_max = util::Watts{115.0};
  return s;
}

CpuSpec boiler_cpu_spec() {
  CpuSpec s;
  s.model = "boiler-xeon";
  s.cores = 8;
  s.pstates = {{1.0, 0.75}, {1.4, 0.85}, {1.9, 0.95}, {2.4, 1.05}, {2.9, 1.15}};
  s.static_power = util::Watts{15.0};
  // 200 CPUs x ~100 W = 20 kW, matching the Asperitas AIC24 figures.
  s.dynamic_power_max = util::Watts{85.0};
  return s;
}

CpuSpec crypto_gpu_spec() {
  CpuSpec s;
  s.model = "crypto-gpu";
  s.cores = 1;  // treated as one wide device
  s.pstates = {{0.8, 0.85}, {1.1, 0.95}, {1.4, 1.05}};
  s.static_power = util::Watts{30.0};
  // 2 GPUs x ~325 W = ~650 W chassis (Qarnot crypto-heater QC1).
  s.dynamic_power_max = util::Watts{295.0};
  return s;
}

}  // namespace df3::hw
