#pragma once
/// \file cpu.hpp
/// \brief CPU model with DVFS P-states and a physically grounded power law.
///
/// The heat a DF server can deliver equals the electrical power it draws,
/// and DVFS is the paper's proposed actuator for matching that power to the
/// heat demand (section III-B, "heat regulator"). We model a CPU as a set of
/// P-states (frequency, voltage) with
///
///   P(state, util) = P_static + P_dyn_max * (f/f_max) * (V/V_max)^2 * util
///
/// the classic alpha*C*V^2*f dynamic-power law normalized to the top state.
/// Work is measured in **gigacycles**: a core at f GHz retires f gigacycles
/// per second, so job service times scale inversely with frequency.

#include <stdexcept>
#include <string>
#include <vector>

#include "df3/util/units.hpp"

namespace df3::hw {

/// One DVFS operating point.
struct PState {
  double freq_ghz;
  double voltage_v;

  bool operator==(const PState&) const = default;
};

/// Static description of a CPU model.
struct CpuSpec {
  std::string model = "generic-x86";
  int cores = 4;
  /// P-states sorted by ascending frequency; the last one is nominal max.
  std::vector<PState> pstates = {{1.2, 0.80}, {1.6, 0.90}, {2.0, 1.00},
                                 {2.6, 1.10}, {3.2, 1.20}};
  util::Watts static_power{8.0};       ///< leakage + uncore at any active state
  util::Watts dynamic_power_max{52.0}; ///< dynamic power at top P-state, all cores busy

  [[nodiscard]] std::size_t top_pstate() const { return pstates.size() - 1; }

  bool operator==(const CpuSpec&) const = default;
};

/// Pure power/throughput math over a CpuSpec — stateless, so schedulers can
/// evaluate "what if" questions cheaply.
class CpuModel {
 public:
  explicit CpuModel(CpuSpec spec);

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }

  /// Electrical power at P-state `ps` with `util` in [0,1] of cores busy.
  /// Header-inline: the server refresh path calls this on every operating-
  /// point change.
  [[nodiscard]] util::Watts power(std::size_t ps, double util) const {
    if (ps >= spec_.pstates.size()) throw std::out_of_range("CpuModel::power: bad P-state");
    if (util < 0.0 || util > 1.0) {
      throw std::invalid_argument("CpuModel::power: util outside [0,1]");
    }
    return util::Watts{spec_.static_power.value() + dyn_coeff_[ps] * util};
  }

  /// Per-core throughput at P-state `ps` (gigacycles per second == GHz).
  [[nodiscard]] double core_speed_gcps(std::size_t ps) const {
    if (ps >= spec_.pstates.size()) {
      throw std::out_of_range("CpuModel::core_speed: bad P-state");
    }
    return spec_.pstates[ps].freq_ghz;
  }

  /// Whole-CPU throughput at full utilization (gigacycles per second).
  [[nodiscard]] double max_throughput_gcps(std::size_t ps) const;

  /// Highest P-state whose full-utilization power does not exceed `cap`.
  /// Returns false if even the lowest state exceeds the cap (caller should
  /// then gate the CPU off).
  [[nodiscard]] bool highest_pstate_within(util::Watts cap, std::size_t& out_ps) const;

  /// Energy efficiency at a state: gigacycles per joule at full utilization.
  [[nodiscard]] double efficiency_gc_per_joule(std::size_t ps) const;

  /// Dynamic-power coefficient at `ps`: P_dyn_max * (f/f_max) * (V/V_max)^2,
  /// so power(ps, util) == static + dyn_coeff(ps) * util.
  [[nodiscard]] double dyn_coeff(std::size_t ps) const { return dyn_coeff_[ps]; }

 private:
  CpuSpec spec_;
  std::vector<double> dyn_coeff_;  ///< per-P-state, precomputed at construction
};

/// Intel-i7-class CPU as embedded in a Q.rad (paper: "3-4 CPUs" per heater).
[[nodiscard]] CpuSpec qrad_cpu_spec();

/// Server-class CPU as racked in the Asperitas AIC24 boiler.
[[nodiscard]] CpuSpec boiler_cpu_spec();

/// GPU modelled as a high-power single-"core" device (crypto-heater).
[[nodiscard]] CpuSpec crypto_gpu_spec();

}  // namespace df3::hw
