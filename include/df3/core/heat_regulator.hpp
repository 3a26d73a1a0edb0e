#pragma once
/// \file heat_regulator.hpp
/// \brief DVFS-based heat regulator (paper section III-B, last paragraph).
///
/// "To make sure that the expectations will be complied, we propose to add
///  a heat regulator system in each DF server. The heat regulator implements
///  a DVFS based technique to guarantee that the energy consumed corresponds
///  to the heat demand."
///
/// Every control period the regulator receives the thermostat's heat demand
/// (watts) and selects the chassis P-state — and possibly gates the
/// motherboards off (Qarnot's hybrid infrastructure) — so the achievable
/// power envelope brackets the demand. It tracks delivery error for the E7
/// experiment.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "df3/hw/server.hpp"
#include "df3/thermal/thermostat.hpp"
#include "df3/util/units.hpp"

namespace df3::core {

/// What the regulator may do when heat demand falls below the idle power of
/// the lowest P-state.
enum class GatingPolicy : std::uint8_t {
  /// Gate motherboards off (standby). Maximum heat fidelity; computing
  /// capacity vanishes — pending work must be offloaded (hybrid infra).
  kAggressive,
  /// Keep the chassis at the lowest P-state so the cluster retains minimal
  /// edge capacity; slightly over-delivers heat in shoulder seasons.
  kKeepWarm,
};

struct RegulatorConfig {
  GatingPolicy gating = GatingPolicy::kAggressive;
};

/// Demand at or below this is treated as "no heat requested" (W).
inline constexpr double kDemandEpsilonW = 1.0;

/// Per-server control loop. Call `regulate` every control period. It keeps
/// only its delivery integrals; the gating policy is the caller's (one per
/// city), so a room's regulator is three doubles.
class HeatRegulator {
 public:
  /// Apply the thermostat demand to the server: picks P-state/gating.
  /// Returns the power ceiling the chassis can now reach. Header-inline:
  /// runs once per room per control period, the hottest control-plane call.
  util::Watts regulate(hw::DfServer& server, const thermal::HeatDemand& demand,
                       GatingPolicy gating) {
    const double want = demand.power.value();
    if (!demand.heating_season || want <= kDemandEpsilonW) {
      if (gating == GatingPolicy::kAggressive) {
        server.set_powered(false);
        return server.standby_power();
      }
      server.set_powered(true);
      server.set_pstate(0);
      server.set_filler_cores(0);
      return server.max_power_now();
    }
    // Coarse stage: the *lowest* P-state whose full-load power reaches the
    // demand, so utilization can modulate down onto the target exactly.
    // Low states also retire more cycles per joule (V^2 scaling), so this
    // maximizes compute sold per watt of heat. Demands above the chassis
    // rating saturate at the top state.
    server.set_powered(true);
    const std::size_t ps = server.min_pstate_for(demand.power);
    // The power envelope of the chosen state is known before applying it
    // (max_power_at/idle_power_at match max_power_now/idle_power after a
    // set_pstate), so the P-state and the filler count computed from that
    // envelope land on the server as one refresh.
    const util::Watts ceiling = server.max_power_at(ps);
    // Fine stage: when real work does not draw enough power, burn filler
    // cores (Liu et al.'s seasonal space-heating computations) so the
    // chassis emits the requested heat. Power is linear in loaded cores
    // between idle and the ceiling.
    const double idle = server.idle_power_at(ps).value();
    const double maxp = ceiling.value();
    int filler = 0;
    if (maxp > idle) {
      const double util_target = std::clamp((want - idle) / (maxp - idle), 0.0, 1.0);
      // Round half away from zero, as std::lround does; the argument is
      // non-negative so truncate-then-bump is exact without the libm call.
      const double scaled = util_target * static_cast<double>(server.total_cores());
      auto desired_loaded = static_cast<int>(scaled);
      if (scaled - static_cast<double>(desired_loaded) >= 0.5) ++desired_loaded;
      filler = std::max(0, desired_loaded - server.busy_cores());
    }
    server.set_pstate_and_filler(ps, filler);
    return ceiling;
  }

  /// Record actual delivery over the elapsed period (called after physics
  /// integration): `delivered` is the heat actually emitted, `requested`
  /// the demand that was in force.
  void record(util::Seconds dt, util::Watts delivered, util::Watts requested) {
    if (dt.value() < 0.0) throw std::invalid_argument("HeatRegulator::record: negative dt");
    delivered_ += delivered * dt;
    requested_ += requested * dt;
    abs_error_ += util::Watts{std::abs(delivered.value() - requested.value())} * dt;
  }

  /// Energy-weighted relative error: |delivered-requested| integral over
  /// requested integral. 0 == perfect tracking.
  [[nodiscard]] double relative_error() const {
    if (requested_.value() <= 0.0) return 0.0;
    return abs_error_.value() / requested_.value();
  }
  [[nodiscard]] util::Joules delivered_total() const { return delivered_; }
  [[nodiscard]] util::Joules requested_total() const { return requested_; }

 private:
  util::Joules delivered_{0.0};
  util::Joules requested_{0.0};
  util::Joules abs_error_{0.0};
};

}  // namespace df3::core
