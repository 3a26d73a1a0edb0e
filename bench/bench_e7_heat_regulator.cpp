// E7 — the DVFS heat regulator tracking the heat demand (section III-B).
//
// "The heat regulator implements a DVFS based technique to guarantee that
//  the energy consumed corresponds to the heat demand." We drive one Q.rad
// through a demand staircase and a realistic thermostat day, and measure
// how closely emitted power follows the request under both gating policies.
// Compute throughput is reported alongside: heat tracked = cycles sold.

#include <iostream>

#include "harness.hpp"

namespace {

using namespace df3;

struct PhaseResult {
  double requested_w;
  double delivered_w;
  double speed_gcps;  // whole-chassis throughput while the phase held
};

/// Drive `server` at constant demand for `seconds`; return means.
PhaseResult run_phase(hw::DfServer& server, core::HeatRegulator& reg,
                      core::GatingPolicy gating, double demand_w, double seconds) {
  const thermal::HeatDemand demand{util::watts(demand_w), true};
  const double tick = 60.0;
  double delivered_j = 0.0;
  const double e0 = server.energy_consumed().value();
  for (double t = 0.0; t < seconds; t += tick) {
    reg.regulate(server, demand, gating);
    server.advance(util::Seconds{tick});
  }
  delivered_j = server.energy_consumed().value() - e0;
  const double delivered_w = delivered_j / seconds;
  reg.record(util::Seconds{seconds}, util::watts(delivered_w), util::watts(demand_w));
  const double speed =
      server.core_speed_gcps() * server.usable_cores();
  return {demand_w, delivered_w, speed};
}

}  // namespace

int main() {
  bench::banner("E7: DVFS heat regulator tracking",
                "energy consumed follows the heat demand; capacity is the by-product");

  // --- staircase ----------------------------------------------------------
  util::Table stair({"demand_w", "delivered_w", "error_pct", "chassis_gcps"},
                    "demand staircase, one Q.rad, aggressive gating");
  stair.set_precision(1);
  {
    hw::DfServer server(hw::qrad_spec());
    core::HeatRegulator reg;
    for (const double demand : {0.0, 60.0, 150.0, 300.0, 450.0, 500.0, 200.0, 0.0}) {
      const auto r = run_phase(server, reg, core::GatingPolicy::kAggressive, demand, 3600.0);
      const double err = demand > 0.0
                             ? 100.0 * std::abs(r.delivered_w - demand) / demand
                             : r.delivered_w;  // watts leaked when zero asked
      stair.add_row({r.requested_w, r.delivered_w, err, r.speed_gcps});
    }
    std::printf("staircase energy-weighted relative error: %.1f%%\n\n",
                100.0 * reg.relative_error());
  }
  stair.print(std::cout);

  // --- thermostat day: both gating policies --------------------------------
  std::printf("\nthermostat-day comparison (modulating thermostat on the default room):\n");
  util::Table day({"gating", "rel_error_pct", "delivered_kwh", "requested_kwh",
                   "mean_room_c"},
                  "96 h closed loop across the season cutoff (early June)");
  day.set_precision(2);
  for (const auto policy : {core::GatingPolicy::kAggressive, core::GatingPolicy::kKeepWarm}) {
    hw::DfServer server(hw::qrad_spec());
    core::HeatRegulator reg;
    thermal::Room room(thermal::RoomParams{}, util::celsius(19.0));
    thermal::ModulatingThermostat thermostat(util::celsius(20.5), 250.0, util::watts(500.0));
    const thermal::WeatherModel weather(thermal::ClimateNormals{}, 3);
    util::StreamingStats room_c;
    const double tick = 60.0;
    double e_mark = server.energy_consumed().value();
    // Early June: the seasonal cutoff ends the heating season, so the two
    // gating policies actually diverge (standby vs keep-warm idle).
    const double t0 = thermal::start_of_month(5);
    const thermal::ComfortProfile comfort;
    for (double t = t0; t < t0 + 96.0 * 3600.0; t += tick) {
      const auto t_out = weather.outdoor_temperature(t);
      const bool season =
          weather.seasonal_component(t) < comfort.heating_cutoff_outdoor;
      thermal::HeatDemand demand{util::watts(0.0), false};
      if (season) {
        demand = thermostat.demand(room.temperature(),
                                   room.holding_power(thermostat.target(), t_out));
      }
      reg.regulate(server, demand, policy);
      server.set_inlet_temperature(room.temperature());
      server.advance(util::Seconds{tick});
      const double delta = server.energy_consumed().value() - e_mark;
      e_mark = server.energy_consumed().value();
      room.advance(util::Seconds{tick}, util::watts(delta / tick), t_out);
      reg.record(util::Seconds{tick}, util::watts(delta / tick), demand.power);
      room_c.add(room.temperature().value());
    }
    day.add_row({std::string(policy == core::GatingPolicy::kAggressive ? "aggressive"
                                                                       : "keep-warm"),
                 100.0 * reg.relative_error(), reg.delivered_total().kwh(),
                 reg.requested_total().kwh(), room_c.mean()});
  }
  day.print(std::cout);

  std::printf("\nshape checks: mid-range demands track within P-state quantization;\n"
              "zero demand leaks only standby watts under aggressive gating; the\n"
              "keep-warm policy trades a little over-delivery for retained capacity.\n");
  return 0;
}
