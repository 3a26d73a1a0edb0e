// A6 — processor aging and fleet maintenance (§III-C).
//
// "the cooling approach of DF servers might cause the acceleration of
//  processor aging and consequently, the need to replace them ... The large
//  scale deployment of DF servers will also raise maintenance challenges."
//
// The Arrhenius-style stress model (x2 per +10 K of junction temperature)
// is integrated over a year for several deployment styles, and converted
// into an expected service life and an annual replacement rate for a
// 10,000-heater fleet — the maintenance number an operator plans around.

#include <iostream>

#include "harness.hpp"

namespace {

using namespace df3;

struct AgingResult {
  double stress_hours;   ///< equivalent hours at the reference junction temp
  double accel_factor;   ///< stress hours per wall hour
};

/// Integrate one year of the given (inlet temperature, load) profile.
AgingResult run_profile(util::Celsius inlet, double duty_cycle, std::size_t pstate) {
  hw::DfServer server(hw::qrad_spec());
  server.set_inlet_temperature(inlet);
  server.set_pstate(pstate);
  const double tick = 3600.0;
  const int cores = server.spec().total_cores();
  df3::util::RngStream rng(6, "aging");
  for (int h = 0; h < 24 * 365; ++h) {
    const bool busy = rng.bernoulli(duty_cycle);
    if (server.usable_cores() > 0) server.set_busy_cores(busy ? cores : 0);
    server.advance(util::Seconds{tick});
  }
  const double wall_hours = 24.0 * 365.0;
  return {server.aging_stress_hours(), server.aging_stress_hours() / wall_hours};
}

}  // namespace

int main() {
  bench::banner("A6 (ablation): free-cooling vs chilled aging, fleet replacement rate",
                "hot rooms and sustained load multiply wear; DVFS softens it");

  // A part rated for 5 years of continuous reference-temperature operation.
  const double rated_stress_hours = 5.0 * 365.0 * 24.0;
  constexpr int kFleet = 10000;

  struct Case {
    const char* name;
    util::Celsius inlet;
    double duty;
    std::size_t pstate;
  };
  const Case cases[] = {
      {"chilled datacenter (18C inlet, 60% duty)", util::celsius(18.0), 0.6, 4},
      {"DF winter room (20C, 60% duty)", util::celsius(20.0), 0.6, 4},
      {"DF winter room, DVFS-regulated (20C, 60%, mid P-state)", util::celsius(20.0), 0.6, 2},
      {"DF hot attic (28C, 60% duty)", util::celsius(28.0), 0.6, 4},
      {"DF hot attic, marathon load (28C, 95%)", util::celsius(28.0), 0.95, 4},
  };

  util::Table table({"deployment", "stress_h_per_year", "accel", "service_life_y",
                     "fleet_swaps_per_year"},
                    "Arrhenius x2/10K junction model; 10,000-heater fleet");
  table.set_precision(1);
  for (const auto& c : cases) {
    const auto r = run_profile(c.inlet, c.duty, c.pstate);
    const double life_years = rated_stress_hours / r.stress_hours;
    table.add_row({std::string(c.name), r.stress_hours, r.accel_factor, life_years,
                   static_cast<double>(kFleet) / life_years});
  }
  table.print(std::cout);

  std::printf("\nreading: free cooling in ordinary rooms costs little life vs a chilled\n"
              "hall, but hot placements under marathon load multiply replacements —\n"
              "quantifying both §III-C caveats (aging AND the maintenance burden) and\n"
              "showing the DVFS heat regulator doubles as a wear regulator.\n");
  return 0;
}
