// District heating as a cloud: a city block operated in the DF3 model.
//
// Twelve Q.rad buildings plus one Stimergy digital-boiler building form a
// district whose heating is a by-product of a distributed cloud. The
// example runs the shoulder of the heating season (mid-March onward) where
// the paper's core difficulty is sharpest: heat demand fades day by day, so
// the regulators shrink the usable compute fleet and the hybrid
// infrastructure ships overflow to a classic datacenter.
//
// It also demonstrates the predictive platform of section III-C: a
// thermosensitivity model fitted on the run's own telemetry, then used to
// forecast next-day demand and capacity.

#include <cstdio>
#include <iostream>

#include "df3/df3.hpp"

int main() {
  using namespace df3;

  core::PlatformConfig cfg;
  cfg.seed = 99;
  cfg.start_time = thermal::start_of_month(2) + 14.0 * thermal::kSecondsPerDay;  // Mar 15
  cfg.regulator.gating = core::GatingPolicy::kAggressive;  // strict on-demand heat
  cfg.cluster.cloud_offload_backlog_gc_per_core = 2000.0;  // hybrid relief valve
  cfg.tick_s = 120.0;

  core::Df3Platform city(cfg);

  for (int i = 0; i < 12; ++i) {
    core::BuildingConfig b;
    b.name = "block-" + std::to_string(i);
    b.rooms = 4;
    city.add_building(b);
  }
  core::BuildingConfig boiler_house;
  boiler_house.name = "boiler-house";
  boiler_house.server = hw::stimergy_boiler_spec();
  thermal::WaterTankParams tank;
  tank.volume_l = 2500.0;
  tank.setpoint = util::celsius(58.0);
  boiler_house.water_tank = tank;                 // digital-boiler plant
  boiler_house.daily_hot_water_l = 1500.0;
  city.add_building(boiler_house);

  // The district's cloud customers.
  city.add_cloud_source(workload::render_batch_factory(8, 48), 1.0 / 900.0);
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 1800.0);
  // Neighborhood edge services on a few blocks.
  for (std::size_t b = 0; b < 3; ++b) {
    city.add_edge_source(b, workload::map_serving_factory(), 0.02, false, /*via_wifi=*/true);
  }

  city.run(util::days(14.0));

  // --- fleet + service report -------------------------------------------
  const auto& cloud = city.flow_metrics().by_flow(workload::Flow::kCloud);
  const auto& edge = city.flow_metrics().by_flow(workload::Flow::kEdgeIndirect);
  std::printf("district: 12 Q.rad buildings + 1 digital boiler, Mar 15-29\n\n");
  std::printf("cloud requests  : %llu (%.1f%% served on DF servers, rest offloaded)\n",
              static_cast<unsigned long long>(cloud.total()),
              100.0 * (1.0 - static_cast<double>(city.flow_metrics().served(
                                 workload::ServedBy::kVertical)) /
                                 static_cast<double>(std::max<std::uint64_t>(1, cloud.total()))));
  std::printf("edge requests   : %llu, success %.1f%%, p99 %.0f ms\n",
              static_cast<unsigned long long>(edge.total()), 100.0 * edge.success_rate(),
              edge.response_s.p99() * 1e3);
  std::printf("useful heat     : %.0f kWh of %.0f kWh consumed (%.0f%%)\n",
              city.df_energy().useful_heat().kwh(), city.df_energy().facility_total().kwh(),
              100.0 * city.df_energy().heat_reuse_fraction());

  // --- capacity fade across the two weeks --------------------------------
  const auto& cap = city.capacity_series();
  util::Table fade({"day", "mean_usable_cores", "mean_heat_demand_kw"},
                   "capacity follows the fading heat demand");
  for (int day = 0; day < 14; day += 2) {
    const double t0 = cfg.start_time + day * thermal::kSecondsPerDay;
    const double t1 = t0 + 2.0 * thermal::kSecondsPerDay;
    fade.add_row({static_cast<std::int64_t>(day), cap.mean_in_window(t0, t1),
                  city.heat_demand_series().mean_in_window(t0, t1) / 1e3});
  }
  fade.set_precision(1);
  fade.print(std::cout);

  // --- predictive platform ------------------------------------------------
  analytics::ThermosensitivityAnalyzer tsa(16.0);
  const auto& demand = city.heat_demand_series();
  const auto& outdoor = city.outdoor_series();
  for (std::size_t i = 0; i < demand.size(); ++i) {
    tsa.observe(demand.times[i], util::celsius(outdoor.values[i]),
                util::watts(demand.values[i]));
  }
  const auto fit = tsa.fit();
  std::printf("\nthermosensitivity: %.0f W per heating-degree (R^2 %.2f, corr %.2f)\n",
              fit.slope, fit.r_squared, tsa.correlation());
  analytics::HeatDemandForecaster forecaster(tsa);
  analytics::CapacityPlanner planner(/*idle*/ 12 * 4 * 40.0, /*max*/ 12 * 4 * 500.0,
                                     /*cores*/ 12 * 4 * 16);
  const auto tomorrow = forecaster.mean_forecast(
      {util::celsius(6.0), util::celsius(9.0), util::celsius(12.0)});
  std::printf("day-ahead plan  : forecast %.1f kW mean demand -> %d cores sellable\n",
              tomorrow.value() / 1e3, planner.cores_for_demand(tomorrow));
  return 0;
}
