// Tests for platform extensions: fixed-interval telemetry, boiler/tank
// buildings, cooperation-fairness accounting.
#include <gtest/gtest.h>

#include "df3/core/platform.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/workload/arrivals.hpp"
#include "df3/workload/generators.hpp"

namespace core = df3::core;
namespace th = df3::thermal;
namespace wl = df3::workload;
namespace u = df3::util;

// ------------------------------------------------ fixed-interval arrivals ---

TEST(FixedIntervalArrivals, DeterministicTicks) {
  wl::FixedIntervalArrivals a(30.0);
  u::RngStream rng(1, "unused");
  EXPECT_DOUBLE_EQ(a.next_after(0.0, rng), 30.0);
  EXPECT_DOUBLE_EQ(a.next_after(30.0, rng), 60.0);   // strictly after a tick
  EXPECT_DOUBLE_EQ(a.next_after(31.0, rng), 60.0);
  EXPECT_DOUBLE_EQ(a.next_after(59.99, rng), 60.0);
  EXPECT_DOUBLE_EQ(a.mean_rate(), 1.0 / 30.0);
}

TEST(FixedIntervalArrivals, PhaseOffsetAndValidation) {
  wl::FixedIntervalArrivals a(60.0, 10.0);
  u::RngStream rng(1, "unused");
  EXPECT_DOUBLE_EQ(a.next_after(0.0, rng), 10.0);
  EXPECT_DOUBLE_EQ(a.next_after(10.0, rng), 70.0);
  EXPECT_THROW(wl::FixedIntervalArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(wl::FixedIntervalArrivals(1.0, -1.0), std::invalid_argument);
}

TEST(FixedIntervalArrivals, FractionalPhaseNeverRepeatsAnInstant) {
  u::RngStream rng(1, "unused");
  // (64.1 - 4.1) / 60 rounds just below 1: 64.1 is a tick, the next is 124.1.
  EXPECT_DOUBLE_EQ(wl::FixedIntervalArrivals(60.0, 4.1).next_after(64.1, rng), 124.1);
  for (const double phase : {4.1, 4.6, 5.1, 5.6}) {
    wl::FixedIntervalArrivals a(60.0, phase);
    double t = 0.0;
    for (int i = 0; i < 100000; ++i) {
      const double next = a.next_after(t, rng);
      ASSERT_GT(next, t) << "phase " << phase << ", step " << i;
      t = next;
    }
  }
}

TEST(TelemetryFactory, ShapeAndCadenceThroughPlatform) {
  core::PlatformConfig cfg;
  cfg.seed = 2;
  cfg.start_time = th::start_of_month(0);
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  core::Df3Platform city(cfg);
  city.add_building({.name = "b0", .rooms = 2});
  // One sensor frame every 30 s: exactly 2 per minute, deterministic.
  city.add_edge_source(0, wl::telemetry_factory(),
                       std::make_unique<wl::FixedIntervalArrivals>(30.0));
  city.run(u::hours(2.0));
  const auto& slice = city.flow_metrics().by_app("telemetry");
  EXPECT_GE(slice.total(), 239u);  // 2 h x 120/h (last frame may be in flight)
  EXPECT_LE(slice.total(), 241u);
  EXPECT_GT(slice.success_rate(), 0.99);
  EXPECT_LT(slice.response_s.p99(), 1.0);
}

// ----------------------------------------------------------- tank building ---

TEST(BoilerBuilding, YearRoundCapacityAndTankHeld) {
  core::PlatformConfig cfg;
  cfg.seed = 9;
  cfg.start_time = th::start_of_month(6);  // July: heaters would be dead
  cfg.regulator.gating = core::GatingPolicy::kAggressive;
  core::Df3Platform city(cfg);
  core::BuildingConfig plant;
  plant.name = "plant";
  plant.server = df3::hw::stimergy_boiler_spec();
  th::WaterTankParams tank;
  tank.volume_l = 2500.0;
  tank.setpoint = u::celsius(58.0);
  plant.water_tank = tank;
  plant.daily_hot_water_l = 1500.0;
  city.add_building(plant);
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 1800.0);
  city.run(u::days(3.0));

  // The boiler computes in July (hot water is aseasonal)...
  double mean_cores = 0.0;
  for (double v : city.capacity_series().values) mean_cores += v;
  mean_cores /= static_cast<double>(city.capacity_series().size());
  EXPECT_GT(mean_cores, 100.0);  // of the 320
  // ...the store holds temperature (time-weighted mean; the lumped tank
  // dips a few kelvin through each draw peak)...
  EXPECT_NEAR(city.comfort(0).mean_temperature_c(city.now()), 58.0, 4.0);
  EXPECT_GT(city.tank_temperature(0).value(), 48.0);
  // ...and cloud work completes on it.
  EXPECT_GT(city.flow_metrics().by_flow(wl::Flow::kCloud).completed, 5u);
  EXPECT_GT(city.df_energy().useful_heat().kwh(), 10.0);
  // Room accessor must refuse; tank accessor works only here.
  EXPECT_THROW((void)city.room_temperature(0, 0), std::out_of_range);
  core::Df3Platform other(cfg);
  other.add_building({.name = "rooms", .rooms = 1});
  EXPECT_THROW((void)other.tank_temperature(0), std::logic_error);
}

TEST(PlatformEnergy, EveryItJouleIsEitherUsefulOrWaste) {
  core::PlatformConfig cfg;
  cfg.seed = 6;
  cfg.start_time = th::start_of_month(0);
  cfg.regulator.gating = core::GatingPolicy::kAggressive;
  core::Df3Platform city(cfg);
  city.add_building({.name = "rooms", .rooms = 3});
  core::BuildingConfig plant;
  plant.name = "plant";
  plant.server = df3::hw::stimergy_boiler_spec();
  plant.water_tank = th::WaterTankParams{};
  city.add_building(plant);
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 1800.0);
  city.add_edge_source(0, wl::alarm_detection_factory(), 0.02);
  city.run(u::days(2.0));
  const auto& e = city.df_energy();
  ASSERT_GT(e.it().kwh(), 1.0);
  // The ledger partitions IT energy exactly into useful and waste heat.
  EXPECT_NEAR(e.useful_heat().value() + e.waste_heat().value(), e.it().value(),
              1e-6 * e.it().value());
  // And the PUE invariant holds by construction of the DF overhead.
  EXPECT_NEAR(e.pue(), 1.026, 1e-6);
}

// ------------------------------------------------- cooperation fairness ---

TEST(CooperationFairness, ForeignWorkIsAccounted) {
  core::PlatformConfig cfg;
  cfg.seed = 4;
  cfg.start_time = th::start_of_month(0);
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  cfg.cluster.edge_peak_ladder = {"horizontal", "delay"};
  core::Df3Platform city(cfg);
  city.add_building({.name = "hot", .rooms = 1});   // overloaded
  city.add_building({.name = "cold", .rooms = 4});  // idle neighbour
  // Non-preemptible cloud work pins the hot building...
  city.set_cloud_routing("df-first");
  city.add_cloud_source(
      [](u::RngStream&) {
        wl::Request r;
        r.app = "pin";
        r.work_gigacycles = 50000.0;
        r.tasks = 16;
        r.preemptible = false;
        return r;
      },
      std::make_unique<wl::FixedIntervalArrivals>(43200.0));
  // ...so its edge stream must ride the peer.
  city.add_edge_source(0, wl::alarm_detection_factory(), 0.05);
  city.run(u::days(1.0));
  const auto& hot = city.cluster(0).stats();
  const auto& cold = city.cluster(1).stats();
  EXPECT_GT(hot.offloaded_horizontal_out, 0u);
  EXPECT_EQ(cold.offloaded_horizontal_in, hot.offloaded_horizontal_out);
  EXPECT_GT(cold.foreign_gigacycles, 0.0);
  EXPECT_DOUBLE_EQ(hot.foreign_gigacycles, 0.0);
  // Cooperation kept the edge flow healthy despite the pinned cluster.
  EXPECT_GT(city.flow_metrics().by_flow(wl::Flow::kEdgeIndirect).success_rate(), 0.9);
}
