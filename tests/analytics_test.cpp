// Tests for the predictive platform (thermosensitivity, forecasting,
// capacity planning) and the desktop-grid baseline.
#include <gtest/gtest.h>

#include "df3/analytics/forecaster.hpp"
#include "df3/baselines/desktop_grid.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/thermal/room.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/rng.hpp"

namespace an = df3::analytics;
namespace th = df3::thermal;
namespace u = df3::util;
namespace wl = df3::workload;
using df3::sim::Simulation;

// -------------------------------------------------------- thermosensitivity ---

TEST(Thermosensitivity, RecoversLinearDemandLaw) {
  // Synthetic ground truth: demand = 40 W/K * HDD(16).
  an::ThermosensitivityAnalyzer tsa(16.0);
  u::RngStream rng(1, "tsa");
  for (int day = 0; day < 60; ++day) {
    const double t_out = rng.uniform(-5.0, 20.0);
    for (int hour = 0; hour < 24; ++hour) {
      const double t = day * th::kSecondsPerDay + hour * 3600.0;
      const double demand = 40.0 * std::max(0.0, 16.0 - t_out) + rng.normal(0.0, 15.0);
      tsa.observe(t, u::celsius(t_out), u::watts(std::max(0.0, demand)));
    }
  }
  EXPECT_EQ(tsa.days(), 60u);
  const auto fit = tsa.fit();
  EXPECT_NEAR(fit.slope, 40.0, 3.0);
  EXPECT_GT(fit.r_squared, 0.95);
  EXPECT_GT(tsa.correlation(), 0.97);
  EXPECT_NEAR(tsa.predict(u::celsius(6.0)).value(), 400.0, 40.0);
  EXPECT_NEAR(tsa.predict(u::celsius(25.0)).value(), 0.0, 40.0);
}

TEST(Thermosensitivity, RealisticWeatherDrivenDemandCorrelates) {
  // Demand produced by holding a default room at 20 degC against the
  // synthetic Paris weather: correlation with HDD must be strong.
  const th::WeatherModel weather(th::ClimateNormals{}, 42);
  th::Room room(th::RoomParams{}, u::celsius(20.0));
  an::ThermosensitivityAnalyzer tsa(16.0);
  for (double t = 0.0; t < 120.0 * th::kSecondsPerDay; t += 3600.0) {
    const auto t_out = weather.outdoor_temperature(t);
    const auto demand = room.holding_power(u::celsius(20.0), t_out);
    tsa.observe(t, t_out, demand);
  }
  EXPECT_GT(tsa.correlation(), 0.9);
  // January prediction well above April prediction.
  EXPECT_GT(tsa.predict(u::celsius(4.0)).value(), tsa.predict(u::celsius(14.0)).value());
}

TEST(Thermosensitivity, RequiresTwoDays) {
  an::ThermosensitivityAnalyzer tsa;
  tsa.observe(0.0, u::celsius(5.0), u::watts(300.0));
  EXPECT_THROW((void)tsa.fit(), std::logic_error);
  EXPECT_THROW(tsa.observe(-th::kSecondsPerDay * 2, u::celsius(5.0), u::watts(1.0)),
               std::invalid_argument);
}

TEST(Forecaster, MapsWeatherToDemand) {
  an::ThermosensitivityAnalyzer tsa(16.0);
  for (int day = 0; day < 10; ++day) {
    const double t_out = day;  // 0..9 degC
    tsa.observe(day * th::kSecondsPerDay, u::celsius(t_out),
                u::watts(50.0 * (16.0 - t_out)));
  }
  an::HeatDemandForecaster fc(tsa);
  const auto demands = fc.forecast({u::celsius(0.0), u::celsius(8.0), u::celsius(20.0)});
  ASSERT_EQ(demands.size(), 3u);
  EXPECT_GT(demands[0].value(), demands[1].value());
  EXPECT_NEAR(demands[2].value(), 0.0, 30.0);
  EXPECT_GT(fc.mean_forecast({u::celsius(0.0), u::celsius(8.0)}).value(), 0.0);
  EXPECT_DOUBLE_EQ(fc.mean_forecast({}).value(), 0.0);
}

TEST(CapacityPlanner, LinearInterpolation) {
  // Fleet: idle 100 W, max 500 W, 64 cores.
  an::CapacityPlanner planner(100.0, 500.0, 64);
  EXPECT_EQ(planner.cores_for_demand(u::watts(100.0)), 0);
  EXPECT_EQ(planner.cores_for_demand(u::watts(500.0)), 64);
  EXPECT_EQ(planner.cores_for_demand(u::watts(300.0)), 32);
  EXPECT_EQ(planner.cores_for_demand(u::watts(0.0)), 0);     // clamped
  EXPECT_EQ(planner.cores_for_demand(u::watts(900.0)), 64);  // clamped
  // Two intervals of one hour at half demand: 32 core-hours.
  EXPECT_NEAR(planner.core_hours({u::watts(300.0)}, 3600.0), 32.0, 1e-9);
  EXPECT_THROW(an::CapacityPlanner(500.0, 100.0, 64), std::invalid_argument);
  EXPECT_THROW((void)planner.core_hours({}, 0.0), std::invalid_argument);
}

// ------------------------------------------------------------ desktop grid ---

namespace {
wl::Request batch(double work, int tasks) {
  wl::Request r;
  r.app = "batch";
  r.work_gigacycles = work;
  r.tasks = tasks;
  r.input_size = u::mebibytes(1.0);
  r.output_size = u::kibibytes(100.0);
  return r;
}
}  // namespace

TEST(DesktopGrid, CompletesBatchWorkEventually) {
  Simulation sim;
  df3::baselines::DesktopGridConfig cfg;
  cfg.hosts = 32;
  df3::baselines::DesktopGrid grid(sim, cfg, 7);
  std::vector<wl::CompletionRecord> recs;
  grid.submit(batch(250.0, 64), 0, [&](wl::CompletionRecord r) { recs.push_back(std::move(r)); });
  sim.run_until(2.0 * 86400.0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].outcome, wl::Outcome::kCompleted);
  EXPECT_EQ(recs[0].served_by, wl::ServedBy::kGrid);
  EXPECT_EQ(grid.completed_requests(), 1u);
}

TEST(DesktopGrid, ChurnCausesRestarts) {
  Simulation sim;
  df3::baselines::DesktopGridConfig cfg;
  cfg.hosts = 16;
  cfg.mean_available_s = 1800.0;  // volatile hosts
  cfg.mean_reclaimed_s = 1800.0;
  df3::baselines::DesktopGrid grid(sim, cfg, 11);
  // Long shards (~2 h each): almost guaranteed to hit a reclaim.
  grid.submit(batch(18000.0, 32), 0, [](wl::CompletionRecord) {});
  sim.run_until(4.0 * 86400.0);
  EXPECT_GT(grid.restarts(), 10u);
}

TEST(DesktopGrid, OpportunisticLatencyFarWorseThanDedicated) {
  // The paper's point: opportunistic workloads cannot give real-time
  // latency. A small edge-sized task on the grid pays ADSL + queueing +
  // possible churn; response must be far above an edge deadline whenever
  // hosts are busy/reclaimed.
  Simulation sim;
  df3::baselines::DesktopGridConfig cfg;
  cfg.hosts = 2;
  cfg.cores_per_host = 1;
  cfg.mean_available_s = 600.0;
  cfg.mean_reclaimed_s = 3600.0;
  df3::baselines::DesktopGrid grid(sim, cfg, 13);
  // Saturate with background batch work first.
  grid.submit(batch(9000.0, 8), 0, [](wl::CompletionRecord) {});
  std::vector<wl::CompletionRecord> recs;
  wl::Request edge = batch(2.5, 1);
  edge.deadline_s = 2.0;
  edge.arrival = 0.0;
  grid.submit(edge, 0, [&](wl::CompletionRecord r) { recs.push_back(std::move(r)); });
  sim.run_until(10.0 * 86400.0);
  ASSERT_GE(recs.size(), 1u);
  EXPECT_EQ(recs[0].outcome, wl::Outcome::kDeadlineMissed);
}

TEST(DesktopGrid, EnergyIsAllWasteHeat) {
  Simulation sim;
  df3::baselines::DesktopGrid grid(sim, {}, 3);
  grid.submit(batch(500.0, 16), 0, [](wl::CompletionRecord) {});
  sim.run_until(86400.0);
  const auto& led = grid.energy();
  EXPECT_GT(led.it().value(), 0.0);
  EXPECT_DOUBLE_EQ(led.useful_heat().value(), 0.0);
  EXPECT_NEAR(led.waste_heat().value(), led.it().value(), 1.0);
}

TEST(DesktopGrid, AvailabilityFluctuates) {
  Simulation sim;
  df3::baselines::DesktopGridConfig cfg;
  cfg.hosts = 64;
  df3::baselines::DesktopGrid grid(sim, cfg, 5);
  int min_avail = 64, max_avail = 0;
  for (int i = 0; i < 48; ++i) {
    sim.run_until((i + 1) * 1800.0);
    min_avail = std::min(min_avail, grid.available_hosts());
    max_avail = std::max(max_avail, grid.available_hosts());
  }
  EXPECT_LT(min_avail, max_avail);
  EXPECT_GT(max_avail, 20);
  EXPECT_THROW(df3::baselines::DesktopGrid(sim, {.hosts = 0}, 1), std::invalid_argument);
}
