/// \file platform_determinism_test.cpp
/// \brief Golden-hash pin of the fleet-physics kernel (DESIGN.md).
///
/// Two invariants, both bit-for-bit:
///  1. The SoA phase-split tick reproduces the original per-object sweep
///     exactly. The golden constants below were captured from the
///     pre-refactor implementation (commit d2cd04c) over a simulated week
///     of every bundled scenario; any float reassociation in the kernel
///     shows up here as a hash mismatch.
///  2. The parallel tick is schedule-independent: 1, 2 and 8 threads
///     produce identical telemetry and end state, because each building's
///     physics and control math touch only building-owned state and the
///     order-sensitive drain replays serially in building order.

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "df3/df3.hpp"

namespace df3 {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Digest {
  std::uint64_t csv_hash;
  std::uint64_t raw_hash;
};

// Golden values from the pre-refactor serial implementation.
constexpr Digest kWinterGolden{0xfe042866dfbd421dULL, 0x6e074eaca1700288ULL};
constexpr Digest kBoilerGolden{0x1eb523add7ae3c8cULL, 0x7497ea34bee83b0fULL};
constexpr Digest kSummerGolden{0x9914fb3a47381825ULL, 0x9e1211637984f73dULL};
// Captured on the per-room fleet layout, before the building-uniform room
// parameters and flags moved to one record per building.
constexpr Digest kEradiatorSpringGolden{0x02e3a1383c3dd34aULL, 0x89cb067397d76ed0ULL};
constexpr std::uint64_t kEradiatorSpringUsefulHeatBits = 0x4148cf1727e0d063ULL;

// Scenario builders mirror scenarios/*.cfg through the df3run key mapping.
// Df3Platform is populated in place (its event sources capture `this`).

core::PlatformConfig winter_city_config() {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(0);
  pc.climate = thermal::paris_climate();
  pc.regulator.gating = core::GatingPolicy::kKeepWarm;
  return pc;
}

void populate_winter_city(core::Df3Platform& city) {
  for (int i = 0; i < 4; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = 4;
    city.add_building(b);
  }
  city.set_cloud_routing("df-first");
  city.add_edge_source(0, workload::alarm_detection_factory(), 0.02);
  city.add_edge_source(0, workload::telemetry_factory(),
                       std::make_unique<workload::FixedIntervalArrivals>(30.0));
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 900.0);
}

core::PlatformConfig boiler_plant_config() {
  core::PlatformConfig pc;
  pc.seed = 9;
  pc.start_time = thermal::start_of_month(6);
  pc.climate = thermal::dresden_climate();
  pc.regulator.gating = core::GatingPolicy::kAggressive;
  return pc;
}

void populate_boiler_plant(core::Df3Platform& city) {
  core::BuildingConfig b;
  b.name = "b0";
  b.server = hw::stimergy_boiler_spec();
  thermal::WaterTankParams tank;
  tank.volume_l = 2500.0;
  tank.setpoint = util::celsius(58.0);
  b.water_tank = tank;
  b.daily_hot_water_l = 1500.0;
  city.add_building(b);
  city.set_cloud_routing("df-first");
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 600.0);
}

core::PlatformConfig summer_city_config() {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(6);
  pc.climate = thermal::paris_climate();
  pc.regulator.gating = core::GatingPolicy::kKeepWarm;
  return pc;
}

void populate_summer_city(core::Df3Platform& city) {
  for (int i = 0; i < 4; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = 4;
    city.add_building(b);
  }
  city.set_cloud_routing("season-aware");
  city.add_edge_source(0, workload::alarm_detection_factory(), 0.02);
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 900.0);
}

// Dual-pipe eradiators (heat vents outdoors off-season) in a mixed
// 1R1C/2R2C city, run across the spring end of the heating season: pins
// the per-building season flag, which decides where a chassis's heat goes.
core::PlatformConfig eradiator_spring_config() {
  core::PlatformConfig pc;
  pc.seed = 77;
  pc.start_time = thermal::start_of_month(4) + util::days(19.0).value();
  pc.climate = thermal::paris_climate();
  pc.regulator.gating = core::GatingPolicy::kKeepWarm;
  return pc;
}

void populate_eradiator_spring(core::Df3Platform& city) {
  for (int i = 0; i < 4; ++i) {
    core::BuildingConfig b;
    b.name = "e" + std::to_string(i);
    b.rooms = 4;
    b.server = hw::eradiator_spec();
    b.high_fidelity_rooms = i % 2 == 1;
    city.add_building(b);
  }
  city.set_cloud_routing("df-first");
  city.add_edge_source(1, workload::alarm_detection_factory(), 0.02);
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 900.0);
}

template <class Populate>
Digest run_scenario(core::PlatformConfig pc, Populate populate, std::size_t threads,
                    obs::TraceLevel obs_level = obs::TraceLevel::kOff,
                    double* useful_heat_j = nullptr) {
  pc.threads = threads;
  // The default shard map puts each multi-building city in one shard,
  // which clamps the pool to the serial walk. Parallel runs split the
  // fleet into four-room shards (one lane per building) so threads > 1
  // really takes the parallel shape; the shard map is itself bit-neutral
  // (platform_shard_test).
  if (threads > 1) pc.shard_rooms = 4;
  pc.obs.level = obs_level;
  core::Df3Platform city(pc);
  populate(city);
  city.run(util::days(7.0));

  std::ostringstream csv;
  city.export_series_csv(csv);

  // Raw end-state digest: exact double bits of every room and tank
  // temperature plus the energy ledger — resolves divergence below the
  // CSV's 10 significant digits.
  std::string raw;
  const auto put = [&raw](double v) {
    raw.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    for (std::size_t r = 0; r < 64; ++r) {
      try {
        put(city.room_temperature(b, r).value());
      } catch (const std::out_of_range&) {
        break;
      }
    }
    try {
      put(city.tank_temperature(b).value());
    } catch (const std::logic_error&) {
    }
  }
  put(city.df_energy().it().value());
  put(city.regulator_relative_error());
  if (useful_heat_j != nullptr) *useful_heat_j = city.df_energy().useful_heat().value();
  return Digest{fnv1a(csv.str()), fnv1a(raw)};
}

template <class Populate>
void expect_golden_across_threads(const char* name, core::PlatformConfig (*config)(),
                                  Populate populate, Digest golden) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
    const Digest d = run_scenario(config(), populate, threads);
    EXPECT_EQ(d.csv_hash, golden.csv_hash);
    EXPECT_EQ(d.raw_hash, golden.raw_hash);
  }
}

TEST(PlatformDeterminism, WinterCityMatchesGoldenAtAnyThreadCount) {
  expect_golden_across_threads("winter_city", winter_city_config, populate_winter_city,
                               kWinterGolden);
}

TEST(PlatformDeterminism, BoilerPlantMatchesGoldenAtAnyThreadCount) {
  expect_golden_across_threads("boiler_plant", boiler_plant_config, populate_boiler_plant,
                               kBoilerGolden);
}

TEST(PlatformDeterminism, SummerCityMatchesGoldenAtAnyThreadCount) {
  expect_golden_across_threads("summer_city", summer_city_config, populate_summer_city,
                               kSummerGolden);
}

TEST(PlatformDeterminism, EradiatorSpringMatchesGoldenAtAnyThreadCount) {
  // The run really crosses the season end: heating at the start, not at
  // the end, so both values of the season flag are exercised.
  const core::PlatformConfig pc = eradiator_spring_config();
  const thermal::WeatherModel weather(pc.climate, pc.seed);
  const util::Celsius cutoff = thermal::ComfortProfile{}.heating_cutoff_outdoor;
  ASSERT_LT(weather.seasonal_component(pc.start_time), cutoff);
  ASSERT_GE(weather.seasonal_component(pc.start_time + util::days(7.0).value()), cutoff);
  // The ledger's useful/waste heat split is not in the digests: pin the
  // useful-heat bits as well.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("eradiator_spring threads=" + std::to_string(threads));
    double useful_j = 0.0;
    const Digest d = run_scenario(eradiator_spring_config(), populate_eradiator_spring, threads,
                                  obs::TraceLevel::kOff, &useful_j);
    EXPECT_EQ(d.csv_hash, kEradiatorSpringGolden.csv_hash);
    EXPECT_EQ(d.raw_hash, kEradiatorSpringGolden.raw_hash);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(useful_j), kEradiatorSpringUsefulHeatBits);
  }
}

// Observation must not perturb the simulation: recording metrics or a full
// trace reproduces the golden digests bit-for-bit at every thread count
// (DESIGN.md section 10, "observation-only" contract).
TEST(PlatformDeterminism, ObservabilityLevelsPreserveGoldensAtAnyThreadCount) {
  for (const obs::TraceLevel level : {obs::TraceLevel::kCounters, obs::TraceLevel::kFull}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(std::string("winter_city obs=") + obs::trace_level_name(level) +
                   " threads=" + std::to_string(threads));
      const Digest d = run_scenario(winter_city_config(), populate_winter_city, threads, level);
      EXPECT_EQ(d.csv_hash, kWinterGolden.csv_hash);
      EXPECT_EQ(d.raw_hash, kWinterGolden.raw_hash);
    }
    SCOPED_TRACE(std::string("obs=") + obs::trace_level_name(level));
    const Digest boiler = run_scenario(boiler_plant_config(), populate_boiler_plant, 2, level);
    EXPECT_EQ(boiler.csv_hash, kBoilerGolden.csv_hash);
    EXPECT_EQ(boiler.raw_hash, kBoilerGolden.raw_hash);
    const Digest summer = run_scenario(summer_city_config(), populate_summer_city, 2, level);
    EXPECT_EQ(summer.csv_hash, kSummerGolden.csv_hash);
    EXPECT_EQ(summer.raw_hash, kSummerGolden.raw_hash);
  }
}

// More threads than buildings must degrade gracefully (the pool
// simply has idle lanes) and still match.
TEST(PlatformDeterminism, ThreadsExceedingBuildingsStillMatch) {
  const Digest d = run_scenario(boiler_plant_config(), populate_boiler_plant, 8);
  EXPECT_EQ(d.csv_hash, kBoilerGolden.csv_hash);
  EXPECT_EQ(d.raw_hash, kBoilerGolden.raw_hash);
}

}  // namespace
}  // namespace df3
