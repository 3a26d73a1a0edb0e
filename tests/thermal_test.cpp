// Tests for the thermal substrate: calendar, weather, RC rooms,
// thermostats, urban heat ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "df3/thermal/calendar.hpp"
#include "df3/thermal/room.hpp"
#include "df3/thermal/thermostat.hpp"
#include "df3/thermal/urban.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/stats.hpp"

namespace th = df3::thermal;
namespace u = df3::util;

// ------------------------------------------------------------- calendar ---

TEST(Calendar, MonthBoundaries) {
  EXPECT_EQ(th::month_of(0.0), 0);                                     // Jan 1
  EXPECT_EQ(th::month_of(30.9 * th::kSecondsPerDay), 0);               // Jan 31
  EXPECT_EQ(th::month_of(31.0 * th::kSecondsPerDay), 1);               // Feb 1
  EXPECT_EQ(th::month_of(364.5 * th::kSecondsPerDay), 11);             // Dec 31
  EXPECT_EQ(th::month_of(365.0 * th::kSecondsPerDay), 0);              // wraps
  EXPECT_EQ(th::month_of(th::start_of_month(10)), 10);                 // Nov 1
  EXPECT_EQ(th::month_of(th::start_of_month(4, 1)), 4);                // May 1, year 1
}

TEST(Calendar, HourAndDayOfWeek) {
  EXPECT_DOUBLE_EQ(th::hour_of_day(0.0), 0.0);
  EXPECT_DOUBLE_EQ(th::hour_of_day(3600.0 * 25.0), 1.0);
  EXPECT_EQ(th::day_of_week(0.0), 0);                           // Jan 1 == Monday
  EXPECT_EQ(th::day_of_week(5.0 * th::kSecondsPerDay), 5);      // Saturday
  EXPECT_EQ(th::day_of_week(7.0 * th::kSecondsPerDay), 0);
}

TEST(Calendar, BusinessHours) {
  const double monday_10am = 10.0 * 3600.0;
  const double monday_7am = 7.0 * 3600.0;
  const double saturday_noon = 5.0 * th::kSecondsPerDay + 12.0 * 3600.0;
  EXPECT_TRUE(th::is_business_hours(monday_10am));
  EXPECT_FALSE(th::is_business_hours(monday_7am));
  EXPECT_FALSE(th::is_business_hours(saturday_noon));
}

TEST(Calendar, MonthNames) {
  EXPECT_EQ(th::month_name(0), "Jan");
  EXPECT_EQ(th::month_name(11), "Dec");
  EXPECT_THROW((void)th::month_name(12), std::out_of_range);
}

// -------------------------------------------------------------- weather ---

TEST(Weather, SeasonalShapeWinterColdSummerWarm) {
  const th::WeatherModel w(th::ClimateNormals{}, 1);
  const auto jan = w.seasonal_component(th::start_of_month(0) + 15 * th::kSecondsPerDay);
  const auto jul = w.seasonal_component(th::start_of_month(6) + 15 * th::kSecondsPerDay);
  EXPECT_LT(jan.value(), 7.0);
  EXPECT_GT(jul.value(), 18.0);
}

TEST(Weather, SeasonalMatchesNormalsAtMidMonth) {
  th::ClimateNormals normals;
  const th::WeatherModel w(normals, 1);
  for (int m = 0; m < 12; ++m) {
    const double mid = th::start_of_month(m) +
                       th::kDaysInMonth[static_cast<std::size_t>(m)] / 2.0 * th::kSecondsPerDay;
    EXPECT_NEAR(w.seasonal_component(mid).value(),
                normals.monthly_mean_c[static_cast<std::size_t>(m)], 0.35)
        << "month " << m;
  }
}

TEST(Weather, DiurnalExtremes) {
  const th::WeatherModel w(th::ClimateNormals{}, 1);
  // Minimum near 05:00, maximum near 17:00.
  EXPECT_NEAR(w.diurnal_component(5.0 * 3600.0).value(), -4.0, 0.01);
  EXPECT_NEAR(w.diurnal_component(17.0 * 3600.0).value(), 4.0, 0.01);
  EXPECT_NEAR(w.diurnal_component(11.0 * 3600.0).value(), 0.0, 0.01);
}

TEST(Weather, NoiseIsReproducibleAndOrderIndependent) {
  const th::WeatherModel w(th::ClimateNormals{}, 77);
  const double t1 = 1000.0 * 3600.0, t2 = 2000.0 * 3600.0;
  const double a2 = w.noise_component(t2).value();
  const double a1 = w.noise_component(t1).value();
  const th::WeatherModel w2(th::ClimateNormals{}, 77);
  EXPECT_DOUBLE_EQ(w2.noise_component(t1).value(), a1);  // queried in other order
  EXPECT_DOUBLE_EQ(w2.noise_component(t2).value(), a2);
}

TEST(Weather, NoiseMarginalStdDevMatchesSpec) {
  th::ClimateNormals normals;
  normals.noise_stddev_k = 2.0;
  const th::WeatherModel w(normals, 5);
  u::StreamingStats s;
  for (int h = 0; h < 8760; ++h) s.add(w.noise_component(h * 3600.0).value());
  EXPECT_NEAR(s.mean(), 0.0, 0.35);
  EXPECT_NEAR(s.stddev(), 2.0, 0.5);
}

TEST(Weather, NoiseIsPersistent) {
  // AR(1) with phi=0.97: adjacent hours must correlate strongly.
  const th::WeatherModel w(th::ClimateNormals{}, 5);
  std::vector<double> a, b;
  for (int h = 0; h < 4000; ++h) {
    a.push_back(w.noise_component(h * 3600.0).value());
    b.push_back(w.noise_component((h + 1) * 3600.0).value());
  }
  EXPECT_GT(u::pearson(a, b), 0.9);
}

TEST(Weather, DifferentSeedsDiffer) {
  const th::WeatherModel w1(th::ClimateNormals{}, 1);
  const th::WeatherModel w2(th::ClimateNormals{}, 2);
  EXPECT_NE(w1.noise_component(3600.0).value(), w2.noise_component(3600.0).value());
}

TEST(Weather, ZeroNoiseConfig) {
  th::ClimateNormals normals;
  normals.noise_stddev_k = 0.0;
  const th::WeatherModel w(normals, 1);
  EXPECT_DOUBLE_EQ(w.noise_component(12345.0).value(), 0.0);
}

// ----------------------------------------------------------------- room ---

TEST(Room, ConvergesToEquilibrium) {
  th::Room room(th::RoomParams{}, u::celsius(10.0));
  const auto t_out = u::celsius(0.0);
  const auto q = u::watts(500.0);
  const auto eq = room.equilibrium(q, t_out);
  for (int i = 0; i < 600; ++i) room.advance(u::hours(1.0), q, t_out);
  EXPECT_NEAR(room.temperature().value(), eq.value(), 1e-6);
}

TEST(Room, ExactIntegrationIsStepSizeInvariant) {
  th::Room a(th::RoomParams{}, u::celsius(15.0));
  th::Room b(th::RoomParams{}, u::celsius(15.0));
  const auto t_out = u::celsius(2.0);
  const auto q = u::watts(400.0);
  a.advance(u::hours(6.0), q, t_out);
  for (int i = 0; i < 360; ++i) b.advance(u::minutes(1.0), q, t_out);
  EXPECT_NEAR(a.temperature().value(), b.temperature().value(), 1e-9);
}

TEST(Room, CoolsWithoutHeat) {
  th::RoomParams p;
  p.internal_gains = u::watts(0.0);
  th::Room room(p, u::celsius(20.0));
  room.advance(u::hours(24.0), u::watts(0.0), u::celsius(0.0));
  EXPECT_LT(room.temperature().value(), 10.0);
  EXPECT_GT(room.temperature().value(), 0.0);  // never below outdoor
}

TEST(Room, HoldingPowerHoldsTemperature) {
  th::Room room(th::RoomParams{}, u::celsius(21.0));
  const auto t_out = u::celsius(3.0);
  const auto q = room.holding_power(u::celsius(21.0), t_out);
  room.advance(u::hours(48.0), q, t_out);
  EXPECT_NEAR(room.temperature().value(), 21.0, 1e-6);
}

TEST(Room, HoldingPowerClampedAtZero) {
  th::Room room(th::RoomParams{}, u::celsius(20.0));
  EXPECT_DOUBLE_EQ(room.holding_power(u::celsius(18.0), u::celsius(25.0)).value(), 0.0);
}

TEST(Room, QradHoldsComfortInWinterSizing) {
  // Design check tying the defaults together: one 500 W Q.rad at full power
  // overshoots the 20-21 degC comfort band at 5 degC outside (sizing
  // margin), while ~60-75% of rating holds it — so the thermostat can both
  // recover quickly and modulate down to the target.
  th::Room room(th::RoomParams{}, u::celsius(20.0));
  EXPECT_GT(room.equilibrium(u::watts(500.0), u::celsius(5.0)).value(), 23.0);
  const auto holding = room.holding_power(u::celsius(20.5), u::celsius(5.0));
  EXPECT_GT(holding.value(), 250.0);
  EXPECT_LT(holding.value(), 450.0);
}

TEST(Room, RejectsBadParams) {
  th::RoomParams p;
  p.resistance_k_per_w = 0.0;
  EXPECT_THROW(th::Room(p, u::celsius(20.0)), std::invalid_argument);
  EXPECT_THROW(
      th::Room(th::RoomParams{}, u::celsius(20.0)).advance(u::seconds(-1.0), u::watts(0.0), u::celsius(0.0)),
      std::invalid_argument);
}

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

TEST(Room, RejectsNonFiniteResistance) {
  for (const double bad : {kNaN, kInf}) {
    th::RoomParams p;
    p.resistance_k_per_w = bad;
    EXPECT_THROW(th::Room(p, u::celsius(20.0)), std::invalid_argument) << bad;
  }
}

TEST(Room, RejectsNonFiniteCapacitance) {
  for (const double bad : {kNaN, kInf}) {
    th::RoomParams p;
    p.capacitance_j_per_k = bad;
    EXPECT_THROW(th::Room(p, u::celsius(20.0)), std::invalid_argument) << bad;
  }
}

void expect_2r2c_rejects_non_finite(double th::Room2R2CParams::*field) {
  for (const double bad : {kNaN, kInf}) {
    th::Room2R2CParams p;
    p.*field = bad;
    EXPECT_THROW(th::Room2R2C(p, u::celsius(20.0)), std::invalid_argument) << bad;
  }
}

TEST(Room2R2C, RejectsNonFiniteAirEnvelopeResistance) {
  expect_2r2c_rejects_non_finite(&th::Room2R2CParams::r_air_env_k_per_w);
}

TEST(Room2R2C, RejectsNonFiniteEnvelopeOutdoorResistance) {
  expect_2r2c_rejects_non_finite(&th::Room2R2CParams::r_env_out_k_per_w);
}

TEST(Room2R2C, RejectsNonFiniteAirCapacitance) {
  expect_2r2c_rejects_non_finite(&th::Room2R2CParams::c_air_j_per_k);
}

TEST(Room2R2C, RejectsNonFiniteEnvelopeCapacitance) {
  expect_2r2c_rejects_non_finite(&th::Room2R2CParams::c_env_j_per_k);
}

TEST(Room2R2C, ConvergesToSeriesEquilibrium) {
  th::Room2R2C room(th::Room2R2CParams{}, u::celsius(10.0));
  const auto q = u::watts(400.0);
  const auto t_out = u::celsius(0.0);
  const auto eq = room.equilibrium(q, t_out);
  for (int i = 0; i < 24 * 30; ++i) room.advance(u::hours(1.0), q, t_out);
  EXPECT_NEAR(room.air_temperature().value(), eq.value(), 0.05);
}

TEST(Room2R2C, EnvelopeLagsAir) {
  th::Room2R2C room(th::Room2R2CParams{}, u::celsius(10.0));
  room.advance(u::hours(2.0), u::watts(800.0), u::celsius(0.0));
  // After a short burn the light air node leads the heavy envelope node.
  EXPECT_GT(room.air_temperature().value(), room.envelope_temperature().value());
}

TEST(Room2R2C, StableOverLongSteps) {
  th::Room2R2C room(th::Room2R2CParams{}, u::celsius(18.0));
  room.advance(u::days(10.0), u::watts(300.0), u::celsius(5.0));
  EXPECT_GT(room.air_temperature().value(), 5.0);
  EXPECT_LT(room.air_temperature().value(), 40.0);
}

// ----------------------------------------------------------- thermostat ---

TEST(HysteresisThermostat, SwitchesWithDeadband) {
  th::HysteresisThermostat t(u::celsius(20.0), u::kelvin(0.5), u::watts(500.0));
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(19.0)).power.value(), 500.0);  // cold -> on
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(20.2)).power.value(), 500.0);  // inside band: stays on
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(20.6)).power.value(), 0.0);    // above band -> off
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(19.8)).power.value(), 0.0);    // inside band: stays off
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(19.4)).power.value(), 500.0);  // below band -> on
}

TEST(HysteresisThermostat, RegulatesRoomNearTarget) {
  th::Room room(th::RoomParams{}, u::celsius(17.0));
  th::HysteresisThermostat t(u::celsius(20.0), u::kelvin(0.5), u::watts(500.0));
  u::StreamingStats temps;
  for (int i = 0; i < 24 * 60; ++i) {  // 24 h at 1-minute control
    const auto d = t.demand(room.temperature());
    room.advance(u::minutes(1.0), d.power, u::celsius(5.0));
    if (i > 12 * 60) temps.add(room.temperature().value());  // after warmup
  }
  EXPECT_NEAR(temps.mean(), 20.0, 0.7);
  EXPECT_GT(temps.min(), 18.8);
  EXPECT_LT(temps.max(), 21.2);
}

TEST(HysteresisThermostat, RejectsNonFiniteBand) {
  for (const double bad : {kNaN, kInf}) {
    EXPECT_THROW(th::HysteresisThermostat(u::celsius(20.0), u::kelvin(bad), u::watts(500.0)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(HysteresisThermostat, RejectsNonFiniteRating) {
  for (const double bad : {kNaN, kInf}) {
    EXPECT_THROW(th::HysteresisThermostat(u::celsius(20.0), u::kelvin(0.5), u::watts(bad)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(ModulatingThermostat, RejectsNonFiniteGain) {
  for (const double bad : {kNaN, kInf}) {
    EXPECT_THROW(th::ModulatingThermostat(u::celsius(20.0), bad, u::watts(500.0)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(ModulatingThermostat, RejectsNonFiniteRating) {
  for (const double bad : {kNaN, kInf}) {
    EXPECT_THROW(th::ModulatingThermostat(u::celsius(20.0), 200.0, u::watts(bad)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(ModulatingThermostat, DemandTracksErrorAndFeedForward) {
  th::ModulatingThermostat t(u::celsius(20.0), 200.0, u::watts(500.0));
  const auto hold = u::watts(300.0);
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(20.0), hold).power.value(), 300.0);
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(19.0), hold).power.value(), 500.0);  // clamped
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(21.5), hold).power.value(), 0.0);    // clamped at 0
  EXPECT_DOUBLE_EQ(t.demand(u::celsius(20.5), hold).power.value(), 200.0);
}

TEST(ModulatingThermostat, HoldsRoomTightly) {
  th::Room room(th::RoomParams{}, u::celsius(18.0));
  th::ModulatingThermostat t(u::celsius(20.0), 300.0, u::watts(500.0));
  const auto t_out = u::celsius(5.0);  // holding power ~440 W, within rating
  for (int i = 0; i < 48 * 60; ++i) {
    const auto d = t.demand(room.temperature(), room.holding_power(t.target(), t_out));
    room.advance(u::minutes(1.0), d.power, t_out);
  }
  EXPECT_NEAR(room.temperature().value(), 20.0, 0.1);
}

TEST(ComfortProfile, DayNightTargets) {
  th::ComfortProfile p;
  EXPECT_EQ(p.target_at_hour(12.0), p.day_target);
  EXPECT_EQ(p.target_at_hour(23.0), p.night_target);
  EXPECT_EQ(p.target_at_hour(3.0), p.night_target);
  EXPECT_EQ(p.target_at_hour(7.0), p.day_target);
}

// ---------------------------------------------------------------- urban ---

TEST(UrbanHeatLedger, FluxAndIntensity) {
  th::UrbanHeatLedger ledger(1.0e6, 0.02);  // 1 km2 district
  const auto boiler = ledger.add_source("always-on-boiler");
  const auto qrad = ledger.add_source("qrad");
  // Boiler rejects 100 kW for a day outdoors; Q.rads deliver 100 kW indoors.
  ledger.record_outdoor(boiler, u::watts(100e3) * u::days(1.0));
  ledger.record_indoor(qrad, u::watts(100e3) * u::days(1.0));
  EXPECT_NEAR(ledger.outdoor_flux_w_per_m2(u::days(1.0)), 0.1, 1e-9);
  EXPECT_NEAR(ledger.uhi_intensity(u::days(1.0)).value(), 0.002, 1e-9);
  EXPECT_NEAR(ledger.useful_heat_fraction(), 0.5, 1e-12);
}

TEST(UrbanHeatLedger, AllUsefulWhenNothingRejected) {
  th::UrbanHeatLedger ledger(1000.0);
  const auto s = ledger.add_source("qrad");
  ledger.record_indoor(s, u::kilowatt_hours(10.0));
  EXPECT_DOUBLE_EQ(ledger.useful_heat_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(ledger.uhi_intensity(u::hours(1.0)).value(), 0.0);
}

TEST(UrbanHeatLedger, RejectsInvalidInput) {
  EXPECT_THROW(th::UrbanHeatLedger(0.0), std::invalid_argument);
  th::UrbanHeatLedger ledger(100.0);
  const auto s = ledger.add_source("x");
  EXPECT_THROW(ledger.record_indoor(s, u::joules(-1.0)), std::invalid_argument);
  EXPECT_THROW(ledger.record_outdoor(s + 1, u::joules(1.0)), std::out_of_range);
  EXPECT_THROW((void)ledger.outdoor_flux_w_per_m2(u::seconds(0.0)), std::invalid_argument);
}
