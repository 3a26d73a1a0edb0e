// Tests for the scenario config parser, the telemetry CSV export and the
// climate presets.
#include <gtest/gtest.h>

#include <sstream>

#include "df3/core/platform.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/config.hpp"
#include "df3/workload/generators.hpp"

namespace u = df3::util;
namespace th = df3::thermal;
namespace core = df3::core;

// ----------------------------------------------------------------- config ---

TEST(KeyValueConfig, ParsesTypedValuesAndComments) {
  std::istringstream in(
      "# a scenario\n"
      "seed = 42\n"
      "days = 7.5   # trailing comment\n"
      "gating= keepwarm\n"
      "\n"
      "boiler_plant =yes\n");
  const auto cfg = u::KeyValueConfig::parse(in);
  EXPECT_EQ(cfg.get_int("seed", 0), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("days", 0.0), 7.5);
  EXPECT_EQ(cfg.get_string("gating", ""), "keepwarm");
  EXPECT_TRUE(cfg.get_bool("boiler_plant", false));
  EXPECT_TRUE(cfg.has("seed"));
  EXPECT_FALSE(cfg.has("nope"));
  EXPECT_EQ(cfg.keys().size(), 4u);
}

TEST(KeyValueConfig, DefaultsWhenMissing) {
  std::istringstream in("a = 1\n");
  const auto cfg = u::KeyValueConfig::parse(in);
  EXPECT_EQ(cfg.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_FALSE(cfg.get_bool("missing", false));
}

TEST(KeyValueConfig, RejectsMalformedInput) {
  std::istringstream no_eq("just a line\n");
  EXPECT_THROW((void)u::KeyValueConfig::parse(no_eq), std::invalid_argument);
  std::istringstream dup("a = 1\na = 2\n");
  EXPECT_THROW((void)u::KeyValueConfig::parse(dup), std::invalid_argument);
  std::istringstream empty_key("= 3\n");
  EXPECT_THROW((void)u::KeyValueConfig::parse(empty_key), std::invalid_argument);
  std::istringstream bad_types("n = 3x\nb = maybe\nx = nan\ny = inf\nz = -inf\n");
  const auto cfg = u::KeyValueConfig::parse(bad_types);
  EXPECT_THROW((void)cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_double("n", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_bool("b", false), std::invalid_argument);
  // std::stod reads these; a NaN would slip past every "<= 0" guard.
  for (const std::string key : {"x", "y", "z"}) {
    try {
      (void)cfg.get_double(key, 1.0);
      ADD_FAILURE() << key << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW((void)u::KeyValueConfig::parse_file("/nonexistent/x.cfg"), std::runtime_error);
}

TEST(KeyValueConfig, TracksAccessedKeysAndReportsUnused) {
  std::istringstream in(
      "seed = 42\n"
      "routting = heat-aware\n"  // typo: never read by the tool
      "days = 2\n");
  const auto cfg = u::KeyValueConfig::parse(in);
  (void)cfg.get_int("seed", 0);
  (void)cfg.get_double("days", 0.0);
  (void)cfg.has("telemetry");  // asking about an absent key is fine
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "routting");
  std::ostringstream warnings;
  EXPECT_EQ(cfg.warn_unused(warnings), 1u);
  EXPECT_NE(warnings.str().find("routting"), std::string::npos);
  EXPECT_THROW(cfg.check_exhausted(), std::invalid_argument);
  // Reading the stray key clears it.
  (void)cfg.get_string("routting", "");
  EXPECT_TRUE(cfg.unused_keys().empty());
  EXPECT_NO_THROW(cfg.check_exhausted());
  EXPECT_EQ(cfg.warn_unused(warnings), 0u);
}

TEST(KeyValueConfig, CheckExhaustedNamesEveryStrayKey) {
  std::istringstream in("alpha = 1\nbeta = 2\n");
  const auto cfg = u::KeyValueConfig::parse(in);
  try {
    cfg.check_exhausted();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'alpha'"), std::string::npos);
    EXPECT_NE(msg.find("'beta'"), std::string::npos);
  }
}

// ----------------------------------------------------------- csv export ---

TEST(SeriesCsv, HeaderAndRowShapes) {
  core::PlatformConfig cfg;
  cfg.seed = 3;
  cfg.start_time = th::start_of_month(0);
  core::Df3Platform city(cfg);
  city.add_building({.name = "b0", .rooms = 1});
  city.run(df3::util::hours(1.0));
  std::ostringstream os;
  city.export_series_csv(os);
  std::istringstream in(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "time_s,room_mean_c,usable_cores,heat_demand_w,outdoor_c");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4);
  }
  EXPECT_NEAR(static_cast<double>(rows), 60.0, 2.0);  // one per minute tick
}

// ------------------------------------------------------- climate presets ---

TEST(ClimatePresets, WinterSeverityOrdering) {
  // January mean: Stockholm < Dresden < Amsterdam < Paris < Seville.
  EXPECT_LT(th::stockholm_climate().monthly_mean_c[0], th::dresden_climate().monthly_mean_c[0]);
  EXPECT_LT(th::dresden_climate().monthly_mean_c[0], th::amsterdam_climate().monthly_mean_c[0]);
  EXPECT_LT(th::amsterdam_climate().monthly_mean_c[0], th::paris_climate().monthly_mean_c[0]);
  EXPECT_LT(th::paris_climate().monthly_mean_c[0], th::seville_climate().monthly_mean_c[0]);
}

TEST(ClimatePresets, SevilleHasNoHeatingSeasonParisDoes) {
  const th::ComfortProfile comfort;
  const th::WeatherModel seville(th::seville_climate(), 1);
  const th::WeatherModel stockholm(th::stockholm_climate(), 1);
  int seville_heating_months = 0, stockholm_heating_months = 0;
  for (int m = 0; m < 12; ++m) {
    const double mid = th::start_of_month(m) + 14.0 * th::kSecondsPerDay;
    if (seville.seasonal_component(mid) < comfort.heating_cutoff_outdoor) {
      ++seville_heating_months;
    }
    if (stockholm.seasonal_component(mid) < comfort.heating_cutoff_outdoor) {
      ++stockholm_heating_months;
    }
  }
  EXPECT_LE(seville_heating_months, 6);
  EXPECT_GE(stockholm_heating_months, 9);
  EXPECT_GT(stockholm_heating_months, seville_heating_months);
}
