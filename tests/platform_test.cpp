// End-to-end integration tests of Df3Platform: thermal coupling, the three
// flows, seasonality, energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "df3/core/platform.hpp"
#include "df3/net/fault.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/stats.hpp"
#include "df3/workload/arrivals.hpp"

namespace core = df3::core;
namespace net = df3::net;
namespace th = df3::thermal;
namespace wl = df3::workload;
namespace u = df3::util;

namespace {

core::PlatformConfig winter_config() {
  core::PlatformConfig cfg;
  cfg.seed = 11;
  cfg.start_time = th::start_of_month(0);  // January
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  return cfg;
}

core::BuildingConfig small_building(const std::string& name, int rooms = 2) {
  core::BuildingConfig b;
  b.name = name;
  b.rooms = rooms;
  return b;
}

}  // namespace

TEST(Platform, WinterRoomsReachComfortBand) {
  auto cfg = winter_config();
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0", 3));
  // Steady cloud work keeps the heaters fed.
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 1800.0);
  city.run(u::days(3.0));
  // After warmup, every room sits near its target.
  for (std::size_t r = 0; r < 3; ++r) {
    const double temp = city.room_temperature(0, r).value();
    EXPECT_GT(temp, 17.0) << "room " << r;
    EXPECT_LT(temp, 23.5) << "room " << r;
  }
  EXPECT_LT(city.comfort(0).mean_abs_deviation_k(city.now()), 1.5);
}

TEST(Platform, EdgeRequestsServedWithLowLatency) {
  auto cfg = winter_config();
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0"));
  city.add_edge_source(0, wl::alarm_detection_factory(), 0.02);
  city.run(u::days(1.0));
  const auto& edge = city.flow_metrics().by_flow(wl::Flow::kEdgeIndirect);
  EXPECT_GT(edge.total(), 1000u);
  EXPECT_GT(edge.success_rate(), 0.95);
  EXPECT_LT(edge.response_s.percentile(50.0), 3.0);
}

TEST(Platform, DirectEdgeFasterThanIndirect) {
  // Deterministic request shape so the comparison isolates the path:
  // direct = device->worker0; indirect = device->gateway + staging hop.
  auto fixed = [](df3::util::RngStream&) {
    wl::Request r;
    r.app = "probe";
    r.work_gigacycles = 0.5;
    r.input_size = u::kibibytes(4.0);
    r.output_size = u::bytes(128.0);
    r.deadline_s = 5.0;
    r.preemptible = false;
    return r;
  };
  auto cfg = winter_config();
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0"));
  city.add_edge_source(0, fixed, 0.005, /*direct=*/true);
  city.add_edge_source(0, fixed, 0.005, false);
  city.run(u::days(1.0));
  const auto& direct = city.flow_metrics().by_flow(wl::Flow::kEdgeDirect);
  const auto& indirect = city.flow_metrics().by_flow(wl::Flow::kEdgeIndirect);
  ASSERT_GT(direct.completed, 100u);
  ASSERT_GT(indirect.completed, 100u);
  // The staging-hop premium is well under the sketch's 1 % resolution at the
  // median, so strict ordering is asserted on the exact min and mean; the
  // sketch preserves order, so the medians cannot invert.
  EXPECT_LT(direct.response_s.min(), indirect.response_s.min());
  EXPECT_LT(direct.response_s.mean(), indirect.response_s.mean());
  EXPECT_LE(direct.response_s.median(), indirect.response_s.median());
}

TEST(Platform, CloudFlowCompletesAndPueNearDataFurnaceClaim) {
  auto cfg = winter_config();
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0", 4));
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 3600.0);
  city.run(u::days(2.0));
  const auto& cloud = city.flow_metrics().by_flow(wl::Flow::kCloud);
  EXPECT_GT(cloud.completed, 10u);
  // DF energy: no cooling, only the small fixed overhead -> PUE ~1.026.
  EXPECT_NEAR(city.df_energy().pue(), 1.026, 0.001);
  EXPECT_GT(city.df_energy().it().kwh(), 1.0);
}

TEST(Platform, WinterCapacityExceedsSummerCapacity) {
  // Paper section IV: "in winter, the heat demand increases the computing
  // power that is then reduced in the summer."
  auto run_month = [](int month) {
    core::PlatformConfig cfg;
    cfg.seed = 3;
    cfg.start_time = th::start_of_month(month);
    cfg.regulator.gating = core::GatingPolicy::kAggressive;
    core::Df3Platform city(cfg);
    city.add_building(core::BuildingConfig{.name = "b", .rooms = 4});
    city.run(u::days(5.0));
    double sum = 0.0;
    for (double v : city.capacity_series().values) sum += v;
    return sum / static_cast<double>(city.capacity_series().size());
  };
  const double january = run_month(0);
  const double july = run_month(6);
  EXPECT_GT(january, 10.0);       // most of 64 cores live in winter
  EXPECT_LT(july, january / 4.0); // summer: heaters gated off
}

TEST(Platform, KeepWarmPolicyRetainsSummerEdgeCapacity) {
  core::PlatformConfig cfg;
  cfg.seed = 3;
  cfg.start_time = th::start_of_month(6);  // July
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0"));
  city.add_edge_source(0, wl::alarm_detection_factory(), 0.02);
  city.run(u::days(1.0));
  const auto& edge = city.flow_metrics().by_flow(wl::Flow::kEdgeIndirect);
  EXPECT_GT(edge.success_rate(), 0.9);  // served even with zero heat demand
}

TEST(Platform, AggressiveGatingSendsSummerCloudToDatacenter) {
  core::PlatformConfig cfg;
  cfg.seed = 5;
  cfg.start_time = th::start_of_month(6);
  cfg.regulator.gating = core::GatingPolicy::kAggressive;
  cfg.cluster.cloud_offload_backlog_gc_per_core = 600.0;
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0"));
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 1800.0);
  city.run(u::days(1.0));
  // With heaters gated, usable cores ~0 -> backlog rule ships work to the DC.
  EXPECT_GT(city.flow_metrics().served(wl::ServedBy::kVertical), 0u);
}

TEST(Platform, HeatRegulatorTracksDemandInWinter)
{
  auto cfg = winter_config();
  cfg.regulator.gating = core::GatingPolicy::kAggressive;
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0", 4));
  // Plenty of cloud work: the regulator's ceiling is actually used.
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 900.0);
  city.run(u::days(3.0));
  // Energy-weighted relative tracking error within 35% (on/off quantization
  // of P-states bounds how tightly a single chassis can follow demand).
  EXPECT_LT(city.regulator_relative_error(), 0.35);
  EXPECT_GT(city.df_energy().useful_heat().kwh(), 10.0);
}

TEST(Platform, SeasonAwareRoutingSwitchesTarget) {
  core::PlatformConfig cfg;
  cfg.seed = 7;
  cfg.start_time = th::start_of_month(6);  // July
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0"));
  city.set_cloud_routing("season-aware");
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 1800.0);
  city.run(u::days(1.0));
  const auto& cloud = city.flow_metrics().by_flow(wl::Flow::kCloud);
  ASSERT_GT(cloud.completed, 10u);
  // Everything went straight to the datacenter in summer.
  EXPECT_EQ(city.flow_metrics().served(wl::ServedBy::kVertical), cloud.completed);
}

TEST(Platform, CloudRoutedToAMissingDatacenterIsRejectedNowhere) {
  auto cfg = winter_config();
  cfg.with_datacenter = false;
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0"));
  city.set_cloud_routing("dc-only");
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 1800.0);
  city.run(u::days(1.0));
  const auto& cloud = city.flow_metrics().by_flow(wl::Flow::kCloud);
  ASSERT_GT(cloud.total(), 10u);
  EXPECT_EQ(cloud.rejected, cloud.total());
  EXPECT_EQ(city.flow_metrics().served(wl::ServedBy::kNowhere), cloud.total());
}

TEST(Platform, CapacityAndDemandSeriesAreSampled) {
  auto cfg = winter_config();
  core::Df3Platform city(cfg);
  city.add_building(small_building("b0"));
  city.run(u::hours(6.0));
  EXPECT_NEAR(static_cast<double>(city.capacity_series().size()), 360.0, 2.0);
  EXPECT_EQ(city.capacity_series().size(), city.heat_demand_series().size());
  EXPECT_EQ(city.capacity_series().size(), city.outdoor_series().size());
  EXPECT_EQ(city.capacity_series().size(), city.room_temperature_series().size());
  // January in Paris: heat demand present.
  double demand = 0.0;
  for (double v : city.heat_demand_series().values) demand += v;
  EXPECT_GT(demand, 0.0);
}

TEST(Platform, RouteCacheKeepsItsHitRateUnderLinkFlaps) {
  // Uplinks and building-local links flap every few minutes. A flap stales
  // only the cached routes it can change, so searches stay a small share
  // of sends instead of following every flap.
  constexpr int kRooms = 4;
  core::Df3Platform city(winter_config());
  for (std::size_t b = 0; b < 4; ++b) {
    city.add_building(small_building("b" + std::to_string(b), kRooms));
    city.add_edge_source(b, wl::alarm_detection_factory(), 0.5);
    city.add_edge_source(b, wl::alarm_detection_factory(), 0.2, /*direct=*/true);
    city.add_edge_source(b, wl::fall_detection_factory(), 0.2, /*direct=*/false,
                         /*via_wifi=*/true);
  }
  city.add_cloud_source(wl::risk_simulation_factory(), 0.05);
  // Per building: dev-gw, wifi-gw, gw-internet, then gw-srv<i> for each
  // room with the dev-srv0 and wifi-srv0 back doors right after gw-srv0.
  const std::size_t per_building = 3 + kRooms + 2;
  ASSERT_EQ(city.network().link_count(), 4 * per_building);
  std::vector<std::size_t> uplinks, local;
  for (std::size_t b = 0; b < 4; ++b) {
    uplinks.push_back(b * per_building + 2);
    local.push_back(b * per_building + 1);
    local.push_back(b * per_building + 3);
  }
  net::LinkFlapper flap_up(city.simulation(), "flap-uplink", city.network(),
                           {uplinks, 400.0, 60.0, 0.0}, u::RngStream(5, "flap-uplink"));
  net::LinkFlapper flap_local(city.simulation(), "flap-local", city.network(),
                              {local, 300.0, 30.0, 0.0}, u::RngStream(5, "flap-local"));
  flap_up.start();
  flap_local.start();
  city.run(u::hours(2.0));

  const net::Network& n = city.network();
  EXPECT_GT(flap_up.flaps() + flap_local.flaps(), 100u);
  ASSERT_GT(n.messages_sent(), 10000u);
  EXPECT_LE(static_cast<double>(n.route_searches()),
            0.1 * static_cast<double>(n.messages_sent()))
      << n.route_searches() << " searches for " << n.messages_sent() << " sends";
}

TEST(Platform, RouteSearchesSettleTheSameNodesPerBuildingAtAnyCitySize) {
  // The request path's cold routes stay inside the buildings they serve: a
  // gateway -> device return route settles that building's nodes, not half
  // the city. So the nodes route searches settle per building stay flat
  // when the city grows 10x. Counts, not timing.
  const auto settled_per_building = [](std::size_t buildings) {
    core::PlatformConfig cfg;
    cfg.seed = 2016;
    cfg.start_time = th::start_of_month(0);
    cfg.climate = th::stockholm_climate();
    cfg.federation_degree = 2;
    cfg.with_datacenter = true;
    core::Df3Platform city(cfg);
    for (std::size_t b = 0; b < buildings; ++b) {
      city.add_building(small_building("b" + std::to_string(b), 10));
      city.add_edge_source(b, wl::alarm_detection_factory(), 0.02);
      city.add_edge_source(b, wl::fall_detection_factory(), 0.005, /*direct=*/true);
      city.add_edge_source(b, wl::telemetry_factory(),
                           std::make_unique<wl::FixedIntervalArrivals>(
                               60.0, static_cast<double>(60 * b / buildings)));
    }
    city.run(u::hours(1.0));
    const net::Network& n = city.network();
    EXPECT_GE(n.route_searches(), 3 * buildings);
    return static_cast<double>(n.route_nodes_settled()) / static_cast<double>(buildings);
  };
  const double small = settled_per_building(10);
  const double large = settled_per_building(100);
  EXPECT_GT(small, 0.0);
  EXPECT_LE(large, 1.5 * small) << "settled nodes per building: " << small << " at 10 buildings, "
                                << large << " at 100";
}

TEST(Platform, Validation) {
  core::PlatformConfig bad;
  bad.tick_s = 0.0;
  EXPECT_THROW(core::Df3Platform{bad}, std::invalid_argument);
  core::Df3Platform city(winter_config());
  EXPECT_THROW(city.add_building(core::BuildingConfig{.name = "x", .rooms = 0}),
               std::invalid_argument);
  EXPECT_THROW(city.add_edge_source(5, wl::alarm_detection_factory(), 1.0), std::out_of_range);
  EXPECT_THROW(city.run(u::seconds(-1.0)), std::invalid_argument);
  // NaN passes every "<= 0" test: a NaN tick ran no physics and a NaN
  // duration never ended.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad.tick_s = nan;
  EXPECT_THROW(core::Df3Platform{bad}, std::invalid_argument);
  EXPECT_THROW(city.run(u::seconds(nan)), std::invalid_argument);
}

// Every kind of bad building parameter is rejected before the first
// network node goes in: the platform keeps its buildings, nodes and links,
// and a valid retry under the same name succeeds.
TEST(Platform, RejectedBuildingLeavesThePlatformUnchanged) {
  struct Case {
    const char* what;
    void (*spoil)(core::BuildingConfig&);
  };
  const Case cases[] = {
      {"1R1C room", [](core::BuildingConfig& b) { b.room.resistance_k_per_w = -1.0; }},
      {"2R2C room",
       [](core::BuildingConfig& b) {
         b.high_fidelity_rooms = true;
         b.room_2r2c.c_env_j_per_k = 0.0;
       }},
      {"NaN room resistance",
       [](core::BuildingConfig& b) {
         b.room.resistance_k_per_w = std::numeric_limits<double>::quiet_NaN();
       }},
      {"thermostat gain", [](core::BuildingConfig& b) { b.thermostat_gain_w_per_k = -1.0; }},
      {"NaN thermostat gain",
       [](core::BuildingConfig& b) {
         b.thermostat_gain_w_per_k = std::numeric_limits<double>::quiet_NaN();
       }},
      {"water tank",
       [](core::BuildingConfig& b) {
         b.server = df3::hw::stimergy_boiler_spec();
         th::WaterTankParams tank;
         tank.volume_l = -1.0;
         b.water_tank = tank;
       }},
      {"server spec", [](core::BuildingConfig& b) { b.server.cpu_count = 0; }},
      {"device link", [](core::BuildingConfig& b) { b.device_link.bandwidth = u::bps(0.0); }},
      {"wifi link", [](core::BuildingConfig& b) { b.wifi_link.duty_cycle = 2.0; }},
      {"uplink", [](core::BuildingConfig& b) { b.uplink.base_latency = u::seconds(-1.0); }},
      {"lan",
       [](core::BuildingConfig& b) {
         b.lan.bandwidth = u::bps(std::numeric_limits<double>::quiet_NaN());
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    core::Df3Platform city(winter_config());
    city.add_building(small_building("b0"));
    const std::size_t buildings = city.building_count();
    const std::size_t nodes = city.network().node_count();
    const std::size_t links = city.network().link_count();
    core::BuildingConfig bad = small_building("b1");
    c.spoil(bad);
    EXPECT_THROW(city.add_building(bad), std::invalid_argument);
    EXPECT_EQ(city.building_count(), buildings);
    EXPECT_EQ(city.network().node_count(), nodes);
    EXPECT_EQ(city.network().link_count(), links);
    EXPECT_EQ(city.add_building(small_building("b1")), buildings);
    city.run(u::hours(1.0));
    EXPECT_EQ(city.building_count(), buildings + 1);
  }
  // Policy names live in the platform's cluster config: the first building
  // is refused before it adds a node.
  struct PolicyCase {
    const char* what;
    void (*spoil)(core::ClusterConfig&);
  };
  const PolicyCase policy_cases[] = {
      {"placement", [](core::ClusterConfig& c) { c.placement = "bogus"; }},
      {"ladder rung", [](core::ClusterConfig& c) { c.edge_peak_ladder = {"preempt", "bogus"}; }},
      {"peer selector", [](core::ClusterConfig& c) { c.peer_select = "bogus"; }},
  };
  for (const PolicyCase& c : policy_cases) {
    SCOPED_TRACE(c.what);
    core::PlatformConfig pc = winter_config();
    c.spoil(pc.cluster);
    core::Df3Platform city(pc);
    const std::size_t nodes = city.network().node_count();
    EXPECT_THROW(city.add_building(small_building("b0")), std::invalid_argument);
    EXPECT_EQ(city.building_count(), 0u);
    EXPECT_EQ(city.network().node_count(), nodes);
    EXPECT_EQ(city.network().link_count(), 0u);
  }
}

// The building fields no model constructor checks are checked when the
// building is planned: each bad value throws naming its field before
// anything is added. Accepted, a NaN target or temperature ran the city
// into NaN heat demand and room temperatures, and a negative hot-water
// volume threw from the middle of a tick. The server, CPU and link cases
// are checked by those models' own constructors; a NaN throttle_start
// left the rooms silently unheated.
TEST(Platform, PlanRejectsUncheckedBuildingFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    std::function<void(core::BuildingConfig&)> spoil;
  };
  const auto boiler = [](core::BuildingConfig& b, double litres) {
    b.server = df3::hw::stimergy_boiler_spec();
    b.water_tank = th::WaterTankParams{};
    b.daily_hot_water_l = litres;
  };
  const std::vector<Case> cases = {
      {"daily_hot_water_l", [&](core::BuildingConfig& b) { boiler(b, -1.0); }},
      {"daily_hot_water_l", [&](core::BuildingConfig& b) { boiler(b, nan); }},
      {"comfort.day_target",
       [&](core::BuildingConfig& b) { b.comfort.day_target = u::celsius(nan); }},
      {"comfort.night_target",
       [&](core::BuildingConfig& b) { b.comfort.night_target = u::celsius(nan); }},
      {"comfort.night_start_hour",
       [&](core::BuildingConfig& b) { b.comfort.night_start_hour = 25.0; }},
      {"comfort.night_end_hour", [&](core::BuildingConfig& b) { b.comfort.night_end_hour = nan; }},
      {"comfort.heating_cutoff_outdoor",
       [&](core::BuildingConfig& b) { b.comfort.heating_cutoff_outdoor = u::celsius(inf); }},
      {"initial_temperature",
       [&](core::BuildingConfig& b) { b.initial_temperature = u::celsius(nan); }},
      {"solar_gain_peak_w", [&](core::BuildingConfig& b) { b.solar_gain_peak_w = nan; }},
      {"room.internal_gains",
       [&](core::BuildingConfig& b) { b.room.internal_gains = u::Watts{nan}; }},
      {"room_2r2c.internal_gains",
       [&](core::BuildingConfig& b) {
         b.high_fidelity_rooms = true;
         b.room_2r2c.internal_gains = u::Watts{nan};
       }},
      // The chassis, CPU and link checks compare so that NaN fails them.
      {"throttle_start",
       [&](core::BuildingConfig& b) { b.server.throttle_start = u::celsius(nan); }},
      {"shutdown_temp", [&](core::BuildingConfig& b) { b.server.shutdown_temp = u::celsius(nan); }},
      {"standby_power", [&](core::BuildingConfig& b) { b.server.standby_power = u::Watts{-1.0}; }},
      {"freq_ghz", [&](core::BuildingConfig& b) { b.server.cpu.pstates.front().freq_ghz = nan; }},
      {"voltage_v",
       [&](core::BuildingConfig& b) { b.server.cpu.pstates.front().voltage_v = nan; }},
      {"static_power",
       [&](core::BuildingConfig& b) { b.server.cpu.static_power = u::Watts{-1.0}; }},
      {"dynamic_power_max",
       [&](core::BuildingConfig& b) { b.server.cpu.dynamic_power_max = u::Watts{-1.0}; }},
      {"max_payload", [&](core::BuildingConfig& b) { b.lan.max_payload = u::bytes(nan); }},
      {"max_payload", [&](core::BuildingConfig& b) { b.uplink.max_payload = u::bytes(-1.0); }},
      {"frame_overhead",
       [&](core::BuildingConfig& b) { b.device_link.frame_overhead = u::bytes(nan); }},
      {"frame_overhead",
       [&](core::BuildingConfig& b) { b.wifi_link.frame_overhead = u::bytes(-1.0); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    core::Df3Platform city(winter_config());
    city.add_building(small_building("b0"));
    const std::size_t nodes = city.network().node_count();
    const std::size_t links = city.network().link_count();
    core::BuildingConfig bad = small_building("b1");
    c.spoil(bad);
    try {
      city.add_building(bad);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos) << e.what();
    }
    EXPECT_EQ(city.building_count(), 1u);
    EXPECT_EQ(city.network().node_count(), nodes);
    EXPECT_EQ(city.network().link_count(), links);
    EXPECT_EQ(city.add_building(small_building("b1")), 1u);
    city.run(u::hours(1.0));
    EXPECT_TRUE(std::isfinite(city.room_temperature(1, 0).value()));
  }
}

// Seeded mutation of one numeric field per case, from a valid building of
// each kind (1R1C rooms, 2R2C rooms, a digital-boiler plant): NaN, +-inf, a
// negative value, zero or 1e308. Planning either accepts the building or
// throws std::invalid_argument naming the field before anything is added.
TEST(Platform, PlanSurvivesSeededFieldMutations) {
  struct Field {
    std::string path;  ///< the rejection must name its first component
    bool integral;     ///< takes only the negative and zero mutations
    std::function<void(core::BuildingConfig&, double)> set;
  };
  std::vector<Field> fields = {
      {"rooms", true, [](auto& b, double v) { b.rooms = static_cast<int>(v); }},
      {"thermostat_gain_w_per_k", false, [](auto& b, double v) { b.thermostat_gain_w_per_k = v; }},
      {"solar_gain_peak_w", false, [](auto& b, double v) { b.solar_gain_peak_w = v; }},
      {"daily_hot_water_l", false, [](auto& b, double v) { b.daily_hot_water_l = v; }},
      {"initial_temperature", false,
       [](auto& b, double v) { b.initial_temperature = u::celsius(v); }},
      {"comfort.day_target", false,
       [](auto& b, double v) { b.comfort.day_target = u::celsius(v); }},
      {"comfort.night_target", false,
       [](auto& b, double v) { b.comfort.night_target = u::celsius(v); }},
      {"comfort.night_start_hour", false,
       [](auto& b, double v) { b.comfort.night_start_hour = v; }},
      {"comfort.night_end_hour", false, [](auto& b, double v) { b.comfort.night_end_hour = v; }},
      {"comfort.heating_cutoff_outdoor", false,
       [](auto& b, double v) { b.comfort.heating_cutoff_outdoor = u::celsius(v); }},
      {"room.resistance_k_per_w", false, [](auto& b, double v) { b.room.resistance_k_per_w = v; }},
      {"room.capacitance_j_per_k", false,
       [](auto& b, double v) { b.room.capacitance_j_per_k = v; }},
      {"room.internal_gains", false,
       [](auto& b, double v) { b.room.internal_gains = u::Watts{v}; }},
      {"room_2r2c.r_air_env_k_per_w", false,
       [](auto& b, double v) { b.room_2r2c.r_air_env_k_per_w = v; }},
      {"room_2r2c.r_env_out_k_per_w", false,
       [](auto& b, double v) { b.room_2r2c.r_env_out_k_per_w = v; }},
      {"room_2r2c.c_air_j_per_k", false, [](auto& b, double v) { b.room_2r2c.c_air_j_per_k = v; }},
      {"room_2r2c.c_env_j_per_k", false, [](auto& b, double v) { b.room_2r2c.c_env_j_per_k = v; }},
      {"room_2r2c.internal_gains", false,
       [](auto& b, double v) { b.room_2r2c.internal_gains = u::Watts{v}; }},
      {"server.cpu_count", true,
       [](auto& b, double v) { b.server.cpu_count = static_cast<int>(v); }},
      {"server.cpu.cores", true,
       [](auto& b, double v) { b.server.cpu.cores = static_cast<int>(v); }},
      {"server.cpu.pstates.freq_ghz", false,
       [](auto& b, double v) { b.server.cpu.pstates.front().freq_ghz = v; }},
      {"server.cpu.pstates.voltage_v", false,
       [](auto& b, double v) { b.server.cpu.pstates.back().voltage_v = v; }},
      {"server.cpu.static_power", false,
       [](auto& b, double v) { b.server.cpu.static_power = u::Watts{v}; }},
      {"server.cpu.dynamic_power_max", false,
       [](auto& b, double v) { b.server.cpu.dynamic_power_max = u::Watts{v}; }},
      {"server.standby_power", false,
       [](auto& b, double v) { b.server.standby_power = u::Watts{v}; }},
      {"server.throttle_start", false,
       [](auto& b, double v) { b.server.throttle_start = u::celsius(v); }},
      {"server.shutdown_temp", false,
       [](auto& b, double v) { b.server.shutdown_temp = u::celsius(v); }},
      {"server.aging_reference_junction", false,
       [](auto& b, double v) { b.server.aging_reference_junction = u::celsius(v); }},
  };
  // The water tank's fields, set only on a plant (elsewhere it is unset).
  const auto tank_field = [&](const char* path, auto member) {
    fields.push_back({path, false, [member](core::BuildingConfig& b, double v) {
                        if (b.water_tank) member(*b.water_tank, v);
                      }});
  };
  tank_field("water_tank.volume_l", [](th::WaterTankParams& t, double v) { t.volume_l = v; });
  tank_field("water_tank.ua_w_per_k", [](th::WaterTankParams& t, double v) { t.ua_w_per_k = v; });
  tank_field("water_tank.setpoint",
             [](th::WaterTankParams& t, double v) { t.setpoint = u::celsius(v); });
  tank_field("water_tank.mains", [](th::WaterTankParams& t, double v) { t.mains = u::celsius(v); });
  tank_field("water_tank.ambient",
             [](th::WaterTankParams& t, double v) { t.ambient = u::celsius(v); });
  tank_field("water_tank.legionella_min",
             [](th::WaterTankParams& t, double v) { t.legionella_min = u::celsius(v); });
  tank_field("water_tank.charge_gain_w_per_k",
             [](th::WaterTankParams& t, double v) { t.charge_gain_w_per_k = v; });
  // Every link profile's numbers, for each of the four links.
  using Link = net::LinkProfile core::BuildingConfig::*;
  for (const auto& [name, link] : {std::pair<const char*, Link>{"lan", &core::BuildingConfig::lan},
                                   {"device_link", &core::BuildingConfig::device_link},
                                   {"wifi_link", &core::BuildingConfig::wifi_link},
                                   {"uplink", &core::BuildingConfig::uplink}}) {
    const Link l = link;
    const std::string n = name;
    fields.push_back(
        {n + ".bandwidth", false, [l](auto& b, double v) { (b.*l).bandwidth = u::bps(v); }});
    fields.push_back({n + ".base_latency", false,
                      [l](auto& b, double v) { (b.*l).base_latency = u::seconds(v); }});
    fields.push_back(
        {n + ".max_payload", false, [l](auto& b, double v) { (b.*l).max_payload = u::bytes(v); }});
    fields.push_back({n + ".frame_overhead", false,
                      [l](auto& b, double v) { (b.*l).frame_overhead = u::bytes(v); }});
    fields.push_back({n + ".duty_cycle", false, [l](auto& b, double v) { (b.*l).duty_cycle = v; }});
  }

  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(2016);
  core::Df3Platform city(winter_config());
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const Field& f = fields[rng() % fields.size()];
    double v = 0.0;
    switch (f.integral ? 3 + rng() % 2 : rng() % 6) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = inf; break;
      case 2: v = -inf; break;
      case 3: v = -static_cast<double>(1 + rng() % 100); break;
      case 4: v = 0.0; break;
      default: v = 1e308; break;
    }
    core::BuildingConfig b = small_building("m" + std::to_string(i));
    switch (rng() % 3) {
      case 0: break;
      case 1: b.high_fidelity_rooms = true; break;
      default:
        b.server = df3::hw::stimergy_boiler_spec();
        b.water_tank = th::WaterTankParams{};
        break;
    }
    f.set(b, v);
    SCOPED_TRACE(f.path + " = " + std::to_string(v) + ", case " + std::to_string(i));
    const std::size_t buildings = city.building_count();
    const std::size_t nodes = city.network().node_count();
    const std::size_t links = city.network().link_count();
    try {
      EXPECT_EQ(city.add_building(b), buildings);
      EXPECT_EQ(city.building_count(), buildings + 1);
      ++accepted;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("add_building: ", 0), 0u) << what;
      EXPECT_NE(what.find(f.path.substr(0, f.path.find('.'))), std::string::npos) << what;
      EXPECT_EQ(city.building_count(), buildings);
      EXPECT_EQ(city.network().node_count(), nodes);
      EXPECT_EQ(city.network().link_count(), links);
      ++rejected;
    }
  }
  // The seed reaches both outcomes.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Worker 0 runs a pinned batch at full load, so room 0 runs hotter than its
// neighbours. Every room is sampled at the same tick instant, so the comfort
// record must carry the room mean: sampling room by room would leave every
// sample but the last one with zero weight.
TEST(Platform, ComfortFollowsEveryRoomOfTheBuilding) {
  auto cfg = winter_config();
  cfg.start_time = th::start_of_month(6);  // July: no heat wanted
  cfg.with_datacenter = false;
  core::Df3Platform city(cfg);
  const core::BuildingConfig bc = small_building("b0", 3);
  city.add_building(bc);
  wl::Request batch;
  batch.app = "batch";
  batch.work_gigacycles = 1e6;
  batch.tasks = 64;
  city.inject_pinned(0, 0, batch);

  u::TimeWeightedValue dev;
  u::TimeWeightedValue temp;
  double hot_gap_k = 0.0;
  for (int k = 0; k < 12 * 60; ++k) {
    city.run(u::seconds(cfg.tick_s));
    const double target = bc.comfort.target_at_hour(th::hour_of_day(city.now())).value();
    double dev_sum = 0.0;
    double temp_sum = 0.0;
    for (std::size_t r = 0; r < 3; ++r) {
      const double t_c = city.room_temperature(0, r).value();
      dev_sum += std::abs(t_c - target);
      temp_sum += t_c;
    }
    dev.record(city.now(), dev_sum / 3.0);
    temp.record(city.now(), temp_sum / 3.0);
    hot_gap_k = std::max(hot_gap_k, city.room_temperature(0, 0).value() -
                                        city.room_temperature(0, 2).value());
  }
  ASSERT_GT(hot_gap_k, 1.0);
  EXPECT_NEAR(city.comfort(0).mean_temperature_c(city.now()), temp.mean_until(city.now()), 1e-9);
  EXPECT_NEAR(city.comfort(0).mean_abs_deviation_k(city.now()), dev.mean_until(city.now()),
              1e-9);
}
