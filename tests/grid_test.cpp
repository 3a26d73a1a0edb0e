// Grid-signal plane (DESIGN.md §15): signal sampling, CSV loading, the
// grid-aware policies, the pay-for-what-you-ask lazy fills, spend-time
// cost/carbon attribution, and demand-response injection — including the
// shed-and-recover conservation soak the acceptance criteria call for.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "df3/core/grid_event.hpp"
#include "df3/core/platform.hpp"
#include "df3/grid/signal.hpp"
#include "df3/metrics/collectors.hpp"
#include "df3/policy/policy.hpp"
#include "df3/policy/registry.hpp"

namespace core = df3::core;
namespace grid = df3::grid;
namespace metrics = df3::metrics;
namespace policy = df3::policy;
namespace wl = df3::workload;
namespace u = df3::util;

namespace {

// ------------------------------------------------------------- substrate ---

TEST(GridSignal, StepSamplingHoldsLastBreakpoint) {
  grid::GridSignal s;
  s.add_point(0.0, {100.0, 0.10, 0.5});
  s.add_point(3600.0, {200.0, 0.20, 0.3});
  EXPECT_DOUBLE_EQ(s.sample(-5.0).carbon_gco2_per_kwh, 100.0);  // before start: hold first
  EXPECT_DOUBLE_EQ(s.sample(0.0).carbon_gco2_per_kwh, 100.0);
  EXPECT_DOUBLE_EQ(s.sample(3599.9).carbon_gco2_per_kwh, 100.0);
  EXPECT_DOUBLE_EQ(s.sample(3600.0).carbon_gco2_per_kwh, 200.0);
  EXPECT_DOUBLE_EQ(s.sample(1e9).carbon_gco2_per_kwh, 200.0);  // no period: hold last
}

TEST(GridSignal, PeriodWrapsQueries) {
  grid::GridSignal s;
  s.add_point(0.0, {100.0, 0.10, 0.5});
  s.add_point(43200.0, {40.0, 0.05, 0.9});
  s.set_period(86400.0);
  // Day three, 13:00 — wraps to the midday breakpoint.
  EXPECT_DOUBLE_EQ(s.sample(2.0 * 86400.0 + 13.0 * 3600.0).carbon_gco2_per_kwh, 40.0);
  // Day three, 03:00 — wraps to the midnight breakpoint.
  EXPECT_DOUBLE_EQ(s.sample(2.0 * 86400.0 + 3.0 * 3600.0).carbon_gco2_per_kwh, 100.0);
}

TEST(GridSignal, RejectsNaNAndNonMonotonicPoints) {
  grid::GridSignal s;
  s.add_point(10.0, {100.0, 0.10, 0.5});
  EXPECT_THROW(s.add_point(10.0, {1.0, 1.0, 1.0}), std::invalid_argument);  // equal time
  EXPECT_THROW(s.add_point(5.0, {1.0, 1.0, 1.0}), std::invalid_argument);   // going back
  EXPECT_THROW(s.add_point(20.0, {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(s.set_period(5.0), std::invalid_argument);  // period inside the trace
  EXPECT_EQ(s.size(), 1u);
}

TEST(GridPlane, RegionLookupThrowsListingKnownNames) {
  grid::GridPlane plane = grid::two_region_demo_plane();
  EXPECT_EQ(plane.region_count(), 2u);
  EXPECT_EQ(plane.region_index("green"), 0u);
  EXPECT_EQ(plane.region_index("dirty"), 1u);
  try {
    (void)plane.region_index("gren");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gren"), std::string::npos) << msg;
    EXPECT_NE(msg.find("green"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dirty"), std::string::npos) << msg;
  }
  EXPECT_FALSE(plane.curtailed(0));
  plane.set_curtailed(0, true);
  EXPECT_TRUE(plane.curtailed(0));
  EXPECT_FALSE(plane.curtailed(1));
}

TEST(GridPlane, DemoPlaneGreenIsStrictlyCleanerAndCheaper) {
  const grid::GridPlane plane = grid::two_region_demo_plane();
  for (double t = 0.0; t < 86400.0; t += 1800.0) {
    const grid::GridSample g = plane.signal(0).sample(t);
    const grid::GridSample d = plane.signal(1).sample(t);
    EXPECT_LT(g.carbon_gco2_per_kwh, d.carbon_gco2_per_kwh) << "t=" << t;
    EXPECT_LT(g.price_eur_per_kwh, d.price_eur_per_kwh) << "t=" << t;
  }
}

// ------------------------------------------------------------ CSV loader ---

TEST(GridCsv, ParsesInterleavedRegionsAndPeriodDirective) {
  std::istringstream in(
      "# period_s = 86400\n"
      "region,time_s,carbon_gco2_per_kwh,price_eur_per_kwh,renewable_fraction\n"
      "a,0,100,0.10,0.5\n"
      "b,0,400,0.30,0.1\n"
      "a,43200,50,0.05,0.9\n"
      "b,43200,350,0.25,0.2\n");
  const grid::GridPlane plane = grid::load_signals_csv(in, "test.csv");
  EXPECT_EQ(plane.region_count(), 2u);
  EXPECT_DOUBLE_EQ(plane.signal(0).period_s(), 86400.0);
  EXPECT_DOUBLE_EQ(plane.signal(plane.region_index("b")).sample(86400.0 + 1.0).carbon_gco2_per_kwh,
                   400.0);
}

TEST(GridCsv, RejectsNonMonotonicTimestampNamingRow) {
  std::istringstream in(
      "region,time_s,carbon_gco2_per_kwh,price_eur_per_kwh,renewable_fraction\n"
      "a,0,100,0.10,0.5\n"
      "a,3600,90,0.09,0.6\n"
      "a,3600,80,0.08,0.7\n");
  try {
    (void)grid::load_signals_csv(in, "bad.csv");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad.csv:4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("non-monotonic"), std::string::npos) << msg;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << "one-line error contract: " << msg;
  }
}

TEST(GridCsv, RejectsNaNNamingRow) {
  std::istringstream in(
      "region,time_s,carbon_gco2_per_kwh,price_eur_per_kwh,renewable_fraction\n"
      "a,0,nan,0.10,0.5\n");
  try {
    (void)grid::load_signals_csv(in, "nan.csv");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nan.csv:2"), std::string::npos) << msg;
  }
}

TEST(GridCsv, RejectsMissingHeaderBadFieldCountAndEmptyFile) {
  std::istringstream no_header("a,0,100,0.10,0.5\n");
  EXPECT_THROW((void)grid::load_signals_csv(no_header, "x"), std::invalid_argument);
  std::istringstream short_row(
      "region,time_s,carbon_gco2_per_kwh,price_eur_per_kwh,renewable_fraction\n"
      "a,0,100\n");
  EXPECT_THROW((void)grid::load_signals_csv(short_row, "x"), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW((void)grid::load_signals_csv(empty, "x"), std::invalid_argument);
  EXPECT_THROW((void)grid::load_signals_csv_file("/nonexistent/grid.csv"), std::runtime_error);
}

// ------------------------------------------------------- energy ledger -----

TEST(GridLedger, AttributesSpendAtGivenSignalAndMerges) {
  metrics::EnergyLedger a;
  a.add_grid_spend(u::Joules{3.6e6}, 0.20, 300.0);  // 1 kWh
  EXPECT_DOUBLE_EQ(a.grid_cost_eur(), 0.20);
  EXPECT_DOUBLE_EQ(a.grid_co2_g(), 300.0);
  metrics::EnergyLedger b;
  b.add_grid_spend(u::Joules{1.8e6}, 0.10, 100.0);  // 0.5 kWh
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.grid_cost_eur(), 0.25);
  EXPECT_DOUBLE_EQ(a.grid_co2_g(), 350.0);
  EXPECT_THROW(a.add_grid_spend(u::Joules{-1.0}, 0.1, 1.0), std::invalid_argument);
}

// ----------------------------------------------------- policies (unit) -----

TEST(GridPolicy, CarbonAwarePicksLowestCarbonBacklogBreaksTies) {
  auto ca = policy::Registry::global().make_routing("carbon-aware");
  EXPECT_TRUE(ca->needs_cluster_info());
  EXPECT_TRUE(ca->needs_grid());
  const std::vector<policy::ClusterInfo> clusters = {
      {.backlog_gc_per_core = 0.0, .carbon_gco2_per_kwh = 300.0},
      {.backlog_gc_per_core = 9.0, .carbon_gco2_per_kwh = 50.0},
      {.backlog_gc_per_core = 1.0, .carbon_gco2_per_kwh = 50.0},
  };
  policy::RoutingView view;
  view.cluster_count = clusters.size();
  view.clusters = clusters;
  view.grid_valid = true;
  EXPECT_EQ(ca->pick(view), 2u);  // cleanest, least-backlogged of the tie
  // Without a plane the policy must fall back to round-robin, not trust
  // the zeroed grid fields.
  view.grid_valid = false;
  EXPECT_EQ(ca->pick(view), 0u);
  EXPECT_EQ(ca->pick(view), 1u);
  EXPECT_EQ(ca->pick(view), 2u);
  EXPECT_EQ(ca->pick(view), 0u);
}

TEST(GridPolicy, PriceAwarePicksLowestPrice) {
  auto pa = policy::Registry::global().make_routing("price-aware");
  EXPECT_TRUE(pa->needs_grid());
  const std::vector<policy::ClusterInfo> clusters = {
      {.backlog_gc_per_core = 0.0, .price_eur_per_kwh = 0.30},
      {.backlog_gc_per_core = 0.0, .price_eur_per_kwh = 0.07},
  };
  policy::RoutingView view;
  view.cluster_count = clusters.size();
  view.clusters = clusters;
  view.grid_valid = true;
  EXPECT_EQ(pa->pick(view), 1u);
}

TEST(GridPolicy, GreenestPeerFallsBackToRingWithoutGrid) {
  auto g = policy::Registry::global().make_peer_selector("greenest");
  EXPECT_TRUE(g->needs_grid());
  const std::vector<policy::PeerInfo> peers = {
      {.backlog_gc_per_core = 0.0, .free_cores = 1, .carbon_gco2_per_kwh = 400.0},
      {.backlog_gc_per_core = 0.0, .free_cores = 1, .carbon_gco2_per_kwh = 40.0},
  };
  policy::PeerView view{.peers = peers, .grid_valid = true};
  EXPECT_EQ(g->pick(view), 1u);
  view.grid_valid = false;
  EXPECT_EQ(g->pick(view), 0u);  // ring fallback: next neighbor
}

/// Mechanism mock recording which levers a rung pulled.
struct MockMechanism final : policy::LadderMechanism {
  int preempt = 0, horizontal = 0, vertical = 0, delay = 0;
  policy::RungOutcome horizontal_result = policy::RungOutcome::kNoOp;
  policy::RungOutcome vertical_result = policy::RungOutcome::kNoOp;
  policy::RungOutcome relieve_by_preemption(core::Task&) override {
    ++preempt;
    return policy::RungOutcome::kNoOp;
  }
  policy::RungOutcome relieve_by_horizontal(core::Task&) override {
    ++horizontal;
    return horizontal_result;
  }
  policy::RungOutcome relieve_by_vertical(core::Task&) override {
    ++vertical;
    return vertical_result;
  }
  policy::RungOutcome relieve_by_delay(core::Task&) override {
    ++delay;
    return policy::RungOutcome::kParked;
  }
};

TEST(GridPolicy, GridShedRungFiresOnlyInsideCurtailmentWindow) {
  auto rung = policy::Registry::global().make_rung("grid-shed");
  EXPECT_TRUE(rung->needs_grid());
  MockMechanism m;
  core::Task task;         // the mock never reads it
  policy::RungView view;  // grid_valid = false: unbound cluster
  EXPECT_EQ(rung->apply(m, task, view), policy::RungOutcome::kNoOp);
  view.grid_valid = true;  // bound, but no window open
  EXPECT_EQ(rung->apply(m, task, view), policy::RungOutcome::kNoOp);
  EXPECT_EQ(m.horizontal + m.vertical, 0);
  // Window open: horizontal first, vertical as fallback.
  view.curtailment_active = true;
  m.horizontal_result = policy::RungOutcome::kResolved;
  EXPECT_EQ(rung->apply(m, task, view), policy::RungOutcome::kResolved);
  EXPECT_EQ(m.horizontal, 1);
  EXPECT_EQ(m.vertical, 0);
  m.horizontal_result = policy::RungOutcome::kNoOp;
  m.vertical_result = policy::RungOutcome::kResolved;
  EXPECT_EQ(rung->apply(m, task, view), policy::RungOutcome::kResolved);
  EXPECT_EQ(m.vertical, 1);
}

// ------------------------------------------- platform wiring + lazy fill ---

wl::RequestFactory tiny_cloud_factory() {
  return [](u::RngStream& rng) {
    wl::Request r;
    r.app = "grid-cloud";
    r.tasks = 1;
    r.work_gigacycles = rng.uniform(1.0, 4.0);
    r.input_size = u::kibibytes(16.0);
    r.output_size = u::kibibytes(16.0);
    r.preemptible = true;
    return r;
  };
}

std::unique_ptr<core::Df3Platform> two_region_city(std::uint64_t seed, const std::string& routing,
                                                   std::vector<std::string> ladder = {"preempt",
                                                                                      "delay"},
                                                   bool with_grid = true) {
  core::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.tick_s = 60.0;
  cfg.threads = 1;
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  cfg.cluster.edge_peak_ladder = std::move(ladder);
  auto city = std::make_unique<core::Df3Platform>(cfg);
  for (int i = 0; i < 2; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = 1;
    b.grid_region = (i == 0) ? "green" : "dirty";
    city->add_building(b);
  }
  city->set_cloud_routing(routing);
  if (with_grid) city->install_grid(grid::two_region_demo_plane());
  return city;
}

TEST(GridPlatform, InstallValidatesAndBindsRegions) {
  auto city = two_region_city(1, "df-first");
  EXPECT_EQ(city->building_region(0), 0u);
  EXPECT_EQ(city->building_region(1), 1u);
  // Re-install is a programming error, not a reconfiguration path.
  EXPECT_THROW(city->install_grid(grid::two_region_demo_plane()), std::logic_error);
  EXPECT_THROW(city->install_grid(grid::GridPlane{}), std::logic_error);

  // A building naming an unknown region fails loudly at add time.
  core::PlatformConfig cfg;
  core::Df3Platform bad(cfg);
  bad.install_grid(grid::two_region_demo_plane());
  core::BuildingConfig b;
  b.name = "typo";
  b.rooms = 1;
  b.grid_region = "geen";
  EXPECT_THROW(bad.add_building(b), std::invalid_argument);
}

TEST(GridPlatform, BoilerPlantDrawsFromItsRegion) {
  // A digital-boiler plant has no rooms but still draws grid energy: it
  // must take its own region slot, and buildings added after it must
  // keep theirs.
  core::PlatformConfig cfg;
  cfg.threads = 1;
  core::Df3Platform city(cfg);
  core::BuildingConfig rooms;
  rooms.name = "flats";
  rooms.rooms = 1;
  rooms.grid_region = "green";
  city.add_building(rooms);
  core::BuildingConfig boiler;
  boiler.name = "boiler";
  boiler.server = df3::hw::stimergy_boiler_spec();
  df3::thermal::WaterTankParams tank;
  tank.setpoint = u::celsius(58.0);
  boiler.water_tank = tank;
  boiler.grid_region = "dirty";
  city.add_building(boiler);
  rooms.name = "offices";
  city.add_building(rooms);
  city.install_grid(grid::two_region_demo_plane());
  EXPECT_EQ(city.building_region(0), 0u);
  EXPECT_EQ(city.building_region(1), 1u);
  EXPECT_EQ(city.building_region(2), 0u);
  city.run(u::hours(2.0));
  // The dirty region holds only the boiler, so its energy is the boiler's.
  EXPECT_GT(city.grid_accounts()[1].energy_j, 0.0);
  EXPECT_GT(city.grid_accounts()[0].energy_j, 0.0);
}

TEST(GridPlatform, TickSamplesSignalsPerRegion) {
  auto city = two_region_city(1, "df-first");
  city->run(u::hours(13.0));  // past the midday breakpoint
  const grid::GridSample& g = city->grid_sample(0);
  const grid::GridSample& d = city->grid_sample(1);
  EXPECT_DOUBLE_EQ(g.carbon_gco2_per_kwh, 40.0);   // green noon sample
  EXPECT_DOUBLE_EQ(d.carbon_gco2_per_kwh, 350.0);  // dirty noon sample
  // Spend-time attribution ran for both regions: energy, cost and carbon
  // accrued, and (no events) zero curtailed ticks.
  const auto& accounts = city->grid_accounts();
  ASSERT_EQ(accounts.size(), 2u);
  for (const auto& acc : accounts) {
    EXPECT_GT(acc.energy_j, 0.0);
    EXPECT_GT(acc.cost_eur, 0.0);
    EXPECT_GT(acc.co2_g, 0.0);
    EXPECT_EQ(acc.curtailed_ticks, 0u);
  }
  EXPECT_NEAR(city->df_energy().grid_cost_eur(), accounts[0].cost_eur + accounts[1].cost_eur,
              1e-9);
}

// The pay-for-what-you-ask contract, per flag: a policy that does not
// declare a need must never trigger the corresponding fill.
TEST(GridPlatform, RoutingFillsGateOnDeclaredNeeds) {
  const auto drive = [](const std::string& routing, bool with_grid) {
    auto city = two_region_city(3, routing, {"preempt", "delay"}, with_grid);
    city->add_cloud_source(tiny_cloud_factory(), 1.0 / 120.0);
    city->run(u::hours(2.0));
    return city->routing_fill_stats();
  };
  const auto none = drive("df-first", true);
  EXPECT_EQ(none.season, 0u);
  EXPECT_EQ(none.cluster, 0u);
  EXPECT_EQ(none.grid, 0u);
  const auto season = drive("season-aware", true);
  EXPECT_GT(season.season, 0u);
  EXPECT_EQ(season.cluster, 0u);
  EXPECT_EQ(season.grid, 0u);
  const auto cluster = drive("least-loaded", true);
  EXPECT_EQ(cluster.season, 0u);
  EXPECT_GT(cluster.cluster, 0u);
  EXPECT_EQ(cluster.grid, 0u);
  const auto both = drive("carbon-aware", true);
  EXPECT_GT(both.cluster, 0u);
  EXPECT_GT(both.grid, 0u);
  // Asking for grid with no plane installed: the need goes unhonored (the
  // policy sees grid_valid = false), and the fill counter stays zero.
  const auto unhonored = drive("carbon-aware", false);
  EXPECT_GT(unhonored.cluster, 0u);
  EXPECT_EQ(unhonored.grid, 0u);
}

/// Probe routing policy: asks for cluster info only, and records the grid
/// fields it observes so the no-stale-values half of the contract is
/// checkable from outside.
struct ProbeState {
  double max_abs_grid_field = 0.0;
  std::uint64_t picks = 0;
};

class ProbeRouting final : public policy::RoutingPolicy {
 public:
  explicit ProbeRouting(ProbeState* state) : state_(state) {}
  [[nodiscard]] std::string_view name() const override { return "probe-no-grid"; }
  [[nodiscard]] bool needs_cluster_info() const override { return true; }
  std::size_t pick(const policy::RoutingView& view) override {
    for (const auto& c : view.clusters) {
      state_->max_abs_grid_field =
          std::max({state_->max_abs_grid_field, std::abs(c.carbon_gco2_per_kwh),
                    std::abs(c.price_eur_per_kwh), std::abs(c.renewable_fraction)});
    }
    ++state_->picks;
    return 0;
  }

 private:
  ProbeState* state_;
};

TEST(GridPlatform, PolicyThatDoesNotAskNeverObservesGridValues) {
  static ProbeState state;
  static bool registered = false;
  if (!registered) {
    registered = true;
    policy::Registry::global().register_routing(
        "probe-no-grid", [] { return std::make_unique<ProbeRouting>(&state); });
  }
  auto city = two_region_city(4, "carbon-aware");
  city->add_cloud_source(tiny_cloud_factory(), 1.0 / 120.0);
  // Warm the scratch with grid-filled picks, then swap to the probe: if the
  // platform failed to re-zero the scratch, the probe would see the stale
  // carbon/price values of the carbon-aware picks.
  city->run(u::hours(1.0));
  EXPECT_GT(city->routing_fill_stats().grid, 0u);
  city->set_cloud_routing("probe-no-grid");
  city->run(u::hours(2.0));
  EXPECT_GT(state.picks, 0u);
  EXPECT_EQ(state.max_abs_grid_field, 0.0)
      << "probe observed stale grid values it never asked for";
}

TEST(GridPlatform, RungAndPeerGridFillsGateOnLadderNeeds) {
  // No grid-aware rung, no greenest selector: both cluster-side fill
  // counters must stay zero even with a plane installed and traffic up.
  auto city = two_region_city(5, "df-first");
  city->add_cloud_source(tiny_cloud_factory(), 1.0 / 300.0);
  city->run(u::hours(2.0));
  for (std::size_t b = 0; b < city->building_count(); ++b) {
    EXPECT_EQ(city->cluster(b).policy_counters().rung_grid_fills, 0u) << b;
    EXPECT_EQ(city->cluster(b).policy_counters().peer_grid_fills, 0u) << b;
  }
}

// ------------------------------------------------ demand-response events ---

TEST(GridEvent, ValidatesConfigAndTogglesDeterministically) {
  auto city = two_region_city(6, "df-first");
  std::vector<core::Cluster*> clusters = {&city->cluster(0)};
  core::GridEventConfig bad;
  bad.region = 7;  // plane has two regions
  EXPECT_THROW(core::GridEventSource(city->simulation(), "bad", *city->grid_plane(), clusters,
                                     bad, u::RngStream(6, "bad")),
               std::out_of_range);
  bad.region = 0;
  bad.shed_fraction = 1.5;
  EXPECT_THROW(core::GridEventSource(city->simulation(), "bad", *city->grid_plane(), clusters,
                                     bad, u::RngStream(6, "bad")),
               std::invalid_argument);

  core::GridEventConfig cfg;
  cfg.region = 0;
  cfg.shed_fraction = 1.0;
  core::GridEventSource src(city->simulation(), "ev", *city->grid_plane(), clusters, cfg,
                            u::RngStream(6, "ev"));
  EXPECT_FALSE(src.running());
  src.force_toggle();
  EXPECT_TRUE(src.active());
  EXPECT_TRUE(city->grid_plane()->curtailed(0));
  EXPECT_EQ(src.windows(), 1u);
  // Every worker of the managed cluster is power-gated at full shed.
  for (std::size_t w = 0; w < city->cluster(0).worker_count(); ++w) {
    EXPECT_FALSE(city->cluster(0).worker(w).server().powered());
  }
  src.force_toggle();
  EXPECT_FALSE(src.active());
  EXPECT_FALSE(city->grid_plane()->curtailed(0));
  for (std::size_t w = 0; w < city->cluster(0).worker_count(); ++w) {
    EXPECT_TRUE(city->cluster(0).worker(w).server().powered());
  }
}

TEST(GridEvent, StopRestoresMidWindowAndSameSeedSameSchedule) {
  const auto run_windows = [](std::uint64_t seed) {
    auto city = two_region_city(seed, "df-first");
    std::vector<core::Cluster*> clusters = {&city->cluster(0)};
    core::GridEventConfig cfg;
    cfg.region = 0;
    cfg.mean_up_s = 3600.0;
    cfg.mean_down_s = 1800.0;
    core::GridEventSource src(city->simulation(), "ev", *city->grid_plane(), clusters, cfg,
                              u::RngStream(seed, "ev"));
    src.start();
    city->run(u::days(1.0));
    src.stop();
    // stop() always leaves a recovered region, even mid-window.
    EXPECT_FALSE(city->grid_plane()->curtailed(0));
    for (std::size_t w = 0; w < city->cluster(0).worker_count(); ++w) {
      EXPECT_TRUE(city->cluster(0).worker(w).server().powered());
    }
    EXPECT_GT(src.windows(), 0u);
    // Curtailed ticks were accounted to the curtailed region only.
    EXPECT_GT(city->grid_accounts()[0].curtailed_ticks, 0u);
    EXPECT_EQ(city->grid_accounts()[1].curtailed_ticks, 0u);
    return src.windows();
  };
  EXPECT_EQ(run_windows(42), run_windows(42));
  // Different seed, different exponential dwells (same-schedule would mean
  // the RNG stream name is ignoring the seed).
  EXPECT_NE(run_windows(42), run_windows(43));
}

TEST(GridEvent, CurtailmentReducesFleetEnergy) {
  // Paired winter keepwarm runs, identical but for the injector: shedding
  // half the green fleet for a sizeable slice of the day must show up as
  // strictly lower IT energy.
  const auto run_kwh = [](bool with_events) {
    auto city = two_region_city(7, "df-first");
    city->add_cloud_source(tiny_cloud_factory(), 1.0 / 300.0);
    std::unique_ptr<core::GridEventSource> src;
    if (with_events) {
      std::vector<core::Cluster*> clusters = {&city->cluster(0)};
      core::GridEventConfig cfg;
      cfg.region = 0;
      cfg.mean_up_s = 7200.0;
      cfg.mean_down_s = 3600.0;
      src = std::make_unique<core::GridEventSource>(city->simulation(), "ev",
                                                    *city->grid_plane(), std::move(clusters), cfg,
                                                    u::RngStream(7, "ev"));
      src->start();
    }
    city->run(u::days(1.0));
    if (src) src->stop();
    return city->df_energy().it().kwh();
  };
  const double baseline = run_kwh(false);
  const double shed = run_kwh(true);
  EXPECT_LT(shed, baseline);
}

// --------------------------------------- shed-and-recover conservation -----

wl::RequestFactory soak_edge_factory() {
  return [](u::RngStream& rng) {
    wl::Request r;
    r.app = "grid-soak-edge";
    r.work_gigacycles = rng.uniform(1.0, 4.0);
    r.tasks = 1;
    r.input_size = u::kibibytes(32.0);
    r.output_size = u::kibibytes(1.0);
    r.deadline_s = rng.uniform(2.0, 10.0);
    r.preemptible = false;
    return r;
  };
}

void run_shed_soak(std::uint64_t seed) {
  core::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.audit = metrics::AuditLevel::kFull;
  cfg.tick_s = 60.0;
  cfg.threads = 1;
  cfg.with_datacenter = true;
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  cfg.cluster.edge_peak_ladder = {"grid-shed", "preempt", "horizontal", "delay"};
  cfg.cluster.peer_select = "greenest";
  cfg.cluster.cloud_offload_backlog_gc_per_core = 50.0;
  core::Df3Platform city(cfg);
  for (int i = 0; i < 2; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = i == 0 ? 2 : 1;
    b.grid_region = i == 0 ? "green" : "dirty";
    city.add_building(b);
  }
  city.set_cloud_routing("carbon-aware");
  city.install_grid(grid::two_region_demo_plane());
  city.add_edge_source(0, soak_edge_factory(), 0.5);
  city.add_edge_source(1, soak_edge_factory(), 0.5);
  city.add_cloud_source(tiny_cloud_factory(), 0.05);

  // Aggressive duty cycle: many shed-and-recover transitions per run, on
  // both regions, so preempt/horizontal/delay all fire against a fleet
  // that keeps losing and regaining chassis.
  std::vector<core::Cluster*> green = {&city.cluster(0)};
  std::vector<core::Cluster*> dirty = {&city.cluster(1)};
  core::GridEventConfig gcfg;
  gcfg.region = 0;
  gcfg.mean_up_s = 900.0;
  gcfg.mean_down_s = 300.0;
  core::GridEventConfig dcfg = gcfg;
  dcfg.region = 1;
  core::GridEventSource ev_g(city.simulation(), "ev-green", *city.grid_plane(), green, gcfg,
                             u::RngStream(seed, "ev-green"));
  core::GridEventSource ev_d(city.simulation(), "ev-dirty", *city.grid_plane(), dirty, dcfg,
                             u::RngStream(seed, "ev-dirty"));
  ev_g.start();
  ev_d.start();

  city.run(u::hours(2.0));
  ev_g.stop();
  ev_d.stop();
  city.stop_sources();
  city.run(u::hours(1.0));

  EXPECT_GT(ev_g.windows() + ev_d.windows(), 4u) << "soak barely curtailed anything";
  const auto structural = city.audit_now();
  EXPECT_TRUE(structural.empty()) << structural.front();
  const auto& auditor = city.auditor();
  const auto quiescent = auditor.check_quiescent();
  EXPECT_TRUE(quiescent.empty()) << quiescent.front();
  EXPECT_EQ(auditor.open_requests(), 0u);
  EXPECT_EQ(auditor.duplicate_terminals(), 0u);
  EXPECT_EQ(auditor.unknown_terminals(), 0u);
  EXPECT_EQ(auditor.submitted(), auditor.completed() + auditor.rejected() + auditor.dropped() +
                                     auditor.deadline_missed());
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    EXPECT_EQ(city.cluster(b).in_flight(), 0u) << b;
    EXPECT_EQ(city.cluster(b).queued(), 0u) << b;
    EXPECT_EQ(city.cluster(b).stats().intake(), city.cluster(b).stats().terminal()) << b;
  }
}

TEST(GridSoak, ConservationHoldsThroughShedAndRecover) {
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_shed_soak(seed);
  }
}

}  // namespace
