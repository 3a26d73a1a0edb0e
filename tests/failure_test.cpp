// Failure-injection integration tests: partitions, thermal shutdowns,
// volunteer churn storms — the platform must degrade gracefully and
// account every request.
#include <gtest/gtest.h>

#include "df3/baselines/desktop_grid.hpp"
#include "df3/core/fault.hpp"
#include "df3/core/platform.hpp"
#include "df3/net/fault.hpp"
#include "df3/thermal/calendar.hpp"

namespace core = df3::core;
namespace th = df3::thermal;
namespace wl = df3::workload;
namespace u = df3::util;

namespace {
core::PlatformConfig winter_cfg(std::uint64_t seed) {
  core::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.start_time = th::start_of_month(0);
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  return cfg;
}
}  // namespace

TEST(FailureInjection, UplinkPartitionDropsCloudThenRecovers) {
  core::Df3Platform city(winter_cfg(3));
  city.add_building({.name = "b0", .rooms = 2});
  city.add_cloud_source(wl::risk_simulation_factory(), 1.0 / 600.0);
  city.run(u::hours(6.0));
  const auto before = city.flow_metrics().by_flow(wl::Flow::kCloud);
  const auto dropped_before = before.dropped;
  EXPECT_EQ(dropped_before, 0u);

  // Sever the building's uplink (link 2 of building 0: device-gw=0,
  // wifi-gw=1, gw-internet=2 by construction order).
  city.network().set_link_up(2, false);
  city.run(u::hours(6.0));
  const auto during = city.flow_metrics().by_flow(wl::Flow::kCloud);
  EXPECT_GT(during.dropped, dropped_before);
  // Lost on the Internet -> gateway intake hop, or (in flight at the cut)
  // on the result's way back out.
  EXPECT_GT(city.flow_metrics().served(wl::ServedBy::kUplinkPartition), 0u);
  EXPECT_EQ(city.flow_metrics().served(wl::ServedBy::kUplinkPartition) +
                city.flow_metrics().served(wl::ServedBy::kReturnPartition),
            during.dropped);

  city.network().set_link_up(2, true);
  const auto completed_at_restore = during.completed;
  city.run(u::hours(12.0));
  const auto after = city.flow_metrics().by_flow(wl::Flow::kCloud);
  EXPECT_GT(after.completed, completed_at_restore);  // service resumed
  // Conservation: every submission is accounted.
  EXPECT_EQ(after.total(), after.completed + after.deadline_missed + after.rejected +
                               after.dropped);
}

TEST(FailureInjection, EdgeSurvivesLanPartitionViaDrop) {
  core::Df3Platform city(winter_cfg(5));
  city.add_building({.name = "b0", .rooms = 2});
  city.add_edge_source(0, wl::alarm_detection_factory(), 0.05);
  city.run(u::hours(2.0));
  const auto healthy = city.flow_metrics().by_flow(wl::Flow::kEdgeIndirect);
  EXPECT_GT(healthy.success_rate(), 0.95);

  // Cut both ZigBee links from the device (gateway + the direct worker-0
  // backdoor): requests die at the source but are *recorded* as dropped,
  // not silently lost. Link order per add_building: 0 dev-gw, 1 wifi-gw,
  // 2 gw-internet, 3 gw-srv0, 4 dev-srv0, 5 wifi-srv0, ...
  city.network().set_link_up(0, false);
  city.network().set_link_up(4, false);
  const auto total_before = healthy.total();
  city.run(u::hours(2.0));
  const auto partitioned = city.flow_metrics().by_flow(wl::Flow::kEdgeIndirect);
  EXPECT_GT(partitioned.dropped, 0u);
  EXPECT_GT(city.flow_metrics().served(wl::ServedBy::kLanPartition), 0u);
  EXPECT_EQ(city.flow_metrics().served(wl::ServedBy::kLanPartition) +
                city.flow_metrics().served(wl::ServedBy::kReturnPartition),
            partitioned.dropped);
  EXPECT_GT(partitioned.total(), total_before);
}

TEST(FailureInjection, ThermalShutdownPausesButNeverLosesWork) {
  // A July heat wave drives a room beyond the free-cooling envelope while
  // the server is mid-batch; the run must finish once it cools.
  core::PlatformConfig cfg = winter_cfg(7);
  cfg.start_time = th::start_of_month(6);
  core::Df3Platform city(cfg);
  core::BuildingConfig b;
  b.name = "hotbox";
  b.rooms = 1;
  b.room.resistance_k_per_w = 0.09;  // poorly ventilated attic room
  b.initial_temperature = u::celsius(26.0);
  city.add_building(b);
  city.add_cloud_source(
      [](u::RngStream&) {
        wl::Request r;
        r.app = "batch";
        r.work_gigacycles = 3000.0;
        r.tasks = 16;
        return r;
      },
      1.0 / 7200.0);
  city.run(u::days(4.0));
  const auto& cloud = city.flow_metrics().by_flow(wl::Flow::kCloud);
  EXPECT_EQ(cloud.dropped, 0u);
  EXPECT_EQ(cloud.rejected, 0u);
  EXPECT_GT(cloud.completed, 0u);
  // The attic actually got hot enough to matter at least once.
  double peak = 0.0;
  for (double v : city.room_temperature_series().values) peak = std::max(peak, v);
  EXPECT_GT(peak, 27.0);
}

TEST(FailureInjection, GridChurnStormStillCompletesEverything) {
  df3::sim::Simulation sim;
  df3::baselines::DesktopGridConfig cfg;
  cfg.hosts = 12;
  cfg.mean_available_s = 600.0;   // pathological flapping
  cfg.mean_reclaimed_s = 600.0;
  df3::baselines::DesktopGrid grid(sim, cfg, 21);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    wl::Request r;
    r.app = "b";
    r.work_gigacycles = 900.0;
    r.tasks = 8;
    grid.submit(r, 0, [&](wl::CompletionRecord rec) {
      EXPECT_EQ(rec.outcome, wl::Outcome::kCompleted);
      ++done;
    });
  }
  sim.run_until(20.0 * 86400.0);
  EXPECT_EQ(done, 10);
  EXPECT_GT(grid.restarts(), 20u);  // the storm was real
}

TEST(FailureInjection, HorizontalOffloadPartitionFallsBackToDrop) {
  // If the peer gateway is unreachable when a horizontal offload is in
  // flight, the request must resolve as dropped, not vanish.
  df3::sim::Simulation sim;
  df3::net::Network netw(sim, "n");
  const auto gw1 = netw.add_node("gw1");
  const auto w1 = netw.add_node("w1");
  const auto gw2 = netw.add_node("gw2");
  const auto w2 = netw.add_node("w2");
  netw.add_link(gw1, w1, df3::net::ethernet_lan());
  const auto inter = netw.add_link(gw1, gw2, df3::net::ethernet_lan());
  netw.add_link(gw2, w2, df3::net::ethernet_lan());
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"horizontal", "delay"};
  std::vector<wl::CompletionRecord> records;
  core::Cluster c1(sim, "c1", cfg, netw, gw1,
                   [&](wl::CompletionRecord r) { records.push_back(std::move(r)); });
  c1.add_worker(df3::hw::qrad_spec(), w1);
  core::Cluster c2(sim, "c2", {}, netw, gw2,
                   [&](wl::CompletionRecord r) { records.push_back(std::move(r)); });
  c2.add_worker(df3::hw::qrad_spec(), w2);
  c1.add_peer(&c2);

  // Saturate c1 with non-preemptible work, partition the inter-gateway
  // link, then submit an edge request that wants to offload.
  wl::Request pinned;
  pinned.app = "pin";
  pinned.work_gigacycles = 5000.0;
  pinned.tasks = 16;
  pinned.preemptible = false;
  c1.submit(pinned, gw1);
  sim.run_until(10.0);
  netw.set_link_up(inter, false);
  wl::Request edge;
  edge.flow = wl::Flow::kEdgeIndirect;
  edge.app = "edge";
  edge.arrival = sim.now();
  edge.work_gigacycles = 2.0;
  edge.deadline_s = 5.0;
  edge.preemptible = false;
  c1.submit(edge, gw1);
  sim.run();
  bool edge_resolved = false;
  for (const auto& rec : records) {
    if (rec.request.app == "edge") {
      edge_resolved = true;
      EXPECT_EQ(rec.outcome, wl::Outcome::kDropped);
    }
  }
  EXPECT_TRUE(edge_resolved);
}

// ---------------------------------------------------------------------------
// Injector edge cases audited for the model-checker work (DESIGN.md §13):
// arming when config start is already in the past, stop() before the start
// window, constructor validation, force_toggle choice points, and
// same-seed schedule determinism.
// ---------------------------------------------------------------------------

namespace {

/// Two nodes, one link, one flapper — the smallest flappable network.
struct FlapFixture {
  df3::sim::Simulation sim;
  df3::net::Network netw{sim, "n"};
  df3::net::NodeId a, b;
  std::size_t link;

  FlapFixture() {
    a = netw.add_node("a");
    b = netw.add_node("b");
    link = netw.add_link(a, b, df3::net::ethernet_lan());
  }

  df3::net::LinkFlapper make_flapper(df3::net::LinkFlapConfig cfg, std::uint64_t seed = 9) {
    cfg.links = {link};
    return df3::net::LinkFlapper(sim, "flap", netw, std::move(cfg),
                                 df3::util::RngStream(seed, "flap"));
  }
};

}  // namespace

TEST(FailureInjection, FlapperStoppedBeforeStartWindowFiresNothing) {
  // stop() mid-dwell, before config.start is even reached: the armed first
  // toggle must be cancelled and the link left untouched.
  FlapFixture f;
  df3::net::LinkFlapConfig cfg;
  cfg.start = 1000.0;
  auto flapper = f.make_flapper(cfg);
  flapper.start();
  f.sim.run_until(10.0);
  flapper.stop();
  f.sim.run_until(5000.0);
  EXPECT_EQ(flapper.flaps(), 0u);
  EXPECT_FALSE(flapper.is_down(0));
  EXPECT_FALSE(flapper.running());
}

TEST(FailureInjection, FlapperStartedAfterConfigStartArmsFromNow) {
  // start() at t=500 with config.start=100 already past: the first toggle
  // is armed at max(now, start) + dwell, never at a timestamp in the past
  // (Simulation::schedule_at throws on past times).
  FlapFixture f;
  df3::net::LinkFlapConfig cfg;
  cfg.start = 100.0;
  cfg.mean_up_s = 50.0;
  auto flapper = f.make_flapper(cfg);
  f.sim.run_until(500.0);
  ASSERT_NO_THROW(flapper.start());
  for (int i = 0; i < 100 && flapper.flaps() == 0; ++i) {
    f.sim.run_until(f.sim.now() + 100.0);
  }
  ASSERT_GT(flapper.flaps(), 0u);
  EXPECT_GT(f.sim.now(), 500.0);  // nothing fired before the (re)start instant
}

TEST(FailureInjection, FlapperValidatesConfig) {
  FlapFixture f;
  df3::net::LinkFlapConfig bad_link;
  bad_link.links = {99};  // no such link
  EXPECT_THROW(df3::net::LinkFlapper(f.sim, "flap", f.netw, bad_link,
                                     df3::util::RngStream(1, "flap")),
               std::out_of_range);
  df3::net::LinkFlapConfig bad_dwell;
  bad_dwell.links = {f.link};
  bad_dwell.mean_up_s = 0.0;
  EXPECT_THROW(df3::net::LinkFlapper(f.sim, "flap", f.netw, bad_dwell,
                                     df3::util::RngStream(1, "flap")),
               std::invalid_argument);
}

TEST(FailureInjection, ForceToggleIsAnExplicitChoicePoint) {
  // force_toggle works without start(), never arms an RNG follow-up, and
  // keeps flaps()/is_down() accounting identical to an RNG-driven toggle.
  FlapFixture f;
  auto flapper = f.make_flapper({});
  EXPECT_THROW(flapper.force_toggle(7), std::out_of_range);
  flapper.force_toggle(0);
  EXPECT_TRUE(flapper.is_down(0));
  EXPECT_EQ(flapper.flaps(), 1u);
  f.sim.run();  // no events were armed: the calendar is empty
  EXPECT_TRUE(flapper.is_down(0));
  flapper.force_toggle(0);
  EXPECT_FALSE(flapper.is_down(0));
  EXPECT_EQ(flapper.flaps(), 1u);  // down->up is not a new flap
}

TEST(FailureInjection, FlapperStopRestoresForcedOutages) {
  FlapFixture f;
  df3::net::LinkFlapConfig cfg;
  cfg.start = 1.0e6;  // RNG schedule far away; only the forced toggle acts
  auto flapper = f.make_flapper(cfg);
  flapper.start();
  flapper.force_toggle(0);
  EXPECT_TRUE(flapper.is_down(0));
  flapper.stop();
  EXPECT_FALSE(flapper.is_down(0));  // the network is whole again
}

TEST(FailureInjection, FlapperSameSeedSameSchedule) {
  // Deterministic replay: identical seeds produce bit-identical flap
  // schedules, including when a forced toggle is interleaved identically.
  FlapFixture f1, f2;
  df3::net::LinkFlapConfig cfg;
  cfg.mean_up_s = 40.0;
  cfg.mean_down_s = 10.0;
  auto a = f1.make_flapper(cfg, 13);
  auto b = f2.make_flapper(cfg, 13);
  a.start();
  b.start();
  f1.sim.run_until(200.0);
  f2.sim.run_until(200.0);
  a.force_toggle(0);
  b.force_toggle(0);
  f1.sim.run_until(2000.0);
  f2.sim.run_until(2000.0);
  EXPECT_EQ(a.flaps(), b.flaps());
  EXPECT_EQ(a.is_down(0), b.is_down(0));
  EXPECT_GT(a.flaps(), 1u);  // the schedule actually ran
}

TEST(FailureInjection, WorkerChurnForceToggleAndStopRestore) {
  df3::sim::Simulation sim;
  df3::net::Network netw(sim, "n");
  const auto gw = netw.add_node("gw");
  const auto wn = netw.add_node("w0");
  netw.add_link(gw, wn, df3::net::ethernet_lan());
  core::Cluster cluster(sim, "c", {}, netw, gw, [](wl::CompletionRecord) {});
  cluster.add_worker(df3::hw::qrad_spec(), wn);

  core::WorkerChurnConfig bad;
  bad.workers = {5};  // no such worker
  EXPECT_THROW(
      core::WorkerChurn(sim, "churn", cluster, bad, df3::util::RngStream(1, "churn")),
      std::out_of_range);

  core::WorkerChurnConfig cfg;
  cfg.workers = {0};
  cfg.start = 1.0e6;
  core::WorkerChurn churn(sim, "churn", cluster, cfg, df3::util::RngStream(1, "churn"));
  EXPECT_THROW(churn.force_toggle(3), std::out_of_range);

  const auto& ccluster = cluster;
  churn.start();
  churn.force_toggle(0);  // resident unplugged the heater
  EXPECT_TRUE(churn.is_down(0));
  EXPECT_EQ(churn.outages(), 1u);
  EXPECT_FALSE(ccluster.worker(0).server().powered());
  churn.stop();  // end of churn: every managed worker healthy again
  EXPECT_FALSE(churn.is_down(0));
  EXPECT_TRUE(ccluster.worker(0).server().powered());
}
