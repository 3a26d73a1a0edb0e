// Tests for the decision plane (DESIGN.md §11): the policy registry, the
// built-in policies of all four seams (peak-ladder rungs, cloud routing,
// peer selection, worker placement), and the city-scale peer federation —
// including the no-ping-pong guarantee under the lifecycle auditor's exact
// conservation identity at quiescence.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "df3/baselines/datacenter.hpp"
#include "df3/core/cluster.hpp"
#include "df3/core/platform.hpp"
#include "df3/net/protocol.hpp"
#include "df3/policy/registry.hpp"
#include "df3/thermal/calendar.hpp"

namespace core = df3::core;
namespace hw = df3::hw;
namespace net = df3::net;
namespace wl = df3::workload;
namespace u = df3::util;
namespace policy = df3::policy;
namespace th = df3::thermal;
using df3::sim::Simulation;

namespace {

wl::Request edge_request(double work = 3.2, double deadline = 2.0) {
  wl::Request r;
  r.flow = wl::Flow::kEdgeIndirect;
  r.app = "edge";
  r.work_gigacycles = work;
  r.input_size = u::kibibytes(32.0);
  r.output_size = u::bytes(256.0);
  r.deadline_s = deadline;
  r.preemptible = false;
  return r;
}

wl::Request cloud_request(double work = 320.0, int tasks = 1) {
  wl::Request r;
  r.flow = wl::Flow::kCloud;
  r.app = "cloud";
  r.work_gigacycles = work;
  r.tasks = tasks;
  r.input_size = u::kibibytes(64.0);
  r.output_size = u::kibibytes(64.0);
  r.preemptible = true;
  return r;
}

}  // namespace

// ----------------------------------------------------------- registry ---

TEST(PolicyRegistry, ResolvesEveryBuiltinByName) {
  const auto& reg = policy::Registry::global();
  for (const auto& n : {"preempt", "horizontal", "vertical", "delay"}) {
    EXPECT_EQ(reg.make_rung(n)->name(), n);
  }
  for (const auto& n : {"df-first", "dc-only", "season-aware", "heat-aware", "least-loaded"}) {
    EXPECT_EQ(reg.make_routing(n)->name(), n);
  }
  for (const auto& n : {"ring", "least-loaded"}) {
    EXPECT_EQ(reg.make_peer_selector(n)->name(), n);
  }
  for (const auto& n : {"first-fit", "best-fit"}) {
    EXPECT_EQ(reg.make_placement(n)->name(), n);
  }
  const auto ladder = reg.make_ladder({"preempt", "horizontal", "delay"});
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[1]->name(), "horizontal");
}

TEST(PolicyRegistry, UnknownNameThrowsListingKnownNames) {
  const auto& reg = policy::Registry::global();
  try {
    (void)reg.make_routing("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("df-first"), std::string::npos);   // lists the options
    EXPECT_NE(msg.find("season-aware"), std::string::npos);
  }
  EXPECT_THROW((void)reg.make_rung("sideways"), std::invalid_argument);
  EXPECT_THROW((void)reg.make_peer_selector("psychic"), std::invalid_argument);
  EXPECT_THROW((void)reg.make_placement("worst-fit"), std::invalid_argument);
  EXPECT_THROW((void)reg.make_ladder({"preempt", "sideways"}), std::invalid_argument);
}

TEST(PolicyRegistry, DuplicateOrEmptyRegistrationThrows) {
  policy::Registry reg;
  reg.register_peer_selector("mine", [] { return policy::Registry::global().make_peer_selector("ring"); });
  EXPECT_THROW(reg.register_peer_selector(
                   "mine", [] { return policy::Registry::global().make_peer_selector("ring"); }),
               std::invalid_argument);
  EXPECT_THROW(reg.register_rung("", [] { return policy::Registry::global().make_rung("delay"); }),
               std::invalid_argument);
  EXPECT_THROW((void)reg.make_peer_selector("other"), std::invalid_argument);
  EXPECT_EQ(reg.peer_selector_names(), std::vector<std::string>{"mine"});
}

TEST(PolicyRegistry, SplitListTrimsAndDropsEmpties) {
  const auto got = policy::Registry::split_list(" preempt, horizontal ,\tdelay ,,");
  const std::vector<std::string> want = {"preempt", "horizontal", "delay"};
  EXPECT_EQ(got, want);
  EXPECT_TRUE(policy::Registry::split_list("  , ,").empty());
}

// ------------------------------------------------ routing policies (unit) ---

TEST(RoutingPolicy, DfFirstRoundRobinWrapsAround) {
  auto rr = policy::Registry::global().make_routing("df-first");
  policy::RoutingView view;
  view.cluster_count = 3;
  view.has_datacenter = true;
  for (const std::size_t want : {0u, 1u, 2u, 0u, 1u, 2u, 0u}) {
    EXPECT_EQ(rr->pick(view), want);
  }
  // The cursor is modulo the *current* cluster count: shrink and it still
  // lands in range (a cluster added or removed mid-run cannot derail it).
  view.cluster_count = 2;
  EXPECT_LT(rr->pick(view), 2u);
}

TEST(RoutingPolicy, SeasonAwareAtExactCutoffRoutesToDatacenter) {
  auto sa = policy::Registry::global().make_routing("season-aware");
  EXPECT_TRUE(sa->needs_season());
  policy::RoutingView view;
  view.cluster_count = 2;
  view.has_datacenter = true;
  view.heating_cutoff_c = 15.0;
  // Exactly at the cutoff the heating season is *over* (cutoff is the first
  // outdoor temperature at which rooms no longer want heat): datacenter.
  view.seasonal_outdoor_c = 15.0;
  EXPECT_EQ(sa->pick(view), policy::kRouteToDatacenter);
  // One representable step below: still heating season, round-robin DF.
  view.seasonal_outdoor_c = std::nextafter(15.0, -1.0);
  EXPECT_EQ(sa->pick(view), 0u);
  EXPECT_EQ(sa->pick(view), 1u);
  view.seasonal_outdoor_c = 15.0;
  EXPECT_EQ(sa->pick(view), policy::kRouteToDatacenter);
}

TEST(RoutingPolicy, SeasonAwareWithoutDatacenterStaysOnClusters) {
  auto sa = policy::Registry::global().make_routing("season-aware");
  policy::RoutingView view;
  view.cluster_count = 2;
  view.has_datacenter = false;  // nothing to route up to
  view.heating_cutoff_c = 15.0;
  view.seasonal_outdoor_c = 30.0;  // deep summer
  EXPECT_EQ(sa->pick(view), 0u);
  EXPECT_EQ(sa->pick(view), 1u);
}

TEST(RoutingPolicy, HeatAwarePicksHighestHeatDemandPerCore) {
  auto ha = policy::Registry::global().make_routing("heat-aware");
  EXPECT_TRUE(ha->needs_cluster_info());
  const std::vector<policy::ClusterInfo> clusters = {
      {.backlog_gc_per_core = 0.0, .heat_demand_w_per_core = 12.0},
      {.backlog_gc_per_core = 9.0, .heat_demand_w_per_core = 55.0},
      {.backlog_gc_per_core = 0.0, .heat_demand_w_per_core = 31.0},
  };
  policy::RoutingView view;
  view.cluster_count = clusters.size();
  view.has_datacenter = true;
  view.clusters = clusters;
  EXPECT_EQ(ha->pick(view), 1u);
  EXPECT_EQ(ha->pick(view), 1u);  // stateless: same view, same answer
  // Differs from the default policy on the identical view.
  auto df = policy::Registry::global().make_routing("df-first");
  EXPECT_NE(df->pick(view), ha->pick(view));
  // Ties break toward the lowest index (determinism contract).
  const std::vector<policy::ClusterInfo> tied = {{.backlog_gc_per_core = 0.0,
                                                  .heat_demand_w_per_core = 7.0},
                                                 {.backlog_gc_per_core = 0.0,
                                                  .heat_demand_w_per_core = 7.0}};
  view.cluster_count = tied.size();
  view.clusters = tied;
  EXPECT_EQ(ha->pick(view), 0u);
}

TEST(RoutingPolicy, LeastLoadedPicksSmallestBacklogPerCore) {
  auto ll = policy::Registry::global().make_routing("least-loaded");
  EXPECT_TRUE(ll->needs_cluster_info());
  const std::vector<policy::ClusterInfo> clusters = {
      {.backlog_gc_per_core = 3.0, .heat_demand_w_per_core = 0.0},
      {.backlog_gc_per_core = 0.5, .heat_demand_w_per_core = 0.0},
      {.backlog_gc_per_core = 2.0, .heat_demand_w_per_core = 0.0},
  };
  policy::RoutingView view;
  view.cluster_count = clusters.size();
  view.has_datacenter = true;
  view.clusters = clusters;
  EXPECT_EQ(ll->pick(view), 1u);
  auto df = policy::Registry::global().make_routing("df-first");
  EXPECT_NE(df->pick(view), ll->pick(view));
}

TEST(RoutingPolicy, DcOnlyAlwaysRoutesUp) {
  auto dc = policy::Registry::global().make_routing("dc-only");
  policy::RoutingView view;
  view.cluster_count = 4;
  view.has_datacenter = true;
  EXPECT_EQ(dc->pick(view), policy::kRouteToDatacenter);
}

// --------------------------------------- peer / placement policies (unit) ---

TEST(PeerSelector, RingPicksNextNeighborLeastLoadedPicksIdlest) {
  const std::vector<policy::PeerInfo> peers = {
      {.backlog_gc_per_core = 400.0, .free_cores = 0},
      {.backlog_gc_per_core = 0.0, .free_cores = 16},
      {.backlog_gc_per_core = 25.0, .free_cores = 4},
  };
  const policy::PeerView view{.peers = peers};
  auto ring = policy::Registry::global().make_peer_selector("ring");
  auto ll = policy::Registry::global().make_peer_selector("least-loaded");
  EXPECT_EQ(ring->pick(view), 0u);  // the classic ring: always the next neighbor
  EXPECT_EQ(ll->pick(view), 1u);
  EXPECT_NE(ring->pick(view), ll->pick(view));
}

TEST(PlacementPolicy, FirstFitPicksFirstBestFitPicksTightest) {
  const std::vector<policy::PlacementCandidate> candidates = {
      {.worker = 0, .free_cores = 16},
      {.worker = 2, .free_cores = 3},
      {.worker = 5, .free_cores = 7},
  };
  const policy::PlacementView view{.candidates = candidates};
  auto ff = policy::Registry::global().make_placement("first-fit");
  auto bf = policy::Registry::global().make_placement("best-fit");
  EXPECT_EQ(ff->pick(view), 0u);
  EXPECT_EQ(bf->pick(view), 1u);  // fewest free cores = tightest bin
  EXPECT_NE(ff->pick(view), bf->pick(view));
}

// ------------------------------------------- cluster-level policy seams ---

namespace {

/// `n` single-worker clusters federated full-mesh in ring order; a device
/// hangs off cluster 0's gateway. Every gateway can reach every other (the
/// horizontal hand-off transfer needs a live path).
struct FederationFixture {
  Simulation sim;
  net::Network netw{sim, "net"};
  net::NodeId device;
  std::vector<net::NodeId> gws, ws;
  std::vector<wl::CompletionRecord> records;
  std::vector<std::unique_ptr<core::Cluster>> clusters;

  explicit FederationFixture(const std::string& peer_select, std::size_t n = 4,
                             const std::vector<std::string>& ladder = {"horizontal", "delay"}) {
    device = netw.add_node("device");
    core::ClusterConfig cfg;
    cfg.edge_peak_ladder = ladder;
    cfg.peer_select = peer_select;
    for (std::size_t i = 0; i < n; ++i) {
      gws.push_back(netw.add_node("gw" + std::to_string(i)));
      ws.push_back(netw.add_node("w" + std::to_string(i)));
      netw.add_link(gws[i], ws[i], net::ethernet_lan());
    }
    netw.add_link(device, gws[0], net::zigbee());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        netw.add_link(gws[i], gws[j], net::ethernet_lan());
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      clusters.push_back(std::make_unique<core::Cluster>(
          sim, "c" + std::to_string(i), cfg, netw, gws[i],
          [this](wl::CompletionRecord rec) { records.push_back(std::move(rec)); }));
      clusters.back()->add_worker(hw::qrad_spec(), ws[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 1; k < n; ++k) {
        clusters[i]->add_peer(clusters[(i + k) % n].get());
      }
    }
  }

  /// Fill cluster `i` with non-preemptible cloud work: `tasks` shards of
  /// `gc_per_shard` each on a 16-core worker (tasks > 16 leaves a backlog).
  void saturate(std::size_t i, int tasks, double gc_per_shard) {
    wl::Request pinned = cloud_request(gc_per_shard, tasks);  // work_gigacycles is per shard
    pinned.preemptible = false;
    clusters[i]->submit(pinned, gws[i]);
  }

  void expect_conserved_and_clean() {
    for (const auto& c : clusters) {
      EXPECT_EQ(c->in_flight(), 0u) << c->stats().intake();
      EXPECT_EQ(c->stats().intake(), c->stats().terminal() + c->in_flight());
      std::vector<std::string> violations;
      c->audit(violations);
      EXPECT_TRUE(violations.empty()) << violations.front();
    }
  }
};

}  // namespace

TEST(PolicyFederation, RingSelectorOffloadsToNextNeighborWithoutPingPong) {
  FederationFixture f("ring");
  ASSERT_EQ(f.clusters[0]->peer_count(), 3u);
  f.saturate(0, 16, 400.0);  // 125 s per shard, all 16 cores busy
  f.saturate(1, 16, 400.0);  // the ring target is saturated too
  f.sim.run_until(10.0);
  for (int i = 0; i < 3; ++i) {
    wl::Request e = edge_request(3.2, 1000.0);
    e.arrival = f.sim.now();
    f.clusters[0]->submit(e, f.device);
  }
  f.sim.run();  // drain to quiescence
  // All three edge requests went to the next neighbor — and although c1 was
  // itself saturated and runs the same horizontal-first ladder, the foreign
  // flag stopped it from bouncing them onward (no ping-pong): they parked
  // there and completed once the batch drained.
  EXPECT_EQ(f.clusters[0]->stats().offloaded_horizontal_out, 3u);
  EXPECT_EQ(f.clusters[1]->stats().offloaded_horizontal_in, 3u);
  EXPECT_GE(f.clusters[1]->stats().edge_delays, 3u);
  for (std::size_t i = 1; i < f.clusters.size(); ++i) {
    EXPECT_EQ(f.clusters[i]->stats().offloaded_horizontal_out, 0u) << "ping-pong from c" << i;
  }
  EXPECT_EQ(f.clusters[0]->policy_counters().peer_picks, 3u);
  ASSERT_EQ(f.clusters[0]->policy_counters().rung_hits.size(), 2u);
  EXPECT_EQ(f.clusters[0]->policy_counters().rung_hits[0], 3u);  // horizontal resolved all
  std::uint64_t edge_done = 0;
  for (const auto& rec : f.records) {
    if (wl::is_edge(rec.request.flow)) {
      ++edge_done;
      EXPECT_EQ(rec.outcome, wl::Outcome::kCompleted);
      EXPECT_EQ(rec.served_by, wl::ServedBy::kHorizontal);
    }
  }
  EXPECT_EQ(edge_done, 3u);
  f.expect_conserved_and_clean();
}

TEST(PolicyFederation, LeastLoadedSelectorSkipsTheBackloggedNeighbor) {
  FederationFixture f("least-loaded");
  f.saturate(0, 16, 400.0);
  f.saturate(1, 32, 400.0);  // ring neighbor: 16 running + 16 queued = real backlog
  f.sim.run_until(10.0);
  wl::Request e = edge_request(3.2, 1000.0);
  e.arrival = f.sim.now();
  f.clusters[0]->submit(e, f.device);
  f.sim.run();
  // Ring would have dumped onto the drowning next neighbor (see the test
  // above); least-loaded reads the per-core backlogs and picks c2 instead.
  EXPECT_EQ(f.clusters[1]->stats().offloaded_horizontal_in, 0u);
  EXPECT_EQ(f.clusters[2]->stats().offloaded_horizontal_in, 1u);
  bool saw_edge = false;
  for (const auto& rec : f.records) {
    if (wl::is_edge(rec.request.flow)) {
      saw_edge = true;
      EXPECT_EQ(rec.outcome, wl::Outcome::kCompleted);
      EXPECT_EQ(rec.served_by, wl::ServedBy::kHorizontal);
    }
  }
  EXPECT_TRUE(saw_edge);
  f.expect_conserved_and_clean();
}

TEST(PolicyLadder, RungOrderDecidesWhichReliefFires) {
  // Same overload twice; only the ladder order differs. preempt-first evicts
  // a cloud shard; vertical-first ships the edge request up instead.
  for (const bool vertical_first : {false, true}) {
    Simulation sim;
    net::Network netw(sim, "net");
    const auto device = netw.add_node("device");
    const auto gw = netw.add_node("gw");
    const auto w0 = netw.add_node("w0");
    netw.add_link(device, gw, net::zigbee());
    netw.add_link(gw, w0, net::ethernet_lan());
    core::ClusterConfig cfg;
    cfg.edge_peak_ladder = vertical_first
                               ? std::vector<std::string>{"vertical", "preempt", "delay"}
                               : std::vector<std::string>{"preempt", "delay"};
    std::vector<wl::CompletionRecord> records;
    core::Cluster cluster(sim, "c0", cfg, netw, gw,
                          [&](wl::CompletionRecord rec) { records.push_back(std::move(rec)); });
    cluster.add_worker(hw::qrad_spec(), w0);
    df3::baselines::Datacenter dc(sim, df3::baselines::DatacenterConfig{});
    cluster.set_datacenter(&dc);
    cluster.submit(cloud_request(6400.0, 16), device);  // preemptible saturation
    sim.run_until(10.0);
    wl::Request e = edge_request(3.2, 30.0);
    e.arrival = sim.now();
    cluster.submit(e, device);
    sim.run_until(20.0);
    if (vertical_first) {
      EXPECT_EQ(cluster.stats().offloaded_vertical, 1u);
      EXPECT_EQ(cluster.stats().preemptions, 0u);
      ASSERT_GE(cluster.policy_counters().rung_hits.size(), 1u);
      EXPECT_EQ(cluster.policy_counters().rung_hits[0], 1u);
    } else {
      EXPECT_EQ(cluster.stats().offloaded_vertical, 0u);
      EXPECT_EQ(cluster.stats().preemptions, 1u);
      EXPECT_EQ(cluster.policy_counters().rung_hits[0], 1u);
    }
  }
}

TEST(PolicyPlacement, BestFitPacksTheTighterWorkerFirstFitTheFirst) {
  for (const bool best_fit : {false, true}) {
    Simulation sim;
    net::Network netw(sim, "net");
    const auto device = netw.add_node("device");
    const auto gw = netw.add_node("gw");
    const auto w0 = netw.add_node("w0");
    const auto w1 = netw.add_node("w1");
    netw.add_link(device, gw, net::zigbee());
    netw.add_link(gw, w0, net::ethernet_lan());
    netw.add_link(gw, w1, net::ethernet_lan());
    core::ClusterConfig cfg;
    cfg.placement = best_fit ? "best-fit" : "first-fit";
    std::vector<wl::CompletionRecord> records;
    core::Cluster cluster(sim, "c0", cfg, netw, gw,
                          [&](wl::CompletionRecord rec) { records.push_back(std::move(rec)); });
    cluster.add_worker(hw::qrad_spec(), w0);
    cluster.add_worker(hw::qrad_spec(), w1);
    // Occupy one core of worker 1: it becomes the tighter bin (15 free).
    wl::Request direct = edge_request(320.0, 10000.0);
    direct.flow = wl::Flow::kEdgeDirect;
    cluster.submit_direct(direct, device, 1);
    ASSERT_EQ(cluster.worker(1).busy_cores(), 1);
    cluster.submit(cloud_request(320.0, 1), device);
    sim.run_until(10.0);
    if (best_fit) {
      EXPECT_EQ(cluster.worker(0).busy_cores(), 0);
      EXPECT_EQ(cluster.worker(1).busy_cores(), 2);
    } else {
      EXPECT_EQ(cluster.worker(0).busy_cores(), 1);
      EXPECT_EQ(cluster.worker(1).busy_cores(), 1);
    }
    EXPECT_GE(cluster.policy_counters().placement_picks, 1u);
  }
}

// ------------------------------------------------- platform integration ---

TEST(PolicyPlatform, RoundRobinCoversBuildingsAddedAfterSources) {
  core::PlatformConfig pc;
  pc.seed = 11;
  pc.start_time = th::start_of_month(0);
  pc.climate = th::paris_climate();
  core::Df3Platform city(pc);
  city.add_building({.name = "b0", .rooms = 1});
  city.add_building({.name = "b1", .rooms = 1});
  city.add_cloud_source(wl::risk_simulation_factory(),
                        std::make_unique<wl::FixedIntervalArrivals>(300.0));
  // A building added *after* the source must still get its round-robin
  // share: the router reads the live cluster count at every arrival.
  city.add_building({.name = "b2", .rooms = 1});
  EXPECT_EQ(city.routing_policy_name(), "df-first");
  city.run(u::hours(12.0));
  EXPECT_GE(city.routing_decisions(), 100u);
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    EXPECT_GT(city.cluster(b).stats().received_cloud, 0u) << "cluster " << b << " starved";
  }
  EXPECT_TRUE(city.audit_now().empty());
}

TEST(PolicyPlatform, HeatAwareRoutingFollowsTheDemandSignal) {
  core::PlatformConfig pc;
  pc.seed = 12;
  pc.start_time = th::start_of_month(0);  // January: rooms want heat
  pc.climate = th::paris_climate();
  core::Df3Platform city(pc);
  // Asymmetric city: b0 has 4x the rooms (and thus, with one shared
  // gateway's worth of cores per room, roughly the same demand *per core*
  // yet a much larger absolute pull early in the run while b1's single
  // room cools slower than four do).
  city.add_building({.name = "b0", .rooms = 2, .initial_temperature = u::celsius(15.0)});
  city.add_building({.name = "b1", .rooms = 2, .initial_temperature = u::celsius(21.0)});
  city.set_cloud_routing("heat-aware");
  EXPECT_EQ(city.routing_policy_name(), "heat-aware");
  city.add_cloud_source(wl::risk_simulation_factory(),
                        std::make_unique<wl::FixedIntervalArrivals>(600.0));
  city.run(u::hours(6.0));
  EXPECT_GT(city.routing_decisions(), 0u);
  // The cold building's thermostats demand more watts per core, so it must
  // receive the bulk of the routed work — unlike df-first's even split.
  EXPECT_GT(city.cluster(0).stats().received_cloud, city.cluster(1).stats().received_cloud);
  EXPECT_TRUE(city.audit_now().empty());
}

TEST(PolicyPlatform, ScenarioNamesSelectEverySeamAndWireFullMeshPeers) {
  core::PlatformConfig pc;
  pc.seed = 13;
  pc.start_time = th::start_of_month(0);
  pc.climate = th::paris_climate();
  pc.cluster.edge_peak_ladder = {"preempt", "horizontal", "delay"};
  pc.cluster.peer_select = "least-loaded";
  pc.cluster.placement = "best-fit";
  core::Df3Platform city(pc);
  for (int i = 0; i < 4; ++i) {
    city.add_building({.name = "b" + std::to_string(i), .rooms = 1});
  }
  city.set_cloud_routing("least-loaded");
  // Full-mesh federation: every cluster sees the other three as peers.
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    EXPECT_EQ(city.cluster(b).peer_count(), 3u);
  }
  city.add_edge_source(0, wl::alarm_detection_factory(), 0.05);
  city.add_cloud_source(wl::risk_simulation_factory(),
                        std::make_unique<wl::FixedIntervalArrivals>(900.0));
  city.run(u::hours(6.0));
  EXPECT_GT(city.routing_decisions(), 0u);
  EXPECT_TRUE(city.audit_now().empty());
}

TEST(PolicyPlatform, UnknownPolicyNamesFailLoudlyAtConstruction) {
  core::PlatformConfig pc;
  core::Df3Platform city(pc);
  EXPECT_THROW(city.set_cloud_routing("bogus"), std::invalid_argument);
  core::PlatformConfig bad;
  bad.cluster.placement = "worst-fit";
  core::Df3Platform broken(bad);
  EXPECT_THROW((void)broken.add_building({.name = "b0", .rooms = 1}), std::invalid_argument);
}
