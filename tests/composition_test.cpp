// Tests for the resource-oriented service-composition layer (§IV):
// registry, optimal provider selection (layered DP), and real execution.
#include <gtest/gtest.h>

#include "df3/core/composition.hpp"
#include "df3/core/platform.hpp"
#include "df3/net/protocol.hpp"
#include "df3/thermal/calendar.hpp"

namespace core = df3::core;
namespace hw = df3::hw;
namespace net = df3::net;
namespace u = df3::util;
using df3::sim::Simulation;

namespace {

/// Two-building-ish fixture: origin device, gateway, two fast local workers
/// and one slow-linked remote worker (behind a ZigBee-grade hop).
struct ComposerFixture {
  Simulation sim;
  net::Network netw{sim, "net"};
  net::NodeId origin, gw, n0, n1, n2;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<core::ServiceComposer> composer;

  ComposerFixture() {
    origin = netw.add_node("origin");
    gw = netw.add_node("gw");
    n0 = netw.add_node("n0");
    n1 = netw.add_node("n1");
    n2 = netw.add_node("n2");
    netw.add_link(origin, gw, net::wifi());
    netw.add_link(gw, n0, net::ethernet_lan());
    netw.add_link(gw, n1, net::ethernet_lan());
    netw.add_link(gw, n2, net::zigbee());  // the remote, slow-linked worker
    cluster = std::make_unique<core::Cluster>(sim, "c", core::ClusterConfig{}, netw, gw,
                                              [](df3::workload::CompletionRecord) {});
    cluster->add_worker(hw::qrad_spec(), n0);
    cluster->add_worker(hw::qrad_spec(), n1);
    cluster->add_worker(hw::qrad_spec(), n2);
    // Worker 1 is downclocked: slower but more efficient per joule.
    cluster->worker(1).server().set_pstate(0);
    cluster->worker(1).sync_speed();
    composer = std::make_unique<core::ServiceComposer>(*cluster, netw, origin);
  }

  core::ServiceChain chain3() const {
    core::ServiceChain c;
    c.name = "pipeline";
    c.stages = {{"decode", 2.0, u::kibibytes(64.0)},
                {"detect", 6.0, u::kibibytes(4.0)},
                {"notify", 0.5, u::bytes(256.0)}};
    c.input = u::kibibytes(128.0);
    return c;
  }
};

}  // namespace

TEST(Composer, RegistryCounts) {
  ComposerFixture f;
  f.composer->provide("decode", 0);
  f.composer->provide("decode", 1);
  f.composer->provide("detect", 2);
  EXPECT_EQ(f.composer->providers_of("decode"), 2u);
  EXPECT_EQ(f.composer->providers_of("detect"), 1u);
  EXPECT_EQ(f.composer->providers_of("nope"), 0u);
  EXPECT_THROW(f.composer->provide("x", 99), std::out_of_range);
}

TEST(Composer, SelectRequiresProviders) {
  ComposerFixture f;
  f.composer->provide("decode", 0);
  EXPECT_THROW((void)f.composer->select(f.chain3(), core::Objective::kLatency),
               std::invalid_argument);
  EXPECT_THROW((void)f.composer->select(core::ServiceChain{}, core::Objective::kLatency),
               std::invalid_argument);
}

TEST(Composer, LatencyObjectiveAvoidsSlowLink) {
  ComposerFixture f;
  for (const char* fn : {"decode", "detect", "notify"}) {
    f.composer->provide(fn, 0);  // fast LAN worker, top clocks
    f.composer->provide(fn, 2);  // behind zigbee
  }
  const auto sel = f.composer->select(f.chain3(), core::Objective::kLatency);
  for (const auto w : sel.worker_per_stage) EXPECT_EQ(w, 0u);
}

TEST(Composer, EnergyObjectivePrefersDownclockedWorker) {
  ComposerFixture f;
  for (const char* fn : {"decode", "detect", "notify"}) {
    f.composer->provide(fn, 0);  // top P-state: fast, less efficient
    f.composer->provide(fn, 1);  // floor P-state: slower, more Gc/J
  }
  const auto latency = f.composer->select(f.chain3(), core::Objective::kLatency);
  const auto energy = f.composer->select(f.chain3(), core::Objective::kEnergy);
  for (const auto w : latency.worker_per_stage) EXPECT_EQ(w, 0u);
  for (const auto w : energy.worker_per_stage) EXPECT_EQ(w, 1u);
  EXPECT_LT(latency.predicted_latency_s, energy.predicted_latency_s);
  EXPECT_LT(energy.predicted_energy_j, latency.predicted_energy_j);
}

TEST(Composer, DpMatchesBruteForceOnSmallInstances) {
  ComposerFixture f;
  for (const char* fn : {"decode", "detect", "notify"}) {
    for (std::size_t w : {0u, 1u, 2u}) f.composer->provide(fn, w);
  }
  const auto chain = f.chain3();
  const auto dp = f.composer->select(chain, core::Objective::kLatency);
  // Brute force over all 27 assignments using the composer's own model.
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      for (std::size_t c = 0; c < 3; ++c) {
        const std::size_t pick[3] = {a, b, c};
        double lat = 0.0;
        net::NodeId at = f.origin;
        u::Bytes payload = chain.input;
        for (int s = 0; s < 3; ++s) {
          lat += f.composer->transfer_time_s(at, f.cluster->worker(pick[s]).node(), payload);
          lat += f.composer->compute_time_s(chain.stages[static_cast<std::size_t>(s)], pick[s]);
          at = f.cluster->worker(pick[s]).node();
          payload = chain.stages[static_cast<std::size_t>(s)].output;
        }
        lat += f.composer->transfer_time_s(at, f.origin, payload);
        best = std::min(best, lat);
      }
    }
  }
  EXPECT_NEAR(dp.predicted_latency_s, best, 1e-12);
}

TEST(Composer, ExecutionMatchesPredictionOnIdleCluster) {
  ComposerFixture f;
  for (const char* fn : {"decode", "detect", "notify"}) {
    f.composer->provide(fn, 0);
    f.composer->provide(fn, 1);
  }
  auto chain = f.chain3();
  chain.deadline_s = 30.0;
  const auto sel = f.composer->select(chain, core::Objective::kLatency);
  double measured = -1.0;
  bool met = false;
  f.composer->execute(chain, sel, [&](double latency, bool ok) {
    measured = latency;
    met = ok;
  });
  f.sim.run();
  ASSERT_GT(measured, 0.0);
  EXPECT_TRUE(met);
  // Prediction uses unloaded delays; an idle cluster should match closely.
  EXPECT_NEAR(measured, sel.predicted_latency_s, sel.predicted_latency_s * 0.05);
}

TEST(Composer, ExecutionReportsDeadlineMiss) {
  ComposerFixture f;
  f.composer->provide("decode", 2);  // force everything over zigbee
  f.composer->provide("detect", 2);
  f.composer->provide("notify", 2);
  auto chain = f.chain3();
  chain.deadline_s = 0.5;  // far below the zigbee transfer times
  const auto sel = f.composer->select(chain, core::Objective::kLatency);
  bool met = true;
  f.composer->execute(chain, sel, [&](double, bool ok) { met = ok; });
  f.sim.run();
  EXPECT_FALSE(met);
}

TEST(Composer, ExecutionSurvivesPartitionAsFailure) {
  ComposerFixture f;
  f.composer->provide("decode", 0);
  f.composer->provide("detect", 0);
  f.composer->provide("notify", 0);
  const auto chain = f.chain3();
  const auto sel = f.composer->select(chain, core::Objective::kLatency);
  // Cut origin<->gateway after selection: the first transfer must fail and
  // report failure rather than hanging.
  f.netw.set_link_up(0, false);
  bool called = false, ok = true;
  f.composer->execute(chain, sel, [&](double, bool success) {
    called = true;
    ok = success;
  });
  f.sim.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(Composer, BalancedObjectiveInterpolates) {
  ComposerFixture f;
  for (const char* fn : {"decode", "detect", "notify"}) {
    f.composer->provide(fn, 0);
    f.composer->provide(fn, 1);
  }
  const auto pure_latency = f.composer->select(f.chain3(), core::Objective::kBalanced, 1.0);
  const auto pure_energy = f.composer->select(f.chain3(), core::Objective::kBalanced, 0.0);
  EXPECT_LE(pure_latency.predicted_latency_s, pure_energy.predicted_latency_s);
  EXPECT_LE(pure_energy.predicted_energy_j, pure_latency.predicted_energy_j);
  EXPECT_THROW((void)f.composer->select(f.chain3(), core::Objective::kBalanced, 1.5),
               std::invalid_argument);
}

TEST(Composer, PlanningLeavesTheControlEpochAlone) {
  // A summer city whose district has gone quiet: the activity gate holds
  // while the cluster's control epoch is unchanged. Planning only reads
  // the workers, so it must leave the epoch alone; executing the chain
  // bumps it once per stage (run_pinned's own bump) and nothing more.
  core::PlatformConfig cfg;
  cfg.start_time = df3::thermal::start_of_month(6);  // July
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;  // servers stay up to compute
  core::Df3Platform city(cfg);
  core::BuildingConfig b;
  b.name = "b0";
  b.rooms = 3;
  city.add_building(b);
  city.run(u::hours(2.0));
  ASSERT_GT(city.gated_district_ticks(), 0u);

  core::Cluster& cluster = city.cluster(0);
  core::ServiceComposer composer(cluster, city.network(), city.network().node("b0/dev"));
  for (const char* fn : {"decode", "detect", "notify"}) {
    for (std::size_t w = 0; w < cluster.worker_count(); ++w) composer.provide(fn, w);
  }
  core::ServiceChain chain;
  chain.stages = {{"decode", 2.0, u::kibibytes(64.0)},
                  {"detect", 6.0, u::kibibytes(4.0)},
                  {"notify", 0.5, u::bytes(256.0)}};
  chain.input = u::kibibytes(128.0);

  const std::uint64_t before = cluster.control_epoch();
  const auto sel = composer.select(chain, core::Objective::kBalanced);
  (void)composer.compute_time_s(chain.stages[0], 0);
  (void)composer.compute_energy_j(chain.stages[0], 0);
  EXPECT_EQ(cluster.control_epoch(), before);

  bool done = false;
  composer.execute(chain, sel, [&](double, bool) { done = true; });
  city.run(u::minutes(10.0));
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster.control_epoch(), before + chain.stages.size());
}
