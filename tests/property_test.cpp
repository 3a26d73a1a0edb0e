// Property-based tests: invariants that must hold across whole parameter
// grids, exercised with parameterized gtest suites (TEST_P).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "df3/core/cluster.hpp"
#include "df3/core/scheduler.hpp"
#include "df3/hw/server.hpp"
#include "df3/net/network.hpp"
#include "df3/thermal/room.hpp"
#include "df3/util/rng.hpp"

namespace core = df3::core;
namespace hw = df3::hw;
namespace net = df3::net;
namespace th = df3::thermal;
namespace wl = df3::workload;
namespace u = df3::util;
using df3::sim::Simulation;

// gtest prints a parameter without a printer as a byte dump, and the spec
// structs hold heap pointers, so the discovered test names would change with
// every build. Print the catalogue name instead.
namespace df3::hw {
void PrintTo(const CpuSpec& s, std::ostream* os) { *os << s.model; }
void PrintTo(const ServerSpec& s, std::ostream* os) { *os << s.family; }
}  // namespace df3::hw

// ------------------------------------------------------ room invariants ---

struct RoomCase {
  double r_k_per_w;
  double c_j_per_k;
  double q_w;
  double t_out_c;
};

class RoomProperty : public ::testing::TestWithParam<RoomCase> {};

TEST_P(RoomProperty, StepSizeInvariantIntegration) {
  const auto p = GetParam();
  th::RoomParams params;
  params.resistance_k_per_w = p.r_k_per_w;
  params.capacitance_j_per_k = p.c_j_per_k;
  th::Room coarse(params, u::celsius(15.0));
  th::Room fine(params, u::celsius(15.0));
  coarse.advance(u::hours(8.0), u::watts(p.q_w), u::celsius(p.t_out_c));
  for (int i = 0; i < 8 * 60; ++i) {
    fine.advance(u::minutes(1.0), u::watts(p.q_w), u::celsius(p.t_out_c));
  }
  EXPECT_NEAR(coarse.temperature().value(), fine.temperature().value(), 1e-8);
}

TEST_P(RoomProperty, TrajectoryStaysBetweenStartAndEquilibrium) {
  const auto p = GetParam();
  th::RoomParams params;
  params.resistance_k_per_w = p.r_k_per_w;
  params.capacitance_j_per_k = p.c_j_per_k;
  th::Room room(params, u::celsius(15.0));
  const double eq = room.equilibrium(u::watts(p.q_w), u::celsius(p.t_out_c)).value();
  const double lo = std::min(15.0, eq) - 1e-9;
  const double hi = std::max(15.0, eq) + 1e-9;
  double prev = room.temperature().value();
  for (int i = 0; i < 200; ++i) {
    room.advance(u::minutes(30.0), u::watts(p.q_w), u::celsius(p.t_out_c));
    const double t = room.temperature().value();
    EXPECT_GE(t, lo);
    EXPECT_LE(t, hi);
    // Monotone approach toward equilibrium.
    if (eq >= 15.0) {
      EXPECT_GE(t, prev - 1e-9);
    } else {
      EXPECT_LE(t, prev + 1e-9);
    }
    prev = t;
  }
  EXPECT_NEAR(prev, eq, std::abs(eq - 15.0) * 0.05 + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoomProperty,
    ::testing::Values(RoomCase{0.02, 5.0e5, 0.0, -5.0}, RoomCase{0.02, 5.0e5, 500.0, -5.0},
                      RoomCase{0.04, 1.0e6, 250.0, 5.0}, RoomCase{0.04, 2.0e6, 800.0, 10.0},
                      RoomCase{0.08, 1.0e6, 100.0, 15.0}, RoomCase{0.01, 4.0e6, 1500.0, 0.0},
                      RoomCase{0.06, 8.0e5, 0.0, 30.0}));

// -------------------------------------------------------- cpu invariants ---

class CpuProperty : public ::testing::TestWithParam<hw::CpuSpec> {};

TEST_P(CpuProperty, PowerMonotoneAndEfficiencyOrdered) {
  const hw::CpuModel m(GetParam());
  const std::size_t top = m.spec().top_pstate();
  for (std::size_t ps = 0; ps <= top; ++ps) {
    // Monotone in utilization.
    double prev = -1.0;
    for (double util = 0.0; util <= 1.0; util += 0.25) {
      const double p = m.power(ps, util).value();
      EXPECT_GE(p, prev);
      prev = p;
    }
    if (ps > 0) {
      // Monotone in P-state at full load.
      EXPECT_GT(m.power(ps, 1.0).value(), m.power(ps - 1, 1.0).value());
      EXPECT_GT(m.max_throughput_gcps(ps), m.max_throughput_gcps(ps - 1));
    }
  }
  // Efficiency is unimodal: static power penalizes the lowest clocks
  // (race-to-idle regime) and V^2 scaling penalizes the highest, so after
  // the peak it must fall monotonically — and the top state is never the
  // most efficient (Le Sueur & Heiser's diminishing returns).
  std::size_t peak = 0;
  for (std::size_t ps = 1; ps <= top; ++ps) {
    if (m.efficiency_gc_per_joule(ps) > m.efficiency_gc_per_joule(peak)) peak = ps;
  }
  EXPECT_LT(peak, top);
  for (std::size_t ps = peak + 1; ps <= top; ++ps) {
    EXPECT_LT(m.efficiency_gc_per_joule(ps), m.efficiency_gc_per_joule(ps - 1));
  }
}

TEST_P(CpuProperty, PowerCapRoundTrips) {
  const hw::CpuModel m(GetParam());
  for (std::size_t ps = 0; ps <= m.spec().top_pstate(); ++ps) {
    std::size_t found = 99;
    ASSERT_TRUE(m.highest_pstate_within(m.power(ps, 1.0), found));
    EXPECT_EQ(found, ps);  // exact cap finds exactly that state
  }
}

INSTANTIATE_TEST_SUITE_P(Catalogue, CpuProperty,
                         ::testing::Values(hw::qrad_cpu_spec(), hw::boiler_cpu_spec(),
                                           hw::crypto_gpu_spec()));

// ---------------------------------------------- server energy conservation ---

class ServerEnergyProperty : public ::testing::TestWithParam<hw::ServerSpec> {};

TEST_P(ServerEnergyProperty, EveryJouleBecomesAccountedHeat) {
  hw::DfServer server(GetParam());
  u::RngStream rng(77, server.spec().family);
  double drawn_j = 0.0;  // the power drawn, integrated step by step
  for (int step = 0; step < 300; ++step) {
    if (rng.bernoulli(0.1)) server.set_powered(rng.bernoulli(0.8));
    if (server.usable_cores() > 0) {
      server.set_pstate(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(server.spec().cpu.pstates.size()) - 1)));
      server.set_busy_cores(
          static_cast<int>(rng.uniform_int(0, server.spec().total_cores())));
      server.set_filler_cores(
          static_cast<int>(rng.uniform_int(0, server.spec().total_cores())));
    }
    server.set_inlet_temperature(u::celsius(rng.uniform(10.0, 40.0)));
    const u::Seconds dt = u::minutes(rng.uniform(1.0, 30.0));
    drawn_j += server.power().value() * dt.value();
    server.advance(dt);
  }
  EXPECT_NEAR(server.energy_consumed().value(), drawn_j, 1e-9 * drawn_j);
  EXPECT_GT(server.energy_consumed().value(), 0.0);
  EXPECT_GT(server.aging_stress_hours(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Catalogue, ServerEnergyProperty,
                         ::testing::Values(hw::qrad_spec(), hw::eradiator_spec(),
                                           hw::crypto_heater_spec(), hw::stimergy_boiler_spec()));

// ----------------------------------------------------- queue invariants ---

// Whether the random ops requeue shards through push_front as well as push.
// A 1-byte scoped enum has no printer, so gtest names each instance by its
// byte (<00>, <01>), which is stable across builds.
enum class Requeues : std::uint8_t { kNone, kMixed };

class QueueProperty : public ::testing::TestWithParam<Requeues> {};

TEST_P(QueueProperty, RandomOpsPreserveCountAndOrdering) {
  core::TaskQueue q;
  core::RequestPool requests;
  u::RngStream rng(5, "queue-prop");
  std::size_t pushed = 0, popped = 0;
  for (int op = 0; op < 2000; ++op) {
    if (rng.bernoulli(0.6)) {
      wl::Request r;
      r.flow = rng.bernoulli(0.5) ? wl::Flow::kEdgeIndirect : wl::Flow::kCloud;
      if (wl::is_edge(r.flow)) r.deadline_s = rng.uniform(0.5, 50.0);
      r.arrival = static_cast<double>(op);
      auto tasks = core::make_tasks(requests, r);
      if (rng.bernoulli(0.2) && GetParam() == Requeues::kMixed) {
        q.push_front(tasks[0]);
      } else {
        q.push(tasks[0]);
      }
      ++pushed;
    } else if (auto t = q.pop()) {
      ++popped;
      // Edge strictly before cloud.
      if (t->priority() == core::Priority::kCloud) {
        std::size_t edge = 0;
        q.for_each(
            [&](const core::Task&, core::Priority p) { edge += p == core::Priority::kEdge; });
        EXPECT_EQ(edge, 0u);
      }
    }
    EXPECT_EQ(q.size(), pushed - popped);
  }
  // Drain: push_front re-inserts by deadline too, so the edge lane comes
  // out deadline-sorted and every shard is conserved.
  double prev = -1.0;
  while (auto t = q.pop()) {
    ++popped;
    if (t->priority() == core::Priority::kEdge) {
      EXPECT_GE(*t->deadline(), prev);
      prev = *t->deadline();
    }
  }
  EXPECT_EQ(popped, pushed);
}

INSTANTIATE_TEST_SUITE_P(Disciplines, QueueProperty,
                         ::testing::Values(Requeues::kNone, Requeues::kMixed));

TEST(QueueEdfOrdering, PurePushesDrainByDeadline) {
  core::TaskQueue q;
  core::RequestPool requests;
  u::RngStream rng(9, "edf");
  for (int i = 0; i < 300; ++i) {
    wl::Request r;
    r.flow = wl::Flow::kEdgeIndirect;
    r.deadline_s = rng.uniform(0.0, 100.0);
    auto tasks = core::make_tasks(requests, r);
    q.push(tasks[0]);
  }
  double prev = -1.0;
  while (auto t = q.pop()) {
    ASSERT_TRUE(t->deadline().has_value());
    EXPECT_GE(*t->deadline(), prev);
    prev = *t->deadline();
  }
}

// --------------------------------------------------- network conservation ---

class NetworkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkProperty, MessagesConservedAndNeverEarly) {
  Simulation sim;
  net::Network netw(sim, "prop");
  u::RngStream rng(GetParam(), "net-prop");
  constexpr int kNodes = 12;
  for (int i = 0; i < kNodes; ++i) netw.add_node("n" + std::to_string(i));
  // Random connected-ish topology: a ring plus random chords; some links
  // get taken down mid-experiment.
  std::vector<std::size_t> links;
  for (int i = 0; i < kNodes; ++i) {
    links.push_back(netw.add_link(static_cast<net::NodeId>(i),
                                  static_cast<net::NodeId>((i + 1) % kNodes),
                                  rng.bernoulli(0.5) ? net::ethernet_lan() : net::wifi()));
  }
  for (int i = 0; i < 6; ++i) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
    if (a != b) links.push_back(netw.add_link(a, b, net::zigbee()));
  }
  std::uint64_t delivered = 0, dropped = 0, submitted = 0;
  for (int burst = 0; burst < 4; ++burst) {
    for (int m = 0; m < 100; ++m) {
      const auto src = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
      const auto dst = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
      const net::Message msg{src, dst, u::bytes(rng.uniform(10.0, 5e5)), 0};
      const auto floor_delay = netw.unloaded_delay(src, dst, msg.size);
      const double sent_at = sim.now();
      ++submitted;
      netw.send(
          msg,
          [&delivered, &sim, sent_at, floor_delay] {
            ++delivered;
            ASSERT_TRUE(floor_delay.has_value());
            // Queuing can only add delay, never remove it.
            EXPECT_GE(sim.now() - sent_at + 1e-12, floor_delay->value());
          },
          [&dropped] { ++dropped; });
    }
    sim.run();
    // Partition a random link between bursts.
    netw.set_link_up(links[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(links.size()) - 1))],
                     false);
  }
  EXPECT_EQ(delivered + dropped, submitted);
  EXPECT_EQ(netw.messages_sent() + netw.messages_dropped(), submitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------- cluster conservation ---

class ClusterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterProperty, NoRequestIsEverLost) {
  Simulation sim;
  net::Network netw(sim, "net");
  const auto gw = netw.add_node("gw");
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"preempt", "delay"};
  std::uint64_t resolved = 0;
  core::Cluster cluster(sim, "c", cfg, netw, gw,
                        [&](wl::CompletionRecord) { ++resolved; });
  for (int i = 0; i < 3; ++i) {
    const auto n = netw.add_node("w" + std::to_string(i));
    netw.add_link(gw, n, net::ethernet_lan());
    cluster.add_worker(hw::qrad_spec(), n);
  }
  u::RngStream rng(GetParam(), "cluster-prop");
  std::uint64_t submitted = 0;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.exponential(0.05);
    wl::Request r;
    const bool edge = rng.bernoulli(0.5);
    r.flow = edge ? wl::Flow::kEdgeIndirect : wl::Flow::kCloud;
    r.app = edge ? "e" : "c";
    r.arrival = t;
    r.work_gigacycles = rng.bounded_pareto(1.2, 1.0, 2000.0);
    r.tasks = edge ? 1 : static_cast<int>(rng.uniform_int(1, 24));
    if (edge) r.deadline_s = rng.uniform(0.5, 10.0);
    r.preemptible = !edge && rng.bernoulli(0.8);
    ++submitted;
    sim.schedule_at(t, [&cluster, r, gw] { cluster.submit(r, gw); });
  }
  // Mid-run thermal chaos: heat a worker into throttle, then cool it.
  sim.schedule_at(t / 2.0, [&cluster] {
    cluster.worker(0).server().set_inlet_temperature(u::celsius(36.0));
    cluster.sync_workers();
  });
  sim.schedule_at(t / 2.0 + 500.0, [&cluster] {
    cluster.worker(0).server().set_inlet_temperature(u::celsius(20.0));
    cluster.sync_workers();
  });
  sim.run();
  EXPECT_EQ(resolved, submitted);  // completed, missed, rejected or dropped — never lost
  EXPECT_EQ(cluster.queued(), 0u);
  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    EXPECT_EQ(cluster.worker(w).busy_cores(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterProperty, ::testing::Values(11u, 22u, 33u, 44u));
