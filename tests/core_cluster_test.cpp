// Tests for the DF3 cluster: gateway scheduling, architecture classes,
// peak management (preemption / offloading / delay), transport accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "df3/baselines/datacenter.hpp"
#include "df3/core/cluster.hpp"
#include "df3/net/protocol.hpp"

namespace core = df3::core;
namespace hw = df3::hw;
namespace net = df3::net;
namespace wl = df3::workload;
namespace u = df3::util;
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

/// One building: device -- gateway -- two Q.rad workers; a second cluster
/// as horizontal peer; a datacenter as vertical target.
struct ClusterFixture {
  Simulation sim;
  net::Network netw{sim, "net"};
  net::NodeId device, gateway, w0, w1, gw2, w2;
  std::vector<wl::CompletionRecord> records;
  core::ClusterConfig cfg;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<core::Cluster> peer;
  std::unique_ptr<df3::baselines::Datacenter> dc;

  explicit ClusterFixture(core::ClusterConfig config = {}) : cfg(std::move(config)) {
    device = netw.add_node("device");
    gateway = netw.add_node("gw");
    w0 = netw.add_node("w0");
    w1 = netw.add_node("w1");
    gw2 = netw.add_node("gw2");
    w2 = netw.add_node("w2");
    netw.add_link(device, gateway, net::zigbee());
    netw.add_link(gateway, w0, net::ethernet_lan());
    netw.add_link(gateway, w1, net::ethernet_lan());
    netw.add_link(gateway, gw2, net::ethernet_lan());
    netw.add_link(gw2, w2, net::ethernet_lan());
    netw.add_link(device, w0, net::zigbee());
    cluster = std::make_unique<core::Cluster>(
        sim, "c0", cfg, netw, gateway,
        [this](wl::CompletionRecord rec) { records.push_back(std::move(rec)); });
    cluster->add_worker(hw::qrad_spec(), w0);
    cluster->add_worker(hw::qrad_spec(), w1);
    peer = std::make_unique<core::Cluster>(
        sim, "c1", core::ClusterConfig{}, netw, gw2,
        [this](wl::CompletionRecord rec) { records.push_back(std::move(rec)); });
    peer->add_worker(hw::qrad_spec(), w2);
    cluster->add_peer(peer.get());
  }

  void attach_datacenter() {
    dc = std::make_unique<df3::baselines::Datacenter>(sim, df3::baselines::DatacenterConfig{});
    cluster->set_datacenter(dc.get());
  }
};

}  // namespace

// Fleet rooms and boiler units point at worker servers, and completion
// events at workers, so a worker must not move when more are added.
TEST(Cluster, WorkersKeepTheirAddressesAsWorkersAreAdded) {
  ClusterFixture f;
  const core::Worker* const first = &f.cluster->worker(0);
  const hw::DfServer* const second_server = &f.cluster->worker(1).server();
  f.cluster->submit(cloud_request(320.0), f.device);
  f.sim.run_until(5.0);  // staged and running on worker 0
  ASSERT_EQ(f.cluster->worker(0).busy_cores(), 1);
  for (int i = 0; i < 40; ++i) f.cluster->add_worker(hw::qrad_spec(), f.w1);
  f.cluster->reserve_workers(100);
  for (int i = 0; i < 58; ++i) f.cluster->add_worker(hw::qrad_spec(), f.w1);
  ASSERT_EQ(f.cluster->worker_count(), 100u);
  EXPECT_EQ(&f.cluster->worker(0), first);
  EXPECT_EQ(&f.cluster->worker(1).server(), second_server);
  EXPECT_EQ(f.cluster->usable_cores(), 1600);  // walks every worker
  EXPECT_EQ(f.cluster->free_cores(), 1599);
  EXPECT_THROW((void)f.cluster->worker(100), std::out_of_range);
  // The shard started before the adds completes where it ran.
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].outcome, wl::Outcome::kCompleted);
  EXPECT_EQ(f.cluster->worker(0).tasks_completed(), 1u);
}

TEST(Cluster, AuditNamesAWorkerByClusterAndIndex) {
  ClusterFixture f;
  f.cluster->worker(1).server().set_busy_cores(3);
  std::vector<std::string> out;
  f.cluster->audit(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "c0/w1: server busy-core count 3 inconsistent with running set "
                    "(0 running, 16 usable)");
}

TEST(Cluster, CompletesCloudRequestWithTransport) {
  ClusterFixture f;
  f.cluster->submit(cloud_request(320.0), f.device);
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  const auto& rec = f.records[0];
  EXPECT_EQ(rec.outcome, wl::Outcome::kCompleted);
  EXPECT_EQ(rec.served_by, wl::ServedBy::kLocal);
  // 320 Gc at 3.2 GHz = 100 s of compute plus staging + return transport.
  // 64 KiB of results return over ZigBee: ~2.7 s of serialization.
  EXPECT_GT(rec.response_time(), 100.0);
  EXPECT_LT(rec.response_time(), 104.0);
  EXPECT_EQ(f.cluster->stats().completed, 1u);
}

TEST(Cluster, ParallelShardsSpreadAcrossWorkers) {
  ClusterFixture f;
  // 32 shards over 2 workers x 16 cores: all run concurrently.
  f.cluster->submit(cloud_request(320.0, 32), f.device);
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_LT(f.records[0].response_time(), 105.0);
  EXPECT_GT(f.cluster->worker(0).tasks_completed(), 0u);
  EXPECT_GT(f.cluster->worker(1).tasks_completed(), 0u);
}

TEST(Cluster, EdgeMeetsDeadlineOnIdleCluster) {
  ClusterFixture f;
  f.cluster->submit(edge_request(3.2, 2.0), f.device);
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].outcome, wl::Outcome::kCompleted);
  EXPECT_LT(f.records[0].response_time(), 1.2);  // ~1 s compute + transport
}

TEST(Cluster, DeadlineMissIsRecorded) {
  ClusterFixture f;
  f.cluster->submit(edge_request(32.0, 0.5), f.device);  // 10 s of work, 0.5 s deadline
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].outcome, wl::Outcome::kDeadlineMissed);
}

TEST(Cluster, EdgePreemptsCloudWhenSaturated) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"preempt", "delay"};
  ClusterFixture f(cfg);
  // Saturate both workers with one giant preemptible cloud batch.
  f.cluster->submit(cloud_request(32000.0, 32), f.device);
  f.sim.run_until(10.0);
  EXPECT_EQ(f.cluster->free_cores(), 0);
  wl::Request e = edge_request(3.2, 3.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run_until(20.0);
  EXPECT_EQ(f.cluster->stats().preemptions, 1u);
  ASSERT_EQ(f.records.size(), 1u);  // the edge request (cloud still running)
  EXPECT_EQ(f.records[0].outcome, wl::Outcome::kCompleted);
  EXPECT_TRUE(wl::is_edge(f.records[0].request.flow));
}

TEST(Cluster, PreemptedCloudWorkIsNotLost) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"preempt", "delay"};
  ClusterFixture f(cfg);
  f.cluster->submit(cloud_request(3200.0, 32), f.device);  // 1000 s per shard
  f.sim.run_until(10.0);
  wl::Request e = edge_request(3.2, 3.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run();  // drain everything
  ASSERT_EQ(f.records.size(), 2u);
  for (const auto& rec : f.records) {
    EXPECT_NE(rec.outcome, wl::Outcome::kDropped);
    EXPECT_NE(rec.outcome, wl::Outcome::kRejected);
  }
  // The preempted shard resumed: total completions = 33 shards worth.
  EXPECT_EQ(f.cluster->worker(0).tasks_completed() + f.cluster->worker(1).tasks_completed(), 33u);
}

TEST(Cluster, DelayLadderQueuesEdgeWhenNothingPreemptible) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"preempt", "delay"};
  ClusterFixture f(cfg);
  wl::Request pinned = cloud_request(640.0, 32);  // 200 s per shard
  pinned.preemptible = false;
  f.cluster->submit(pinned, f.device);
  f.sim.run_until(10.0);
  wl::Request e = edge_request(3.2, 2.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run();
  // Nothing was preempted; the edge request expired in the queue and was
  // abandoned (recorded as a deadline miss rather than run pointlessly).
  EXPECT_EQ(f.cluster->stats().preemptions, 0u);
  ASSERT_EQ(f.records.size(), 2u);
  bool saw_missed_edge = false;
  for (const auto& rec : f.records) {
    if (wl::is_edge(rec.request.flow)) {
      saw_missed_edge = rec.outcome == wl::Outcome::kDeadlineMissed;
      EXPECT_EQ(rec.served_by, wl::ServedBy::kExpired);
    } else {
      EXPECT_EQ(rec.outcome, wl::Outcome::kCompleted);
    }
  }
  EXPECT_TRUE(saw_missed_edge);
}

TEST(Cluster, HorizontalOffloadToPeer) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"horizontal", "delay"};
  ClusterFixture f(cfg);
  wl::Request pinned = cloud_request(6400.0, 32);
  pinned.preemptible = false;
  f.cluster->submit(pinned, f.device);
  f.sim.run_until(10.0);
  wl::Request e = edge_request(3.2, 5.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run_until(30.0);
  EXPECT_EQ(f.cluster->stats().offloaded_horizontal_out, 1u);
  EXPECT_EQ(f.peer->stats().offloaded_horizontal_in, 1u);
  ASSERT_GE(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].served_by, wl::ServedBy::kHorizontal);
  EXPECT_EQ(f.records[0].outcome, wl::Outcome::kCompleted);
}

TEST(Cluster, VerticalOffloadToDatacenter) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"vertical", "delay"};
  ClusterFixture f(cfg);
  f.attach_datacenter();
  wl::Request pinned = cloud_request(6400.0, 32);
  pinned.preemptible = false;
  f.cluster->submit(pinned, f.device);
  f.sim.run_until(10.0);
  wl::Request e = edge_request(3.2, 5.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run_until(30.0);
  EXPECT_EQ(f.cluster->stats().offloaded_vertical, 1u);
  ASSERT_GE(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].served_by, wl::ServedBy::kVertical);
}

TEST(Cluster, PrivacySensitiveNeverGoesVertical) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"vertical", "delay"};
  ClusterFixture f(cfg);
  f.attach_datacenter();
  wl::Request pinned = cloud_request(640.0, 32);
  pinned.preemptible = false;
  f.cluster->submit(pinned, f.device);
  f.sim.run_until(10.0);
  wl::Request priv = edge_request(3.2, 500.0);
  priv.arrival = f.sim.now();
  priv.privacy_sensitive = true;
  f.cluster->submit(priv, f.device);
  f.sim.run();
  EXPECT_EQ(f.cluster->stats().offloaded_vertical, 0u);
  // It completed locally after the blockade cleared.
  bool local_edge = false;
  for (const auto& rec : f.records) {
    if (wl::is_edge(rec.request.flow)) local_edge = rec.served_by == wl::ServedBy::kLocal;
  }
  EXPECT_TRUE(local_edge);
}

TEST(Cluster, CloudBacklogOffloadsVertically) {
  core::ClusterConfig cfg;
  cfg.cloud_offload_backlog_gc_per_core = 100.0;
  ClusterFixture f(cfg);
  f.attach_datacenter();
  // 32 cores * 100 Gc/core threshold = 3200 Gc. First batch fits...
  f.cluster->submit(cloud_request(100.0, 16), f.device);
  // ...this one busts the backlog and is shipped to the datacenter.
  f.cluster->submit(cloud_request(1000.0, 16), f.device);
  f.sim.run();
  EXPECT_EQ(f.cluster->stats().offloaded_vertical, 1u);
  ASSERT_EQ(f.records.size(), 2u);
  std::uint64_t vertical = 0;
  for (const auto& rec : f.records) {
    if (rec.served_by == wl::ServedBy::kVertical) ++vertical;
  }
  EXPECT_EQ(vertical, 1u);
}

TEST(Cluster, DedicatedEdgeWorkersRefuseCloud) {
  core::ClusterConfig cfg;
  cfg.dedicated_edge_workers = 1;  // worker 0 is edge-only
  ClusterFixture f(cfg);
  f.cluster->submit(cloud_request(320.0, 32), f.device);  // wants 32 cores
  f.sim.run_until(30.0);
  EXPECT_EQ(f.cluster->worker(0).busy_cores(), 0);   // dedicated pool untouched
  EXPECT_EQ(f.cluster->worker(1).busy_cores(), 16);  // shared pool saturated
  // An edge request lands instantly on the dedicated worker.
  wl::Request e = edge_request(3.2, 2.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run_until(40.0);
  bool edge_ok = false;
  for (const auto& rec : f.records) {
    if (wl::is_edge(rec.request.flow)) edge_ok = rec.outcome == wl::Outcome::kCompleted;
  }
  EXPECT_TRUE(edge_ok);
}

TEST(Cluster, DirectRequestSkipsGatewayStaging) {
  ClusterFixture f;
  // Indirect: device->gw (zigbee) + staging gw->w0 (lan) both paid by the
  // harness; here we submit at the gateway so only staging + return are in
  // the response. Direct submits on the worker with zero staging.
  wl::Request indirect = edge_request(3.2, 10.0);
  indirect.flow = wl::Flow::kEdgeIndirect;
  f.cluster->submit(indirect, f.device);
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  const double indirect_rt = f.records[0].response_time();

  wl::Request direct = edge_request(3.2, 10.0);
  direct.flow = wl::Flow::kEdgeDirect;
  const double t0 = f.sim.now();
  f.cluster->submit_direct(direct, f.device, 0);
  f.sim.run();
  ASSERT_EQ(f.records.size(), 2u);
  const double direct_rt = f.records[1].completed_at - t0;
  EXPECT_LT(direct_rt, indirect_rt);
}

TEST(Cluster, RejectsWhenNoWorkers) {
  Simulation sim;
  net::Network netw(sim, "n");
  const auto gw = netw.add_node("gw");
  std::vector<wl::CompletionRecord> records;
  core::Cluster empty(sim, "empty", {}, netw, gw,
                      [&](wl::CompletionRecord rec) { records.push_back(std::move(rec)); });
  empty.submit(cloud_request(), gw);
  sim.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, wl::Outcome::kRejected);
  EXPECT_EQ(records[0].served_by, wl::ServedBy::kNoWorkers);
  EXPECT_EQ(empty.stats().rejected, 1u);
}

TEST(Cluster, PartitionDropsRequest) {
  ClusterFixture f;
  // Sever the gateway<->w0 staging link before submitting.
  // Link index 1 is gateway-w0 (see fixture construction order).
  f.netw.set_link_up(1, false);
  f.netw.set_link_up(2, false);  // gateway-w1
  f.netw.set_link_up(5, false);  // device-w0 back door
  f.cluster->submit(cloud_request(), f.device);
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].outcome, wl::Outcome::kDropped);
  EXPECT_EQ(f.records[0].served_by, wl::ServedBy::kPartition);
}

TEST(Cluster, StatsCountFlows) {
  ClusterFixture f;
  f.cluster->submit(cloud_request(32.0), f.device);
  f.cluster->submit(edge_request(), f.device);
  f.sim.run();
  EXPECT_EQ(f.cluster->stats().received_cloud, 1u);
  EXPECT_EQ(f.cluster->stats().received_edge, 1u);
  EXPECT_EQ(f.cluster->stats().completed, 2u);
}

TEST(Cluster, CoupledSlowdownAppliedOnSlowFabric) {
  core::ClusterConfig slow;
  slow.fabric_gbps = 1.0;
  slow.reference_fabric_gbps = 10.0;
  ClusterFixture f(slow);
  wl::Request coupled = cloud_request(320.0, 2);
  coupled.comm_fraction = 0.5;
  f.cluster->submit(coupled, f.device);
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  // slowdown = 0.5 + 0.5*10 = 5.5 -> 100 s of compute becomes 550 s.
  EXPECT_GT(f.records[0].response_time(), 540.0);
  EXPECT_LT(f.records[0].response_time(), 560.0);
}

TEST(Cluster, HorizontalPartitionDropDoesNotDoubleCount) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"horizontal", "delay"};
  ClusterFixture f(cfg);
  wl::Request pinned = cloud_request(6400.0, 32);
  pinned.preemptible = false;
  f.cluster->submit(pinned, f.device);
  f.sim.run_until(10.0);
  // Sever the gateway-to-peer hop: the hand-off transfer will be dropped
  // mid-flight, *after* responsibility already left via
  // offloaded_horizontal_out. The drop must not also bump `rejected` —
  // that double-counted the request and broke the conservation identity.
  f.netw.set_link_up(3, false);
  wl::Request e = edge_request(3.2, 5.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run();
  EXPECT_EQ(f.cluster->stats().offloaded_horizontal_out, 1u);
  EXPECT_EQ(f.cluster->stats().rejected, 0u);
  EXPECT_EQ(f.cluster->stats().dropped, 0u);
  std::uint64_t drops = 0;
  for (const auto& rec : f.records) {
    if (rec.outcome == wl::Outcome::kDropped) ++drops;
  }
  EXPECT_EQ(drops, 1u);  // the platform still sees the loss
  EXPECT_EQ(f.cluster->stats().intake(),
            f.cluster->stats().terminal() + f.cluster->in_flight());
  std::vector<std::string> violations;
  f.cluster->audit(violations);
  EXPECT_TRUE(violations.empty());
}

TEST(Cluster, AuditChecksInFlightSlots) {
  // Three requests in flight; the first finishes while the other two run,
  // so swap-erase moves the last entry into its place. With the re-slot
  // planted away, the moved entry keeps a stale slot and the sweep must
  // name it; the clean build must stay silent.
  for (const bool plant : {false, true}) {
    ClusterFixture f;
    core::Cluster::set_test_skip_reslot(plant);
    std::uint64_t id = 1;
    for (const double work : {32.0, 3200.0, 6400.0}) {
      wl::Request r = cloud_request(work);
      r.id = id++;
      f.cluster->submit(r, f.device);
    }
    f.sim.run_until(50.0);  // request 1 done after ~10 s; 2 and 3 still running
    core::Cluster::set_test_skip_reslot(false);
    EXPECT_EQ(f.cluster->stats().completed, 1u);
    EXPECT_EQ(f.cluster->in_flight(), 2u);
    std::vector<std::string> violations;
    f.cluster->audit(violations);
    if (plant) {
      ASSERT_EQ(violations.size(), 1u);
      EXPECT_NE(violations[0].find("request id 3) stores slot 2"), std::string::npos)
          << violations[0];
    } else {
      EXPECT_TRUE(violations.empty()) << violations.front();
    }
  }
}

TEST(Cluster, AuditFlagsDuplicateInFlightIds) {
  ClusterFixture f;
  for (int i = 0; i < 3; ++i) {
    wl::Request r = cloud_request(3200.0);
    r.id = 7;
    f.cluster->submit(r, f.device);
  }
  f.cluster->submit(cloud_request(3200.0), f.device);  // id 0 is anonymous
  f.cluster->submit(cloud_request(3200.0), f.device);
  f.sim.run_until(10.0);
  ASSERT_EQ(f.cluster->in_flight(), 5u);
  std::vector<std::string> violations;
  f.cluster->audit(violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("request id 7 is in flight twice"), std::string::npos)
      << violations[0];
}

TEST(Cluster, ReturnPartitionRecordsDrop) {
  ClusterFixture f;
  f.cluster->submit(cloud_request(320.0), f.device);
  f.sim.run_until(10.0);  // staging done, compute in progress
  // Isolate the device: the result (gateway -> device) cannot be shipped.
  f.netw.set_link_up(0, false);  // device-gateway
  f.netw.set_link_up(5, false);  // device-w0 back door
  f.sim.run();
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].outcome, wl::Outcome::kDropped);
  EXPECT_EQ(f.records[0].served_by, wl::ServedBy::kReturnPartition);
  // The cluster did the work: completed counts it, and only the record
  // carries the transport loss. The identity still balances.
  EXPECT_EQ(f.cluster->stats().completed, 1u);
  EXPECT_EQ(f.cluster->stats().intake(),
            f.cluster->stats().terminal() + f.cluster->in_flight());
}

TEST(Cluster, PreemptThermalGateRaceRequeuesBoth) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"preempt", "delay"};
  ClusterFixture f(cfg);
  f.cluster->submit(cloud_request(3200.0, 32), f.device);  // saturate both workers
  f.sim.run_until(10.0);
  EXPECT_EQ(f.cluster->free_cores(), 0);
  // Thermal shutdown on both workers: running shards pause, usable cores
  // drop to zero — but the running set (and running_below) stays populated.
  f.cluster->worker(0).server().set_inlet_temperature(u::celsius(40.0));
  f.cluster->worker(1).server().set_inlet_temperature(u::celsius(40.0));
  f.cluster->sync_workers();
  wl::Request e = edge_request(3.2, 1000.0);
  e.arrival = f.sim.now();
  f.cluster->submit(e, f.device);
  f.sim.run_until(15.0);
  // The preempt rung freed a core that immediately vanished (gated): both
  // the victim and the edge shard must end up queued, nothing lost.
  EXPECT_EQ(f.cluster->stats().preemptions, 1u);
  EXPECT_EQ(f.cluster->queued(), 2u);
  std::vector<std::string> violations;
  f.cluster->audit(violations);
  EXPECT_TRUE(violations.empty());
  // Recovery: both requests drain to completion, no shard went missing.
  f.cluster->worker(0).server().set_inlet_temperature(u::celsius(20.0));
  f.cluster->worker(1).server().set_inlet_temperature(u::celsius(20.0));
  f.cluster->sync_workers();
  f.sim.run();
  ASSERT_EQ(f.records.size(), 2u);
  for (const auto& rec : f.records) EXPECT_EQ(rec.outcome, wl::Outcome::kCompleted);
  EXPECT_EQ(f.cluster->worker(0).tasks_completed() + f.cluster->worker(1).tasks_completed(), 33u);
  EXPECT_EQ(f.cluster->stats().intake(),
            f.cluster->stats().terminal() + f.cluster->in_flight());
  f.cluster->audit(violations);
  EXPECT_TRUE(violations.empty());
}

TEST(Cluster, DirectRequestReturnsFromActualServingWorker) {
  ClusterFixture f;
  // Fill worker 0 with 16 long direct requests, one per core.
  for (int i = 0; i < 16; ++i) {
    wl::Request r = edge_request(320.0, 10000.0);
    r.flow = wl::Flow::kEdgeDirect;
    f.cluster->submit_direct(r, f.device, 0);
  }
  EXPECT_EQ(f.cluster->worker(0).free_cores(), 0);
  // The 17th direct request prefers worker 0 but falls through to worker 1.
  wl::Request r17 = edge_request(3.2, 10000.0);
  r17.flow = wl::Flow::kEdgeDirect;
  f.cluster->submit_direct(r17, f.device, 0);
  EXPECT_EQ(f.cluster->worker(1).busy_cores(), 1);
  // Isolate worker 0 from the device before any result ships. The short
  // request ran on worker 1, so its result must leave from there (links
  // gw-w1 and device-gw are still up); shipping from the *preferred*
  // worker — the pre-fix behavior — would have dropped it too.
  f.sim.run_until(0.5);
  f.netw.set_link_up(1, false);  // gateway-w0
  f.netw.set_link_up(5, false);  // device-w0
  f.sim.run();
  ASSERT_EQ(f.records.size(), 17u);
  std::uint64_t completed = 0, dropped = 0;
  for (const auto& rec : f.records) {
    if (rec.outcome == wl::Outcome::kCompleted) {
      ++completed;
      EXPECT_DOUBLE_EQ(rec.request.work_gigacycles, 3.2);
    } else {
      EXPECT_EQ(rec.outcome, wl::Outcome::kDropped);
      ++dropped;
    }
  }
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(dropped, 16u);
  EXPECT_EQ(f.cluster->stats().completed, 17u);
  EXPECT_EQ(f.cluster->stats().intake(),
            f.cluster->stats().terminal() + f.cluster->in_flight());
}

TEST(Cluster, ValidatesConfig) {
  Simulation sim;
  net::Network netw(sim, "n");
  const auto gw = netw.add_node("gw");
  EXPECT_THROW(core::Cluster(sim, "c", {}, netw, gw, nullptr), std::invalid_argument);
  core::ClusterConfig bad;
  bad.dedicated_edge_workers = -1;
  EXPECT_THROW(core::Cluster(sim, "c", bad, netw, gw, [](wl::CompletionRecord) {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Regression tests distilled from df3mc model-checker witnesses (DESIGN.md
// §13). Each reproduces, as a plain deterministic scenario, a minimal
// interleaving the checker flushed: pinned composition stages escaping their
// worker/cluster under contention or gating, and a horizontal hand-off
// racing a link partition.
// ---------------------------------------------------------------------------

// Witness: gate(b0/w0) -> pinned(b0/w0). place() used to fall through to the
// shared scan when the preferred worker was unavailable, silently running a
// pinned stage on a chassis the composer never selected.
TEST(Cluster, PinnedStageWaitsForItsGatedWorker) {
  ClusterFixture f;
  std::vector<wl::CompletionRecord> pinned_recs;
  f.cluster->worker(0).server().set_powered(false);
  f.cluster->sync_workers();

  auto stage = edge_request(3.2, 60.0);
  f.cluster->run_pinned(std::move(stage), 0,
                        [&](wl::CompletionRecord rec) { pinned_recs.push_back(std::move(rec)); });
  f.sim.run();
  // The stage must wait for worker 0, not run on worker 1 (or anywhere else).
  EXPECT_TRUE(pinned_recs.empty());
  EXPECT_EQ(f.cluster->in_flight(), 1u);
  EXPECT_EQ(f.cluster->worker(1).tasks_completed(), 0u);

  f.cluster->worker(0).server().set_powered(true);
  f.cluster->sync_workers();
  f.sim.run();
  ASSERT_EQ(pinned_recs.size(), 1u);
  EXPECT_EQ(pinned_recs[0].outcome, wl::Outcome::kCompleted);
  EXPECT_EQ(pinned_recs[0].served_by, wl::ServedBy::kPinned);
  EXPECT_EQ(f.cluster->worker(0).tasks_completed(), 1u);
  EXPECT_EQ(f.cluster->worker(1).tasks_completed(), 0u);
  EXPECT_EQ(f.cluster->stats().intake(),
            f.cluster->stats().terminal() + f.cluster->in_flight());
}

// Witness: gate(b0/w0) -> pinned(b0/w0) with the full four-rung ladder. The
// horizontal and vertical rungs used to accept pinned stages, shipping a
// composition stage to a peer cluster (or the datacenter) whose chassis the
// composer never staged input onto.
TEST(Cluster, PinnedStageNeverOffloadsHorizontallyOrVertically) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"preempt", "horizontal", "vertical", "delay"};
  ClusterFixture f(cfg);
  f.attach_datacenter();
  std::vector<wl::CompletionRecord> pinned_recs;
  f.cluster->worker(0).server().set_powered(false);
  f.cluster->sync_workers();

  f.cluster->run_pinned(edge_request(3.2, 120.0), 0,
                        [&](wl::CompletionRecord rec) { pinned_recs.push_back(std::move(rec)); });
  f.sim.run();
  EXPECT_TRUE(pinned_recs.empty());
  EXPECT_EQ(f.cluster->stats().offloaded_horizontal_out, 0u);
  EXPECT_EQ(f.cluster->stats().offloaded_vertical, 0u);
  EXPECT_EQ(f.peer->stats().offloaded_horizontal_in, 0u);

  f.cluster->worker(0).server().set_powered(true);
  f.cluster->sync_workers();
  f.sim.run();
  ASSERT_EQ(pinned_recs.size(), 1u);
  EXPECT_EQ(pinned_recs[0].served_by, wl::ServedBy::kPinned);
  EXPECT_EQ(f.cluster->worker(0).tasks_completed(), 1u);
}

// Witness: cloud load saturating both workers -> pinned(b0/w0). The
// preemption rung used to scan every worker for a victim, letting a pinned
// stage steal a core on worker 1 and start on the wrong chassis.
TEST(Cluster, PinnedStagePreemptsOnlyItsOwnWorker) {
  ClusterFixture f;  // default ladder: preempt -> delay
  // Worker 0: 16 non-preemptible cloud shards (no victims for the stage).
  auto filler = cloud_request(3200.0, 16);
  filler.preemptible = false;
  f.cluster->submit(std::move(filler), f.device);
  // Worker 1: 16 preemptible shards (victims — but on the wrong worker).
  f.cluster->submit(cloud_request(3200.0, 16), f.device);
  f.sim.run_until(10.0);  // staging done, both workers saturated

  std::vector<wl::CompletionRecord> pinned_recs;
  f.cluster->run_pinned(edge_request(3.2, 3600.0), 0,
                        [&](wl::CompletionRecord rec) { pinned_recs.push_back(std::move(rec)); });
  f.sim.run_until(11.0);
  // No preemption: worker 0's shards are non-preemptible and worker 1 is
  // off-limits to a stage pinned elsewhere. The stage waits instead.
  EXPECT_EQ(f.cluster->stats().preemptions, 0u);
  EXPECT_TRUE(pinned_recs.empty());

  f.sim.run();  // cloud drains; the stage runs where it was pinned
  ASSERT_EQ(pinned_recs.size(), 1u);
  EXPECT_EQ(pinned_recs[0].outcome, wl::Outcome::kCompleted);
  EXPECT_EQ(f.cluster->stats().preemptions, 0u);
  EXPECT_EQ(f.cluster->stats().intake(),
            f.cluster->stats().terminal() + f.cluster->in_flight());
}

// Witness: flap(up) -> edge -> <drain>. A hand-off launched into a severed
// peer link is dropped by the network; the drop record used to carry the
// generic staging label. It must name the offloading cluster's partition
// (the peer never became responsible) and must not double-count: the
// offloader's terminal is offloaded_horizontal_out, not dropped.
TEST(Cluster, HandoffPartitionDropIsAccountedToTheOffloader) {
  core::ClusterConfig cfg;
  cfg.edge_peak_ladder = {"preempt", "horizontal", "delay"};
  ClusterFixture f(cfg);
  auto filler = cloud_request(6400.0, 32);  // saturate both workers
  filler.preemptible = false;
  f.cluster->submit(std::move(filler), f.device);
  f.sim.run_until(10.0);

  f.netw.set_link_up(3, false);  // sever gateway -> gw2 (the peer link)
  f.cluster->submit(edge_request(3.2, 600.0), f.device);
  f.sim.run();

  const auto drop = std::find_if(f.records.begin(), f.records.end(), [](const auto& rec) {
    return rec.outcome == wl::Outcome::kDropped;
  });
  ASSERT_NE(drop, f.records.end());
  EXPECT_EQ(drop->served_by, wl::ServedBy::kPartition);
  EXPECT_EQ(f.cluster->stats().offloaded_horizontal_out, 1u);
  EXPECT_EQ(f.cluster->stats().dropped, 0u);  // responsibility left via the hand-off
  EXPECT_EQ(f.peer->stats().offloaded_horizontal_in, 0u);
  EXPECT_EQ(f.cluster->stats().intake(),
            f.cluster->stats().terminal() + f.cluster->in_flight());
  EXPECT_EQ(f.peer->stats().intake(), f.peer->stats().terminal() + f.peer->in_flight());
}
