/// \file journey_test.cpp
/// \brief Causal request-journey invariants (DESIGN.md section 14).
///
/// Unit half: JourneyLog parent/advance policy and forest reconstruction on
/// hand-built recorders. Integration half: the lifecycle-soak churn scenario
/// (all four ladder rungs, both offload kinds, both fault injectors) must
/// yield — for every terminated request — a single *complete* span tree
/// whose critical path tiles [begin, end] gap-free, so the per-segment
/// durations sum exactly to the end-to-end latency. The forest digest must
/// be identical at 1/2/8 physics x control threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "df3/core/fault.hpp"
#include "df3/core/platform.hpp"
#include "df3/net/fault.hpp"
#include "df3/obs/journey.hpp"
#include "df3/obs/obs.hpp"
#include "df3/obs/trace.hpp"

namespace obs = df3::obs;
namespace core = df3::core;
namespace net = df3::net;
namespace wl = df3::workload;
namespace u = df3::util;

#ifndef DF3_OBS_DISABLED

namespace {

// --- unit: parent/advance policy --------------------------------------------

TEST(JourneyLog, UnopenedIdsAreIgnored) {
  obs::JourneyLog log;
  obs::JourneyLog::Link l;
  EXPECT_FALSE(log.annotate(0, obs::Phase::kArrival, -1, l));
  EXPECT_FALSE(log.is_open(0));
  log.open(42);
  EXPECT_TRUE(log.annotate(42, obs::Phase::kArrival, -1, l));
  EXPECT_EQ(l.seq, 0u);
  EXPECT_EQ(l.parent, obs::kNoParent);
  EXPECT_EQ(log.open_count(), 1u);
  log.close(42);
  EXPECT_EQ(log.open_count(), 0u);
}

TEST(JourneyLog, ShardChainsThreadThroughQueueAndRun) {
  obs::JourneyLog log;
  log.open(1);
  obs::JourneyLog::Link l;
  // transport -> arrival -> {shard0: qw, run} {shard1: qw, run} -> return
  ASSERT_TRUE(log.annotate(1, obs::Phase::kNetHop, -1, l));    // seq 0, root
  EXPECT_EQ(l.parent, obs::kNoParent);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kArrival, -1, l));   // seq 1 <- 0
  EXPECT_EQ(l.parent, 0u);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kQueueWait, 0, l));  // seq 2 <- 1
  EXPECT_EQ(l.parent, 1u);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kQueueWait, 1, l));  // seq 3 <- 2 (cursor)
  EXPECT_EQ(l.parent, 2u);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kRun, 0, l));        // seq 4 <- 2 (shard 0 chain)
  EXPECT_EQ(l.parent, 2u);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kRun, 1, l));        // seq 5 <- 3 (shard 1 chain)
  EXPECT_EQ(l.parent, 3u);
  // Return hop parents at the journey cursor = last-finishing run segment.
  ASSERT_TRUE(log.annotate(1, obs::Phase::kNetHop, -1, l));    // seq 6 <- 5
  EXPECT_EQ(l.parent, 5u);
  // Side markers attach without advancing the chain.
  ASSERT_TRUE(log.annotate(1, obs::Phase::kPreempt, -1, l));   // seq 7 <- 6
  EXPECT_EQ(l.parent, 6u);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kCompleted, -1, l)); // seq 8 <- 6
  EXPECT_EQ(l.parent, 6u);
}

TEST(JourneyLog, ArrivalResetsShardChains) {
  obs::JourneyLog log;
  log.open(1);
  obs::JourneyLog::Link l;
  ASSERT_TRUE(log.annotate(1, obs::Phase::kArrival, -1, l));    // seq 0
  ASSERT_TRUE(log.annotate(1, obs::Phase::kQueueWait, 0, l));   // seq 1
  ASSERT_TRUE(log.annotate(1, obs::Phase::kOffloadHorizontal, -1, l));  // seq 2
  EXPECT_EQ(l.parent, 1u);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kNetHop, -1, l));     // seq 3 (hand-off hop)
  // Second arrival at the peer: shard 0 there must not inherit the first
  // cluster's stale shard cursor.
  ASSERT_TRUE(log.annotate(1, obs::Phase::kArrival, -1, l));    // seq 4
  EXPECT_EQ(l.parent, 3u);
  ASSERT_TRUE(log.annotate(1, obs::Phase::kQueueWait, 0, l));   // seq 5
  EXPECT_EQ(l.parent, 4u);
}

// --- unit: forest reconstruction --------------------------------------------

/// Hand-emit a two-shard journey with a preempt marker into a recorder and
/// reconstruct it. Times chosen so the critical path tiles [0, 10].
obs::JourneyForest tiny_forest() {
  obs::TraceRecorder rec(256);
  obs::JourneyLog log;
  const std::uint64_t id = 99;
  log.open(id);
  obs::JourneyLog::Link l;
  const auto tr = rec.track(&rec, "t");
  auto emit = [&](obs::Phase p, double t0, double t1, int shard, std::uint32_t attr) {
    if (t1 > t0) {
      rec.span(tr, p, t0, t1, id);
    } else {
      rec.instant(tr, p, t0, id);
    }
    EXPECT_TRUE(log.annotate(id, p, shard, l));
    rec.link(id, l.seq, l.parent, attr);
  };
  emit(obs::Phase::kNetHop, 0.0, 1.0, -1,
       static_cast<std::uint32_t>(obs::HopKind::kTransport));  // seq 0
  emit(obs::Phase::kArrival, 1.0, 1.0, -1, 2);                 // seq 1 (edge-direct)
  emit(obs::Phase::kQueueWait, 1.0, 3.0, 0, 0);                // seq 2
  emit(obs::Phase::kQueueWait, 1.0, 4.0, 1, 1);                // seq 3
  emit(obs::Phase::kPreempt, 3.5, 3.5, -1, 0);                 // seq 4, side marker
  emit(obs::Phase::kRun, 3.0, 6.0, 0, 0);                      // seq 5
  emit(obs::Phase::kRun, 4.0, 9.0, 1, 1);                      // seq 6 (last)
  emit(obs::Phase::kNetHop, 9.0, 10.0, -1,
       static_cast<std::uint32_t>(obs::HopKind::kReturn));     // seq 7
  emit(obs::Phase::kCompleted, 10.0, 10.0, -1, 2);             // seq 8
  log.close(id);
  return obs::build_journey_forest(rec);
}

TEST(JourneyForest, ReconstructsCriticalPathAndBreakdown) {
  const obs::JourneyForest f = tiny_forest();
  EXPECT_EQ(f.orphan_links, 0u);
  ASSERT_EQ(f.trees.size(), 1u);
  const obs::JourneyTree& t = f.trees[0];
  EXPECT_EQ(t.id, 99u);
  EXPECT_TRUE(t.complete);
  EXPECT_TRUE(t.terminated);
  EXPECT_EQ(t.terminal, obs::Phase::kCompleted);
  EXPECT_EQ(t.flow_attr, 2u);
  EXPECT_EQ(t.t_begin, 0.0);
  EXPECT_EQ(t.t_end, 10.0);
  // Chain: transport(0) -> arrival(1) -> qw shard1 via cursor... the
  // terminal's ancestry is 8 <- 7 <- 6 <- 3 <- 2 <- 1 <- 0.
  EXPECT_EQ(t.critical, (std::vector<std::uint32_t>{0, 1, 2, 3, 6, 7, 8}));
  EXPECT_TRUE(t.contiguous);
  EXPECT_EQ(t.breakdown.net_s, 2.0);               // transport + return
  EXPECT_EQ(t.breakdown.queue_s, 3.0);             // [1,3] + [3,4]
  EXPECT_EQ(t.breakdown.run_s, 5.0);               // [4,9]
  EXPECT_EQ(t.breakdown.offload_s, 0.0);
  EXPECT_EQ(t.breakdown.total(), t.t_end - t.t_begin);
  ASSERT_EQ(t.rungs_fired.size(), 1u);
  EXPECT_EQ(t.rungs_fired[0], obs::Phase::kPreempt);
}

TEST(JourneyForest, MissingSpanMakesTreeIncomplete) {
  obs::TraceRecorder rec(256);
  const auto tr = rec.track(&rec, "t");
  rec.instant(tr, obs::Phase::kArrival, 0.0, 5);
  rec.link(5, 0, obs::kNoParent, 0);
  rec.instant(tr, obs::Phase::kCompleted, 1.0, 5);
  rec.link(5, 2, 1, 0);  // seq 1 never recorded
  const obs::JourneyForest f = obs::build_journey_forest(rec);
  ASSERT_EQ(f.trees.size(), 1u);
  EXPECT_FALSE(f.trees[0].complete);
  EXPECT_FALSE(f.trees[0].contiguous);
}

TEST(JourneyForest, StrandedLinkCountsAsOrphan) {
  obs::TraceRecorder rec(256);
  // A link with no adjacent preceding record models the ring-wrap case
  // where the partner span was overwritten.
  rec.link(7, 3, 2, 0);
  std::uint64_t orphans = 0;
  const auto spans = obs::collect_journey_spans(rec, &orphans);
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(orphans, 1u);
}

// --- integration: churn scenario --------------------------------------------

wl::RequestFactory soak_edge_factory(bool privacy) {
  return [privacy](u::RngStream& rng) {
    wl::Request r;
    r.app = privacy ? "soak-edge-priv" : "soak-edge";
    r.work_gigacycles = rng.uniform(1.0, 4.0);
    r.tasks = 1;
    r.input_size = u::kibibytes(32.0);
    r.output_size = u::kibibytes(1.0);
    r.deadline_s = rng.uniform(2.0, 10.0);
    r.preemptible = false;
    r.privacy_sensitive = privacy;
    return r;
  };
}

wl::RequestFactory soak_cloud_factory() {
  return [](u::RngStream& rng) {
    wl::Request r;
    r.app = "soak-cloud";
    r.tasks = static_cast<int>(rng.uniform_int(1, 16));
    r.work_gigacycles = rng.uniform(32.0, 160.0);
    r.input_size = u::kibibytes(64.0);
    r.output_size = u::kibibytes(64.0);
    r.preemptible = rng.bernoulli(0.5);
    return r;
  };
}

struct ChurnRun {
  obs::JourneyForest forest;
  std::size_t open_at_end = 0;
};

/// The lifecycle-soak churn city (obs_test.cpp) with both offload kinds,
/// all four rungs, fault injectors, and both injector entry points.
ChurnRun run_churn_forest(std::uint64_t seed, std::size_t threads) {
  core::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.tick_s = 60.0;
  cfg.threads = threads;
  // One shard per building, so threads > 1 runs two parallel lanes (the
  // shard map is bit-neutral).
  cfg.shard_rooms = 1;
  cfg.with_datacenter = true;
  cfg.obs.level = obs::TraceLevel::kFull;
  cfg.cluster.edge_peak_ladder = {"preempt", "horizontal", "vertical", "delay"};
  cfg.cluster.cloud_offload_backlog_gc_per_core = 50.0;
  core::Df3Platform city(cfg);

  core::BuildingConfig b0;
  b0.name = "b0";
  b0.rooms = 2;
  core::BuildingConfig b1;
  b1.name = "b1";
  b1.rooms = 1;
  city.add_building(b0);
  city.add_building(b1);

  city.add_edge_source(0, soak_edge_factory(false), 0.5);
  city.add_edge_source(0, soak_edge_factory(false), 0.2, /*direct=*/true);
  city.add_edge_source(0, soak_edge_factory(true), 0.2, /*direct=*/false, /*via_wifi=*/true);
  city.add_edge_source(1, soak_edge_factory(false), 0.5);
  city.add_edge_source(1, soak_edge_factory(true), 0.2);
  city.add_cloud_source(soak_cloud_factory(), 0.05);
  city.add_cloud_source(soak_cloud_factory(), 0.08);

  net::LinkFlapper flap(city.simulation(), "flap", city.network(),
                        {{3, 6, 10}, 240.0, 40.0, 0.0}, u::RngStream(seed, "soak/flap-a"));
  core::WorkerChurnConfig churn_cfg;
  churn_cfg.workers = {0, 1};
  churn_cfg.kind = core::OutageKind::kThermalGate;
  churn_cfg.mean_up_s = 400.0;
  churn_cfg.mean_down_s = 80.0;
  core::WorkerChurn churn(city.simulation(), "churn-b0", city.cluster(0), churn_cfg,
                          u::RngStream(seed, "soak/churn-b0"));
  flap.start();
  churn.start();
  city.run(u::hours(1.0));

  // Both manual injectors mid-run: their journeys must reconstruct too.
  {
    u::RngStream rng(seed, "soak/inject");
    wl::Request e = soak_edge_factory(false)(rng);
    e.id = 0xfeed0000000001ull;
    city.inject_edge(0, std::move(e), /*direct=*/false);
    wl::Request c = soak_cloud_factory()(rng);
    c.id = 0xfeed0000000002ull;
    city.inject_cloud_at(1, std::move(c));
  }

  city.run(u::hours(1.0));
  flap.stop();
  churn.stop();
  city.stop_sources();
  city.run(u::hours(1.0));

  obs::Observability* o = city.observability();
  ChurnRun out;
  EXPECT_NE(o, nullptr);
  if (o == nullptr) return out;
  EXPECT_EQ(o->trace().dropped(), 0u) << "ring too small for the scenario";
  out.forest = obs::build_journey_forest(o->trace());
  out.open_at_end = o->journeys().open_count();
  return out;
}

TEST(JourneyChurn, EveryTerminatedJourneyIsACompleteContiguousTree) {
  const ChurnRun run = run_churn_forest(1, 1);
  const obs::JourneyForest& f = run.forest;
  ASSERT_FALSE(f.trees.empty());
  EXPECT_EQ(f.orphan_links, 0u);
  EXPECT_EQ(f.dropped_records, 0u);

  std::size_t terminated = 0, completed = 0;
  std::map<obs::Phase, std::size_t> rung_counts;
  std::set<std::uint32_t> flows_seen;
  std::size_t multi_cluster = 0, with_detour = 0, non_completed_terminals = 0;
  for (const obs::JourneyTree& t : f.trees) {
    EXPECT_TRUE(t.complete) << "journey " << t.id << " lost spans";
    if (!t.terminated) continue;
    ++terminated;
    // The headline invariant: the critical path tiles [begin, end]
    // exactly, so its segment durations sum to the end-to-end latency
    // with no epsilon.
    EXPECT_TRUE(t.contiguous) << "journey " << t.id << " has a causal gap";
    EXPECT_EQ(t.breakdown.total(), t.t_end - t.t_begin) << "journey " << t.id;
    EXPECT_NE(t.flow_attr, 0u) << "journey " << t.id << " lost its flow";
    flows_seen.insert(t.flow_attr);
    if (t.terminal == obs::Phase::kCompleted) {
      ++completed;
    } else {
      ++non_completed_terminals;
    }
    for (const obs::Phase p : t.rungs_fired) ++rung_counts[p];
    std::set<std::uint32_t> arrival_tracks(t.visit_tracks.begin(), t.visit_tracks.end());
    if (arrival_tracks.size() >= 2) ++multi_cluster;
    if (t.breakdown.offload_s > 0.0) ++with_detour;
  }
  // Every opened journey reached a terminal (the drain completes the city),
  // so the forest covers 100% of requests.
  EXPECT_EQ(run.open_at_end, 0u);
  EXPECT_EQ(terminated, f.trees.size());
  EXPECT_GT(completed, 100u);
  EXPECT_GT(non_completed_terminals, 0u);
  // All four ladder rungs attribute to journeys, both offload kinds
  // produced detours, and hand-offs crossed clusters.
  EXPECT_GT(rung_counts[obs::Phase::kPreempt], 0u);
  EXPECT_GT(rung_counts[obs::Phase::kOffloadHorizontal], 0u);
  EXPECT_GT(rung_counts[obs::Phase::kOffloadVertical], 0u);
  EXPECT_GT(rung_counts[obs::Phase::kDelay], 0u);
  EXPECT_GT(multi_cluster, 0u);
  EXPECT_GT(with_detour, 0u);
  // All three flows present among terminals.
  EXPECT_EQ(flows_seen.size(), 3u);
  // The manual injections are in the forest.
  std::set<std::uint64_t> ids;
  for (const auto& t : f.trees) ids.insert(t.id);
  EXPECT_TRUE(ids.count(0xfeed0000000001ull));
  EXPECT_TRUE(ids.count(0xfeed0000000002ull));
}

TEST(JourneyChurn, ForestDigestInvariantAcrossThreadCounts) {
  const ChurnRun base = run_churn_forest(7, 1);
  const std::uint64_t d1 = obs::forest_digest(base.forest);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const ChurnRun run = run_churn_forest(7, threads);
    EXPECT_EQ(obs::forest_digest(run.forest), d1)
        << "journey forest diverged at " << threads << " threads";
  }
}

TEST(JourneyChurn, JourneyLinksOffRestoresPlainTrace) {
  // journey_links=false must byte-identically reproduce the pre-journey
  // trace: same records, no kSpanLink rows.
  core::PlatformConfig cfg;
  cfg.seed = 3;
  cfg.threads = 1;
  cfg.obs.level = obs::TraceLevel::kFull;
  cfg.obs.journey_links = false;
  core::Df3Platform city(cfg);
  core::BuildingConfig b;
  b.name = "b0";
  b.rooms = 1;
  city.add_building(b);
  city.add_edge_source(0, soak_edge_factory(false), 0.5);
  city.run(u::hours(0.5));
  city.stop_sources();
  city.run(u::hours(0.5));
  obs::Observability* o = city.observability();
  ASSERT_NE(o, nullptr);
  std::size_t links = 0, records = 0;
  o->trace().for_each([&](const obs::TraceEvent& e) {
    ++records;
    if (e.is_link()) ++links;
  });
  EXPECT_GT(records, 0u);
  EXPECT_EQ(links, 0u);
  EXPECT_EQ(o->journeys().open_count(), 0u);
}

}  // namespace

#else

TEST(JourneyChurn, Skipped) { GTEST_SKIP() << "observability compiled out"; }

#endif  // DF3_OBS_DISABLED
