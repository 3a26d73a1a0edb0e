/// \file platform_lane_test.cpp
/// \brief Parallel-control-lane determinism and lookahead gating.
///
/// The parallel tick (DESIGN.md section 12) runs physics and control math
/// per district lane on the pool, then a serial boundary drain, licensed by
/// the conservative network lookahead `now + Network::min_peer_latency()`.
/// Its contract on top of the shard invariants:
///  1. `threads` is a pure performance knob: any lane count, any
///     federation degree, and live fault injectors (worker churn, link
///     flaps) produce bit-identical telemetry and end state.
///  2. A zero-latency link collapses the lookahead horizon, so the tick
///     must fall back to the serial walk — and still match.
///  3. Under kFull tracing the two shapes emit the span contract perfbench
///     counts ticks by: a parallel tick emits one physics-phase, one
///     control-phase and one lane-control span per shard; a serial tick
///     emits one physics-phase span only.
///  4. `Network::min_peer_latency()` is cached and invalidated by topology
///     changes and link up/down transitions.

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "df3/df3.hpp"

namespace df3 {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Digest {
  std::uint64_t csv_hash = 0;
  std::uint64_t raw_hash = 0;
  bool operator==(const Digest& o) const {
    return csv_hash == o.csv_hash && raw_hash == o.raw_hash;
  }
};

Digest digest_of(core::Df3Platform& city) {
  std::ostringstream csv;
  city.export_series_csv(csv);
  std::string raw;
  const auto put = [&raw](double v) {
    raw.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    for (std::size_t r = 0; r < 64; ++r) {
      try {
        put(city.room_temperature(b, r).value());
      } catch (const std::out_of_range&) {
        break;
      }
    }
  }
  put(city.df_energy().it().value());
  put(city.regulator_relative_error());
  return Digest{fnv1a(csv.str()), fnv1a(raw)};
}

/// Same irregular mixed-fidelity city as the shard suite: eight buildings,
/// 36 rooms, every third building 2R2C, live edge + cloud request sources.
constexpr int kRooms[] = {3, 5, 8, 2, 7, 4, 6, 1};

core::PlatformConfig lane_config(int month, std::size_t threads,
                                 std::size_t federation_degree) {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(month);
  pc.climate = thermal::paris_climate();
  // shard_rooms=12 splits the 36-room city into 3 shards, so 3 lanes with
  // buildings straddling every lane boundary.
  pc.shard_rooms = 12;
  pc.threads = threads;
  pc.federation_degree = federation_degree;
  // The gated control path replays regulate() under kFull inside the lane
  // stage; zero violations proves the replay buffer plumbing too.
  pc.audit = metrics::AuditLevel::kFull;
  return pc;
}

void populate_city(core::Df3Platform& city) {
  for (std::size_t i = 0; i < std::size(kRooms); ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = kRooms[i];
    b.high_fidelity_rooms = (i % 3 == 2);
    city.add_building(b);
  }
  city.set_cloud_routing("df-first");
  city.add_edge_source(0, workload::alarm_detection_factory(), 0.02);
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 900.0);
}

struct RunResult {
  Digest digest;
  std::uint64_t violations = 0;
  std::uint64_t parallel_ticks = 0;
  std::uint64_t fallback_ticks = 0;
};

/// Build, run and tear down one city (Df3Platform is not movable — its
/// event sources capture `this`). `extra` runs between populate and run,
/// e.g. to attach fault injectors or splice extra links.
RunResult run_lane_city(int month, std::size_t threads, std::size_t federation_degree,
                        double days = 3.0,
                        const std::function<void(core::Df3Platform&, double)>& extra = {}) {
  core::Df3Platform city(lane_config(month, threads, federation_degree));
  populate_city(city);
  if (extra) {
    extra(city, days);
  } else {
    city.run(util::days(days));
  }
  RunResult r;
  r.digest = digest_of(city);
  r.violations = city.auditor().violation_count();
  r.parallel_ticks = city.lane_parallel_ticks();
  r.fallback_ticks = city.lane_fallback_ticks();
  return r;
}

/// Fault-injector harness: worker churn on building 0's cluster plus link
/// flaps on its uplink (link index 2: device->gw, wifi->gw, gw->internet
/// per building, in add_building order). Both keep running for the whole
/// window, so lanes see mid-run usable-core and topology transitions.
void run_with_injectors(core::Df3Platform& city, double days) {
  core::WorkerChurnConfig churn;
  churn.workers = {0, 1};
  churn.mean_up_s = 1800.0;
  churn.mean_down_s = 300.0;
  core::WorkerChurn worker_churn(city.simulation(), "churn-b0", city.cluster(0), churn,
                                 util::RngStream(7, "lane/churn-b0"));
  net::LinkFlapConfig flap;
  flap.links = {2};
  flap.mean_up_s = 3600.0;
  flap.mean_down_s = 600.0;
  net::LinkFlapper flapper(city.simulation(), "flap-b0", city.network(), flap,
                           util::RngStream(7, "lane/flap-b0"));
  worker_churn.start();
  flapper.start();
  city.run(util::days(days));
  flapper.stop();
  worker_churn.stop();
}

TEST(LaneDeterminism, DigestInvariantAcrossThreadsAndFederation) {
  // Winter: the full thermostat -> regulate chain runs every tick, so the
  // lanes carry the whole control load. Reference is the serial walk at
  // each federation degree (degree changes peer hand-offs, so it
  // is a real topology choice with its own reference digest).
  for (const std::size_t fed : {std::size_t{0}, std::size_t{2}}) {
    const RunResult ref = run_lane_city(0, 1, fed);
    EXPECT_EQ(ref.parallel_ticks, 0u);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " fed=" + std::to_string(fed));
      const RunResult r = run_lane_city(0, threads, fed);
      EXPECT_TRUE(r.digest == ref.digest);
      EXPECT_EQ(r.violations, 0u);
      EXPECT_GT(r.parallel_ticks, 0u);
      EXPECT_EQ(r.fallback_ticks, 0u);
    }
  }
}

TEST(LaneDeterminism, DigestInvariantUnderFaultInjectors) {
  // Worker churn mutates usable cores (and bumps the cluster control
  // epoch) mid-run; link flaps change the routable topology and invalidate
  // the lookahead cache. Lanes must still match the serial sweep exactly.
  for (const std::size_t fed : {std::size_t{0}, std::size_t{2}}) {
    const RunResult ref = run_lane_city(6, 1, fed, 3.0, run_with_injectors);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " fed=" + std::to_string(fed));
      const RunResult r = run_lane_city(6, threads, fed, 3.0, run_with_injectors);
      EXPECT_TRUE(r.digest == ref.digest);
      EXPECT_EQ(r.violations, 0u);
      EXPECT_GT(r.parallel_ticks, 0u);
    }
  }
}

TEST(LaneLookahead, ZeroLatencyLinkForcesSerialFallback) {
  // A zero-latency path between two gateways collapses the conservative
  // horizon to the tick instant: every tick must take the serial fallback,
  // and the result must match the serial walk over the same topology.
  const auto splice_zero_link = [](core::Df3Platform& city, double days) {
    net::LinkProfile wire;
    wire.name = "patch-zero";
    wire.base_latency = util::seconds(0.0);
    city.network().add_link(city.network().node("b0/gw"), city.network().node("b1/gw"), wire);
    city.run(util::days(days));
  };
  const RunResult serial = run_lane_city(0, 1, 2, 2.0, splice_zero_link);
  EXPECT_EQ(serial.parallel_ticks, 0u);
  EXPECT_EQ(serial.fallback_ticks, 0u);
  const RunResult laned = run_lane_city(0, 8, 2, 2.0, splice_zero_link);
  EXPECT_EQ(laned.parallel_ticks, 0u);
  EXPECT_GT(laned.fallback_ticks, 0u);
  EXPECT_TRUE(laned.digest == serial.digest);
  // Control: without the zero-latency splice the same city runs its lanes
  // in parallel every tick.
  const RunResult normal = run_lane_city(0, 8, 2, 2.0);
  EXPECT_GT(normal.parallel_ticks, 0u);
  EXPECT_EQ(normal.fallback_ticks, 0u);
}

TEST(LaneTrace, TickShapesEmitThePhaseSpanContract) {
  // perfbench's tick.*_ms columns count ticks by physics-phase spans and
  // sum control-phase and lane-control spans per tick; pin that contract
  // for both execution shapes on the 3-shard city.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::PlatformConfig pc = lane_config(0, threads, 0);
    pc.obs.level = obs::TraceLevel::kFull;
    core::Df3Platform city(pc);
    populate_city(city);
    city.run(util::hours(6.0));
    const obs::Observability* o = city.observability();
    ASSERT_NE(o, nullptr);
    ASSERT_EQ(o->trace().dropped(), 0u);
    ASSERT_EQ(city.shard_count(), 3u);
    const std::uint64_t ticks = city.district_ticks() / city.shard_count();
    ASSERT_GT(ticks, 0u);

    std::uint64_t physics = 0;
    std::uint64_t control = 0;
    std::map<std::string, std::uint64_t> lane_spans;  // per lane track
    o->trace().for_each([&](const obs::TraceEvent& e) {
      if (e.clock != obs::Clock::kHost || !e.is_span()) return;
      if (e.phase == obs::Phase::kPhysicsPhase) {
        ++physics;
      } else if (e.phase == obs::Phase::kControlPhase) {
        ++control;
      } else if (e.phase == obs::Phase::kLaneControl) {
        ++lane_spans[o->trace().track_names().at(e.track)];
      }
    });
    EXPECT_EQ(physics, ticks);
    if (threads == 1) {
      EXPECT_EQ(city.lane_parallel_ticks(), 0u);
      EXPECT_EQ(control, 0u);
      EXPECT_TRUE(lane_spans.empty());
    } else {
      EXPECT_EQ(city.lane_parallel_ticks(), ticks);
      EXPECT_EQ(control, ticks);
      ASSERT_EQ(lane_spans.size(), 3u);
      for (const auto& [track, n] : lane_spans) EXPECT_EQ(n, ticks) << track;
    }
  }
}

TEST(TickCaches, MatchTheUncachedPathsUnderChurnAndFlaps) {
  // The drain sums per-building core counts the lanes (or, for deferred
  // clusters, the drain itself) recorded, folds regulator mirrors written
  // by physics pass A, and the registry counters are bumped at the event
  // sites. verify_tick_caches() re-derives each from the uncached path.
  // A 4-building city with traffic (so some clusters defer their sync to
  // the drain), worker churn and link flaps, in winter (every regulator
  // stepped) and across the spring end of the heating season (regulators
  // that tracked demand, then activity-gated), checked after every 10-tick
  // chunk in both execution shapes; the kFull sweep also runs the oracle
  // every tick and reports into the auditor.
  const auto season_end = [] {
    const core::Df3Platform probe(lane_config(0, 1, 0));
    const double cutoff_c = core::BuildingConfig{}.comfort.heating_cutoff_outdoor.value();
    double t = thermal::start_of_month(3);
    while (probe.weather().seasonal_component(t).value() < cutoff_c) t += 3600.0;
    return t;
  };
  const double starts[] = {thermal::start_of_month(0), season_end() - 2 * 3600.0};
  Digest digests[2];
  for (const double start : starts) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("start=" + std::to_string(start) + " threads=" + std::to_string(threads));
      core::PlatformConfig pc = lane_config(0, threads, 0);
      pc.start_time = start;
      pc.shard_rooms = 3;  // one shard (lane) per building
      pc.obs.level = obs::TraceLevel::kCounters;
      pc.cluster.edge_peak_ladder = {"preempt", "horizontal", "vertical", "delay"};
      core::Df3Platform city(pc);
      for (int i = 0; i < 4; ++i) {
        core::BuildingConfig b;
        b.name = "b" + std::to_string(i);
        b.rooms = 3 + i;
        b.high_fidelity_rooms = (i == 2);
        city.add_building(b);
      }
      city.add_edge_source(0, workload::alarm_detection_factory(), 0.5);
      city.add_edge_source(2, workload::alarm_detection_factory(), 0.2);
      city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 300.0);
      ASSERT_EQ(city.shard_count(), 4u);

      core::WorkerChurnConfig churn;
      churn.workers = {0, 1, 2};
      churn.mean_up_s = 900.0;
      churn.mean_down_s = 300.0;
      core::WorkerChurn worker_churn(city.simulation(), "churn-b0", city.cluster(0), churn,
                                     util::RngStream(5, "caches/churn-b0"));
      net::LinkFlapConfig flap;
      // Uplinks of b0..b2 (each building adds device/wifi/uplink, then
      // gw->server per room plus device/wifi->server for room 0) and one
      // b0-local server link.
      flap.links = {2, 3, 10, 19};
      flap.mean_up_s = 1800.0;
      flap.mean_down_s = 300.0;
      net::LinkFlapper flapper(city.simulation(), "flap", city.network(), flap,
                               util::RngStream(5, "caches/flap"));
      worker_churn.start();
      flapper.start();
      for (int chunk = 0; chunk < 36; ++chunk) {
        city.run(util::seconds(10 * pc.tick_s));
        const std::vector<std::string> findings = city.verify_tick_caches();
        ASSERT_TRUE(findings.empty()) << "chunk " << chunk << ": " << findings.front();
      }
      flapper.stop();
      worker_churn.stop();
      EXPECT_GT(worker_churn.outages(), 0u);
      EXPECT_EQ(city.auditor().violation_count(), 0u);
      EXPECT_GT(city.regulator_relative_error(), 0.0);
      if (start != starts[0]) {
        EXPECT_GT(city.gated_district_ticks(), 0u);
      }
      digests[threads > 1 ? 1 : 0] = digest_of(city);
      if (threads > 1) {
        EXPECT_GT(city.lane_parallel_ticks(), 0u);
        EXPECT_TRUE(digests[0] == digests[1]);
      }
    }
  }
}

TEST(LaneSnapshot, ExpiresWithItsTick) {
  // A tick freezes every cluster's peer-visible load (the lane snapshot)
  // for the offload decisions of its drain. Once the tick is over, a
  // decision made at event time must read live load. b1 and b2 are idle at
  // the tick, so the snapshot ties them; b1 then takes a backlog, and an
  // edge request that finds b0 full must go to b2. A snapshot that outlived
  // its tick would still see the tie and pick b1, the first peer.
  const auto batch = [](int tasks) {
    workload::Request r;
    r.app = "batch";
    r.work_gigacycles = 1e5;
    r.tasks = tasks;
    r.preemptible = false;
    return r;
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::PlatformConfig pc = lane_config(0, threads, 0);
    pc.shard_rooms = 1;  // one shard (lane) per building
    pc.with_datacenter = false;
    pc.cluster.edge_peak_ladder = {"horizontal", "delay"};
    pc.cluster.peer_select = "least-loaded";
    core::Df3Platform city(pc);
    for (int i = 0; i < 3; ++i) city.add_building({.name = "b" + std::to_string(i), .rooms = 1});
    ASSERT_EQ(city.shard_count(), 3u);
    // b0 is full and has work queued at the tick, so the serial walk arms
    // the snapshots as well.
    city.inject_cloud_at(0, batch(64));
    city.run(util::seconds(pc.tick_s + 1.0));
    ASSERT_GT(city.cluster(0).queued(), 0u);
    city.inject_cloud_at(1, batch(64));
    city.run(util::seconds(1.0));
    ASSERT_GT(city.cluster(1).queued(), 0u);
    workload::Request alarm;
    alarm.app = "alarm";
    alarm.deadline_s = 600.0;
    city.inject_edge(0, alarm);
    city.run(util::seconds(5.0));  // the next tick is a minute away
    EXPECT_EQ(city.cluster(0).stats().offloaded_horizontal_out, 1u);
    EXPECT_EQ(city.cluster(1).stats().offloaded_horizontal_in, 0u);
    EXPECT_EQ(city.cluster(2).stats().offloaded_horizontal_in, 1u);
    EXPECT_EQ(city.lane_parallel_ticks(), threads > 1 ? 1u : 0u);
    const std::vector<std::string> findings = city.verify_tick_caches();
    EXPECT_TRUE(findings.empty()) << findings.front();
  }
}

TEST(LaneLookahead, MinPeerLatencyCachesAndInvalidates) {
  sim::Simulation sim;
  net::Network net(sim, "t-net");
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  const auto c = net.add_node("c");
  // No links: the horizon is unbounded (+inf), lanes need no gate.
  EXPECT_TRUE(net.min_peer_latency().value() > 1e30);

  net::LinkProfile slow;
  slow.base_latency = util::seconds(0.01);
  const std::size_t l0 = net.add_link(a, b, slow);
  EXPECT_DOUBLE_EQ(net.min_peer_latency().value(), 0.01);

  // Adding a faster link must invalidate the cached minimum.
  net::LinkProfile fast;
  fast.base_latency = util::seconds(0.001);
  const std::size_t l1 = net.add_link(b, c, fast);
  EXPECT_DOUBLE_EQ(net.min_peer_latency().value(), 0.001);

  // Downing the fast link raises the minimum; restoring it lowers it again.
  net.set_link_up(l1, false);
  EXPECT_DOUBLE_EQ(net.min_peer_latency().value(), 0.01);
  net.set_link_up(l1, true);
  EXPECT_DOUBLE_EQ(net.min_peer_latency().value(), 0.001);

  // Downing everything empties the up-set: back to the unbounded horizon.
  net.set_link_up(l0, false);
  net.set_link_up(l1, false);
  EXPECT_TRUE(net.min_peer_latency().value() > 1e30);
}

}  // namespace
}  // namespace df3
