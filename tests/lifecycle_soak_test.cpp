// Lifecycle-conservation soak: a city under deterministic fault injection
// (link flapping + worker outage churn) must never lose or double-count a
// request. Every run drives all four peak-ladder rungs (preempt, horizontal,
// vertical, delay) and both partition drop paths, then drains to quiescence
// and asserts the auditor's conservation identities exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "df3/core/fault.hpp"
#include "df3/core/platform.hpp"
#include "df3/net/fault.hpp"

namespace core = df3::core;
namespace metrics = df3::metrics;
namespace net = df3::net;
namespace wl = df3::workload;
namespace u = df3::util;

namespace {

// Bounded request factories: per-shard work short enough (<= ~50 s at
// nominal clocks) that a one-hour drain after the churn stops is guaranteed
// to reach quiescence.

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
    r.work_gigacycles = rng.uniform(32.0, 160.0);  // per shard
    r.input_size = u::kibibytes(64.0);
    r.output_size = u::kibibytes(64.0);
    r.preemptible = rng.bernoulli(0.5);
    return r;
  };
}

/// Which links/workers a profile disturbs, and how hard. Link indices follow
/// the platform's construction order for b0 (2 rooms) then b1 (1 room):
///   0 b0:dev-gw  1 b0:wifi-gw  2 b0:gw-net  3 b0:gw-s0  4 b0:dev-s0
///   5 b0:wifi-s0 6 b0:gw-s1    7 b1:dev-gw  8 b1:wifi-gw 9 b1:gw-net
///   10 b1:gw-s0  11 b1:dev-s0  12 b1:wifi-s0
struct ChurnProfile {
  const char* name;
  std::vector<std::size_t> flap_a;
  double a_up_s, a_down_s;
  std::vector<std::size_t> flap_b;
  double b_up_s, b_down_s;
  core::OutageKind b0_kind, b1_kind;
  double churn_up_s, churn_down_s;
};

const ChurnProfile kProfiles[] = {
    // Staging LANs + device back doors flap; thermal churn in b0, power
    // churn in b1: exercises staging drops, return drops, and the
    // preempt-then-gate race inside each cluster.
    {"lan-churn", {3, 6, 10}, 240.0, 40.0, {0, 4, 11}, 300.0, 30.0,
     core::OutageKind::kThermalGate, core::OutageKind::kPowerGate, 400.0, 80.0},
    // Uplinks + Wi-Fi flap; churn kinds swapped with shorter dwells:
    // exercises uplink-partition drops on cloud routing and vertical
    // offload transfers, plus the wifi-origin staging path.
    {"wan-churn", {2, 9}, 400.0, 60.0, {1, 5, 8}, 250.0, 35.0,
     core::OutageKind::kPowerGate, core::OutageKind::kThermalGate, 300.0, 60.0},
};

/// Sums of per-run activity: the aggregate assertions prove every ladder
/// rung, both injectors and both drop paths actually fired across the soak.
struct SoakTotals {
  std::uint64_t preemptions = 0;
  std::uint64_t horizontal = 0;
  std::uint64_t vertical = 0;
  std::uint64_t edge_delays = 0;
  std::uint64_t flaps = 0;
  std::uint64_t outages = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t lane_parallel_ticks = 0;
};

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += "\n  " + l;
  return out;
}

void run_soak(std::uint64_t seed, const ChurnProfile& profile, SoakTotals& agg,
              std::size_t threads) {
  core::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.audit = metrics::AuditLevel::kFull;
  cfg.tick_s = 60.0;
  // One shard per building: threads > 1 runs each building's physics and
  // control math on its own lane under the churn (the shard map and the
  // thread count are both bit-neutral).
  cfg.threads = threads;
  cfg.shard_rooms = 1;
  cfg.with_datacenter = true;
  cfg.cluster.edge_peak_ladder = {"preempt", "horizontal",
                                  "vertical", "delay"};
  // Low relief-valve threshold: cloud backlog beyond ~50 Gc/core ships to
  // the datacenter, which also bounds the queue the drain has to empty.
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

  // Every submission path: indirect ZigBee, direct-to-worker, Wi-Fi, and
  // privacy-sensitive edge (which may move horizontally but never
  // vertically — the ladder's kDelay rung is its only relief when both
  // clusters are saturated).
  city.add_edge_source(0, soak_edge_factory(false), 0.5);
  city.add_edge_source(0, soak_edge_factory(false), 0.2, /*direct=*/true);
  city.add_edge_source(0, soak_edge_factory(true), 0.2, /*direct=*/false, /*via_wifi=*/true);
  city.add_edge_source(1, soak_edge_factory(false), 0.5);
  city.add_edge_source(1, soak_edge_factory(false), 0.1, /*direct=*/true);
  city.add_edge_source(1, soak_edge_factory(true), 0.2);
  // Bursty multi-shard cloud batches, ~mixed preemptibility, sized to keep
  // the city near saturation so the peak ladder fires continuously.
  city.add_cloud_source(soak_cloud_factory(), 0.05);
  city.add_cloud_source(soak_cloud_factory(), 0.08);

  net::LinkFlapper flap_a(city.simulation(), "flap-a", city.network(),
                          {profile.flap_a, profile.a_up_s, profile.a_down_s, 0.0},
                          u::RngStream(seed, "soak/flap-a"));
  net::LinkFlapper flap_b(city.simulation(), "flap-b", city.network(),
                          {profile.flap_b, profile.b_up_s, profile.b_down_s, 0.0},
                          u::RngStream(seed, "soak/flap-b"));
  core::WorkerChurnConfig churn0;
  churn0.workers = {0, 1};
  churn0.kind = profile.b0_kind;
  churn0.mean_up_s = profile.churn_up_s;
  churn0.mean_down_s = profile.churn_down_s;
  core::WorkerChurnConfig churn1;
  churn1.workers = {0};
  churn1.kind = profile.b1_kind;
  churn1.mean_up_s = profile.churn_up_s;
  churn1.mean_down_s = profile.churn_down_s;
  core::WorkerChurn churn_b0(city.simulation(), "churn-b0", city.cluster(0), churn0,
                             u::RngStream(seed, "soak/churn-b0"));
  core::WorkerChurn churn_b1(city.simulation(), "churn-b1", city.cluster(1), churn1,
                             u::RngStream(seed, "soak/churn-b1"));
  flap_a.start();
  flap_b.start();
  churn_b0.start();
  churn_b1.start();

  // Two hours under churn, then end all injection and drain for one hour —
  // far longer than the longest job (~50 s/shard) plus queue backlog.
  city.run(u::hours(2.0));
  flap_a.stop();
  flap_b.stop();
  churn_b0.stop();
  churn_b1.stop();
  city.stop_sources();
  city.run(u::hours(1.0));

  // --- conservation at quiescence -----------------------------------------
  const auto structural = city.audit_now();
  EXPECT_TRUE(structural.empty()) << "structural violations:" << join(structural);
  const auto& auditor = city.auditor();
  const auto quiescent = auditor.check_quiescent();
  EXPECT_TRUE(quiescent.empty()) << "lifecycle violations:" << join(quiescent);
  EXPECT_EQ(auditor.open_requests(), 0u);
  EXPECT_EQ(auditor.duplicate_terminals(), 0u);
  EXPECT_EQ(auditor.unknown_terminals(), 0u);
  // Outcome counters sum exactly to intake, city-wide...
  EXPECT_EQ(auditor.submitted(), auditor.completed() + auditor.rejected() + auditor.dropped() +
                                     auditor.deadline_missed());
  // ...and per cluster.
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    const auto& s = city.cluster(b).stats();
    EXPECT_EQ(city.cluster(b).in_flight(), 0u) << "cluster " << b;
    EXPECT_EQ(city.cluster(b).queued(), 0u) << "cluster " << b;
    EXPECT_EQ(s.intake(), s.terminal()) << "cluster " << b;
    agg.preemptions += s.preemptions;
    agg.horizontal += s.offloaded_horizontal_out;
    agg.vertical += s.offloaded_vertical;
    agg.edge_delays += s.edge_delays;
  }
  agg.flaps += flap_a.flaps() + flap_b.flaps();
  agg.outages += churn_b0.outages() + churn_b1.outages();
  agg.submitted += auditor.submitted();
  agg.completed += auditor.completed();
  agg.dropped += auditor.dropped();
  agg.deadline_missed += auditor.deadline_missed();
  agg.lane_parallel_ticks += city.lane_parallel_ticks();
}

}  // namespace

TEST(LifecycleSoak, ConservationHoldsUnderFaultChurn) {
  SoakTotals agg;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& profile : kProfiles) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", profile " + profile.name);
      run_soak(seed, profile, agg, /*threads=*/2);
    }
  }
  // The soak only proves conservation if the hard paths actually ran:
  // every ladder rung, both injectors, and lossy outcomes must all have
  // fired somewhere across the 16 runs, on the parallel tick shape.
  EXPECT_GT(agg.preemptions, 0u);
  EXPECT_GT(agg.horizontal, 0u);
  EXPECT_GT(agg.vertical, 0u);
  EXPECT_GT(agg.edge_delays, 0u);
  EXPECT_GT(agg.flaps, 0u);
  EXPECT_GT(agg.outages, 0u);
  EXPECT_GT(agg.submitted, 0u);
  EXPECT_GT(agg.completed, 0u);
  EXPECT_GT(agg.dropped, 0u);
  EXPECT_GT(agg.deadline_missed, 0u);
  EXPECT_GT(agg.lane_parallel_ticks, 0u);
}

TEST(LifecycleSoak, SameSeedSameOutcome) {
  // Determinism of the whole fault-injected stack: identical runs must
  // produce identical auditor counters (injector schedules included), in
  // the serial walk and at any lane count.
  SoakTotals a;
  run_soak(42, kProfiles[0], a, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SoakTotals b;
    run_soak(42, kProfiles[0], b, threads);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.deadline_missed, b.deadline_missed);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.flaps, b.flaps);
    EXPECT_EQ(a.outages, b.outages);
  }
}
