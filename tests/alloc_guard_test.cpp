// Allocation guard for the request path: once a city is warm, a request
// costs no heap object between platform intake and its terminal record
// (DESIGN.md, "Request path objects"). This binary replaces the global
// operator new with a counting one, so it stands alone: the replacement
// must not leak into the other suites. The check counts allocations, not
// time, so it is deterministic on any host and under the sanitizers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "df3/core/fault.hpp"
#include "df3/core/platform.hpp"
#include "df3/core/scheduler.hpp"
#include "df3/net/fault.hpp"
#include "df3/thermal/calendar.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the inlined free() below with the new-expression it came
// from and flags the pair; these functions are that pair's own definition.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace core = df3::core;
namespace metrics = df3::metrics;
namespace net = df3::net;
namespace obs = df3::obs;
namespace wl = df3::workload;
namespace u = df3::util;

namespace {

/// Allocations per terminal request over a window after warm-up.
struct Reading {
  std::uint64_t allocations = 0;
  std::uint64_t terminals = 0;
  std::uint64_t handoffs = 0;  ///< horizontal hand-offs in the window
  [[nodiscard]] double per_request() const {
    return static_cast<double>(allocations) / static_cast<double>(terminals);
  }
};

/// Four buildings with every edge intake path (indirect ZigBee, direct to a
/// worker, Wi-Fi), a multi-shard cloud source, one link flapper over the
/// uplinks and building LANs, and one worker churn. Warm-up fills the
/// calendar, route cache, queues and metric slices; the window after it is
/// what the guard reads. `ladder` is every cluster's edge peak ladder;
/// non-preemptible cloud work leaves the preempt rung without a victim.
Reading measure(obs::TraceLevel level,
                std::vector<std::string> ladder = core::ClusterConfig{}.edge_peak_ladder,
                bool preemptible_cloud = true) {
  core::PlatformConfig cfg;
  cfg.seed = 2016;
  cfg.start_time = df3::thermal::start_of_month(0);
  // kFull keeps one map node per request id by design; the guard covers
  // the request path, so the auditor stays at its counting level in every
  // build (DF3_AUDIT builds default to kFull).
  cfg.audit = metrics::AuditLevel::kCounters;
  cfg.obs.level = level;
  cfg.cluster.edge_peak_ladder = std::move(ladder);
  core::Df3Platform city(cfg);
  constexpr std::size_t kBuildings = 4;
  for (std::size_t b = 0; b < kBuildings; ++b) {
    core::BuildingConfig bc;
    bc.name = "b" + std::to_string(b);
    bc.rooms = 4;
    city.add_building(bc);
  }
  for (std::size_t b = 0; b < kBuildings; ++b) {
    city.add_edge_source(b, wl::alarm_detection_factory(), 0.2);
    city.add_edge_source(b, wl::fall_detection_factory(), 0.05, /*direct=*/true);
    city.add_edge_source(b, wl::alarm_detection_factory(), 0.05, /*direct=*/false,
                         /*via_wifi=*/true);
  }
  city.add_cloud_source(
      [render = wl::render_batch_factory(), preemptible_cloud](df3::util::RngStream& rng) {
        wl::Request r = render(rng);
        r.preemptible = preemptible_cloud;
        return r;
      },
      1.0 / 300.0);

  // Per building: dev-gw, wifi-gw, gw-internet, then gw-srv<i> per room
  // with the dev-srv0 and wifi-srv0 back doors right after gw-srv0.
  std::vector<std::size_t> flapped;
  for (std::size_t b = 0; b < kBuildings; ++b) {
    const std::size_t base = b * (3 + 4 + 2);
    flapped.push_back(base + 2);
    flapped.push_back(base + 3);
  }
  net::LinkFlapper flapper(city.simulation(), "flap", city.network(),
                           net::LinkFlapConfig{flapped, 400.0, 40.0, 0.0},
                           u::RngStream(cfg.seed, "alloc-guard/flap"));
  core::WorkerChurnConfig cc;
  cc.workers = {0, 1};
  cc.mean_up_s = 400.0;
  cc.mean_down_s = 60.0;
  core::WorkerChurn churn(city.simulation(), "churn", city.cluster(0), cc,
                          u::RngStream(cfg.seed, "alloc-guard/churn"));
  flapper.start();
  churn.start();

  const auto handoffs = [&city] {
    std::uint64_t n = 0;
    for (std::size_t b = 0; b < kBuildings; ++b) {
      n += city.cluster(b).stats().offloaded_horizontal_out;
    }
    return n;
  };
  city.run(u::hours(3.0));
  const std::uint64_t terminals0 = city.flow_metrics().overall().total();
  const std::uint64_t handoffs0 = handoffs();
  const std::uint64_t allocations0 = g_allocations.load(std::memory_order_relaxed);
  city.run(u::hours(3.0));
  Reading r;
  r.allocations = g_allocations.load(std::memory_order_relaxed) - allocations0;
  r.terminals = city.flow_metrics().overall().total() - terminals0;
  r.handoffs = handoffs() - handoffs0;
  EXPECT_GT(flapper.flaps(), 0u);
  EXPECT_GT(churn.outages(), 0u);
  return r;
}

class AllocGuard : public ::testing::TestWithParam<obs::TraceLevel> {};

TEST_P(AllocGuard, WarmRequestPathAllocatesAlmostNothing) {
  const Reading r = measure(GetParam());
  ASSERT_GT(r.terminals, 5000u);
  RecordProperty("allocations", std::to_string(r.allocations));
  RecordProperty("terminals", std::to_string(r.terminals));
  // Before the pooled request record this read ~10 per request; before the
  // ring queue lanes, 0.11 (kOff) and 0.25 (kCounters); before the SLO
  // reports merged into one reused sketch, 1753 allocations (kCounters);
  // before served_by became an enum, 33 and 101. The bounds are 3x today's
  // readings: 23 and 91 allocations for 12998 requests.
  const double bound = GetParam() == obs::TraceLevel::kOff ? 0.0054 : 0.021;
  EXPECT_LE(r.per_request(), bound) << r.allocations << " allocations for " << r.terminals
                                    << " terminal requests";
}

TEST(AllocGuardHorizontal, WarmHandOffsAllocateAlmostNothing) {
  // The default ladder never offloads horizontally. Here the preempt rung
  // finds no preemptible cloud shard and falls through to the horizontal
  // rung, so the peer hand-off (its hop and its completion wrapper) is
  // under the guard.
  const Reading r = measure(obs::TraceLevel::kOff, {"preempt", "horizontal", "delay"},
                            /*preemptible_cloud=*/false);
  ASSERT_GT(r.terminals, 5000u);
  ASSERT_GT(r.handoffs, 0u);
  RecordProperty("allocations", std::to_string(r.allocations));
  RecordProperty("terminals", std::to_string(r.terminals));
  RecordProperty("handoffs", std::to_string(r.handoffs));
  // 47 allocations for 12998 requests and 15 hand-offs while each hand-off
  // wrapper captured a label string; the bound is 3x today's reading of 22.
  EXPECT_LE(r.per_request(), 0.0051) << r.allocations << " allocations for " << r.terminals
                                  << " terminal requests, " << r.handoffs << " hand-offs";
}

TEST(AllocGuardSetup, AddBuildingBuildsEachPolicyOnce) {
  // One add_building allocates its building record, its cluster with the
  // policy objects (ladder rungs, placement, peer selector), worker
  // storage, and a share of the growth of the city's containers. Averaged
  // over 64 buildings after 64 more, so the growth share is the steady one.
  core::PlatformConfig cfg;
  core::Df3Platform city(cfg);
  constexpr std::size_t kWarm = 64;
  constexpr std::size_t kMeasured = 64;
  std::vector<core::BuildingConfig> buildings(kWarm + kMeasured);
  for (std::size_t b = 0; b < buildings.size(); ++b) {
    buildings[b].name = "b" + std::to_string(b);
    buildings[b].rooms = 4;
  }
  for (std::size_t b = 0; b < kWarm; ++b) city.add_building(buildings[b]);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t b = kWarm; b < buildings.size(); ++b) city.add_building(buildings[b]);
  const double per_building =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - before) /
      static_cast<double>(kMeasured);
  RecordProperty("allocations_per_building", std::to_string(per_building));
  // 27.3 while the config check and the cluster constructor each built the
  // three policies once more and dropped them; 17.3 since.
  EXPECT_LE(per_building, 20.0) << per_building << " allocations per add_building";
}

TEST(TaskQueueAlloc, DefaultConstructedAllocatesNothing) {
  // A city has one queue per building and most of them sit idle: an empty
  // lane must cost no heap block until its first push.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const auto d : {core::QueueDiscipline::kFcfs, core::QueueDiscipline::kEdf}) {
    const core::TaskQueue q(d);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.backlog_gigacycles(), 0.0);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

INSTANTIATE_TEST_SUITE_P(ObsLevels, AllocGuard,
                         ::testing::Values(obs::TraceLevel::kOff, obs::TraceLevel::kCounters),
                         [](const ::testing::TestParamInfo<obs::TraceLevel>& p) {
                           return p.param == obs::TraceLevel::kOff ? std::string("Off")
                                                                   : std::string("Counters");
                         });

}  // namespace
