// Request path at city scale: set-up and per-request host cost of
// request_city's traffic mix as the city grows from 1e2 to 1e4 buildings.
//
// Each size builds a city of 10-room buildings in Stockholm's January with
// obs off: every third building has high-fidelity rooms, peers federate in
// the two-neighbour ring, the datacenter is attached. Each building gets an
// alarm-detection source through the gateway (0.02/s), a direct
// fall-detection source (0.005/s) and a telemetry source every 60 s; the
// city gets render batches (1/600 s) and risk simulations (1/300 s) from the
// cloud. Set-up is construction plus a 30-tick warm-up, then a 60-tick
// window is timed.
//
// Building counts come from DF3_REQUEST_BUILDINGS (csv, default
// "100,1000,10000"); sizes run in ascending order in one process, so each
// row's peak RSS is the process high-water mark after that size.
//
// Per row: setup_s and set-up per building, ns/request and requests/s over
// the window (requests = terminal outcomes in the window), ns/room-tick,
// events and cancels per request, route searches per building in set-up and
// in the window, nodes settled by route searches per building and per search
// (set-up plus window), and peak RSS. Once a city has more (src, dst, size)
// keys than Network::kRouteCacheCapacity, the cache fills and clears, so
// searches per building grow with the city while nodes per search stay
// flat. The counts are deterministic; the times are host time. Output: a
// console table plus BENCH_request.json (path overridable with
// DF3_BENCH_JSON).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "df3/core/platform.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/units.hpp"
#include "df3/workload/arrivals.hpp"
#include "df3/workload/generators.hpp"
#include "harness.hpp"

namespace {

using namespace df3;
using Clock = std::chrono::steady_clock;

constexpr int kRooms = 10;
constexpr double kTickS = 60.0;
constexpr std::uint64_t kWarmupTicks = 30;
constexpr std::uint64_t kWindowTicks = 60;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// High-water resident set of this process, from /proc/self/status.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::unique_ptr<core::Df3Platform> build_city(std::size_t buildings) {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(0);
  pc.climate = thermal::stockholm_climate();
  pc.tick_s = kTickS;
  pc.obs.level = obs::TraceLevel::kOff;
  pc.federation_degree = 2;
  pc.with_datacenter = true;
  auto city = std::make_unique<core::Df3Platform>(pc);
  for (std::size_t i = 0; i < buildings; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = kRooms;
    b.high_fidelity_rooms = i % 3 == 2;
    city->add_building(b);
  }
  for (std::size_t b = 0; b < buildings; ++b) {
    city->add_edge_source(b, workload::alarm_detection_factory(), 0.02);
    city->add_edge_source(b, workload::fall_detection_factory(), 0.005, /*direct=*/true);
    // Whole-second phases spread the telemetry bursts over the minute.
    const auto phase = static_cast<double>(60 * b / buildings);
    city->add_edge_source(b, workload::telemetry_factory(),
                          std::make_unique<workload::FixedIntervalArrivals>(60.0, phase));
  }
  city->add_cloud_source(workload::render_batch_factory(), 1.0 / 600.0);
  city->add_cloud_source(workload::risk_simulation_factory(), 1.0 / 300.0);
  return city;
}

struct Row {
  std::size_t buildings = 0;
  double setup_s = 0, add_building_s = 0, warmup_s = 0, window_s = 0;
  std::uint64_t requests = 0, events = 0, cancels = 0;
  std::uint64_t setup_searches = 0, window_searches = 0, settled = 0;
  double peak_rss_mb = 0;

  [[nodiscard]] double per_building(double v) const {
    return v / static_cast<double>(buildings);
  }
  [[nodiscard]] double per_request(double v) const {
    return requests > 0 ? v / static_cast<double>(requests) : 0.0;
  }
  [[nodiscard]] double settled_per_search() const {
    const std::uint64_t searches = setup_searches + window_searches;
    return searches > 0 ? static_cast<double>(settled) / static_cast<double>(searches) : 0.0;
  }
  [[nodiscard]] double ns_per_room_tick() const {
    return window_s * 1e9 / static_cast<double>(buildings * kRooms * kWindowTicks);
  }
};

Row run_row(std::size_t buildings) {
  Row r;
  r.buildings = buildings;
  const auto t0 = Clock::now();
  const auto city = build_city(buildings);
  r.add_building_s = seconds_since(t0);
  const auto t1 = Clock::now();
  city->run(util::Seconds{static_cast<double>(kWarmupTicks) * kTickS});
  r.warmup_s = seconds_since(t1);
  r.setup_s = seconds_since(t0);

  const net::Network& n = city->network();
  const sim::Simulation& sim = city->simulation();
  r.setup_searches = n.route_searches();
  const std::uint64_t terminals0 = city->auditor().terminals();
  const std::uint64_t events0 = sim.events_executed();
  const std::uint64_t cancels0 = sim.events_cancelled();
  const auto t2 = Clock::now();
  city->run(util::Seconds{static_cast<double>(kWindowTicks) * kTickS});
  r.window_s = seconds_since(t2);
  r.requests = city->auditor().terminals() - terminals0;
  r.events = sim.events_executed() - events0;
  r.cancels = sim.events_cancelled() - cancels0;
  r.window_searches = n.route_searches() - r.setup_searches;
  r.settled = n.route_nodes_settled();
  r.peak_rss_mb = peak_rss_mib();
  if (r.requests == 0) throw std::runtime_error("no request reached an outcome in the window");
  return r;
}

}  // namespace

int main() {
  std::vector<std::size_t> sizes = bench::env_counts("DF3_REQUEST_BUILDINGS", "100,1000,10000");
  std::sort(sizes.begin(), sizes.end());
  std::printf("bench_request_path: request_city traffic, %d rooms/building, %llu warm-up + "
              "%llu timed ticks\n\n",
              kRooms, static_cast<unsigned long long>(kWarmupTicks),
              static_cast<unsigned long long>(kWindowTicks));
  std::printf("%9s %9s %10s %9s %11s %10s %8s %8s %10s %10s %10s %9s %8s\n", "buildings",
              "setup_s", "setup/bld", "ns/req", "req/s", "ns/rm-tick", "ev/req", "cx/req",
              "srch/bld:s", "srch/bld:w", "settled/b", "settled/s", "rss_mb");
  std::vector<Row> rows;
  for (const std::size_t b : sizes) {
    const Row r = run_row(b);
    rows.push_back(r);
    const double window_ns = r.window_s * 1e9;
    std::printf(
        "%9zu %9.4f %10.3e %9.0f %11.4g %10.1f %8.3f %8.4f %10.2f %10.2f %10.1f %9.2f %8.1f\n",
                r.buildings, r.setup_s, r.per_building(r.setup_s), r.per_request(window_ns),
                static_cast<double>(r.requests) / r.window_s, r.ns_per_room_tick(),
                r.per_request(static_cast<double>(r.events)),
                r.per_request(static_cast<double>(r.cancels)),
                r.per_building(static_cast<double>(r.setup_searches)),
                r.per_building(static_cast<double>(r.window_searches)),
                r.per_building(static_cast<double>(r.settled)), r.settled_per_search(),
                r.peak_rss_mb);
    std::fflush(stdout);
  }

  const char* env = std::getenv("DF3_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_request.json";
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double window_ns = r.window_s * 1e9;
    out << "    {\"name\": \"request_path/buildings:" << r.buildings << "\""
        << ", \"buildings\": " << r.buildings << ", \"rooms\": " << r.buildings * kRooms
        << ", \"setup_s\": " << r.setup_s
        << ", \"setup_s_per_building\": " << r.per_building(r.setup_s)
        << ", \"add_building_s\": " << r.add_building_s << ", \"warmup_s\": " << r.warmup_s
        << ", \"window_s\": " << r.window_s << ", \"requests\": " << r.requests
        << ", \"ns_per_request\": " << r.per_request(window_ns)
        << ", \"requests_per_s\": " << static_cast<double>(r.requests) / r.window_s
        << ", \"ns_per_room_tick\": " << r.ns_per_room_tick()
        << ", \"events_per_request\": " << r.per_request(static_cast<double>(r.events))
        << ", \"cancels_per_request\": " << r.per_request(static_cast<double>(r.cancels))
        << ", \"route_searches_setup_per_building\": "
        << r.per_building(static_cast<double>(r.setup_searches))
        << ", \"route_searches_window_per_building\": "
        << r.per_building(static_cast<double>(r.window_searches))
        << ", \"settled_nodes_per_building\": "
        << r.per_building(static_cast<double>(r.settled))
        << ", \"settled_nodes_per_search\": " << r.settled_per_search()
        << ", \"peak_rss_mb\": " << r.peak_rss_mb << '}' << (i + 1 < rows.size() ? "," : "")
        << '\n';
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
