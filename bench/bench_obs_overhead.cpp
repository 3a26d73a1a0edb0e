// Overhead of the observability layer (DESIGN.md section 10): full-platform
// run throughput with telemetry off / counters / full tracing / journeys.
//
// The four sides run the *same* city — buildings with edge workload, cloud
// batches, and the heat regulator active — differing only in
// `PlatformConfig::obs.level` (and, for the last pair, whether journey span
// links are emitted). Rounds are interleaved off,counters,full,journeys,...
// and medians reported, so host drift hits all sides equally. The mean room
// temperature is cross-checked between sides: observation must not perturb
// the simulation (the determinism test pins the digests; this is the cheap
// in-bench guard).
//
// `full` runs kFull tracing with journey_links=false; `journeys` is the
// default kFull configuration with span links on, so the full→journeys
// delta prices the causal-link records (DESIGN.md section 14).
//
// The hooks are always compiled in: `off` exercises the disabled-path
// check (a pointer load and branch per hook site), which is the baseline
// the other three sides are priced against.
//
// Output: a console table plus BENCH_obs.json (path overridable with
// DF3_BENCH_JSON) with ns/tick and the overhead per level relative to off.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "df3/core/platform.hpp"
#include "df3/obs/obs.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/util/units.hpp"
#include "df3/workload/generators.hpp"

namespace {

using namespace df3;

constexpr double kDays = 2.0;
constexpr int kBuildings = 4;
constexpr int kRoomsPerBuilding = 4;
constexpr int kRounds = 5;

struct RunResult {
  double seconds = 0.0;
  double mean_temp = 0.0;
  std::uint64_t trace_events = 0;
};

RunResult run_city(obs::TraceLevel level, bool journey_links) {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(0);
  pc.climate = thermal::paris_climate();
  pc.obs.level = level;
  pc.obs.journey_links = journey_links;
  core::Df3Platform city(pc);
  for (int i = 0; i < kBuildings; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = kRoomsPerBuilding;
    city.add_building(b);
  }
  city.add_edge_source(0, workload::alarm_detection_factory(), 0.05);
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 1800.0);

  const auto start = std::chrono::steady_clock::now();
  city.run(util::days(kDays));
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  double sum = 0.0;
  for (int b = 0; b < kBuildings; ++b) {
    for (int room = 0; room < kRoomsPerBuilding; ++room) {
      sum += city.room_temperature(static_cast<std::size_t>(b), static_cast<std::size_t>(room))
                 .value();
    }
  }
  r.mean_temp = sum / (kBuildings * kRoomsPerBuilding);
  if (const obs::Observability* o = city.observability(); o != nullptr) {
    r.trace_events = o->trace().recorded();
  }
  return r;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  const struct {
    const char* label;
    obs::TraceLevel level;
    bool journey_links;
  } sides[] = {{"off", obs::TraceLevel::kOff, false},
               {"counters", obs::TraceLevel::kCounters, false},
               {"full", obs::TraceLevel::kFull, false},
               {"journeys", obs::TraceLevel::kFull, true}};
  constexpr std::size_t kSides = 4;
  const double ticks = kDays * 24.0 * 3600.0 / 60.0;

  std::printf("bench_obs_overhead: %d buildings x %d rooms, %.0f simulated days, "
              "%d interleaved rounds\n\n",
              kBuildings, kRoomsPerBuilding, kDays, kRounds);

  std::vector<double> times[kSides];
  RunResult last[kSides];
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t s = 0; s < kSides; ++s) {
      last[s] = run_city(sides[s].level, sides[s].journey_links);
      times[s].push_back(last[s].seconds);
    }
  }
  for (std::size_t s = 1; s < kSides; ++s) {
    if (std::abs(last[s].mean_temp - last[0].mean_temp) > 1e-12) {
      std::printf("WARNING: observation perturbed the simulation "
                  "(%s %.12f C vs off %.12f C)\n",
                  sides[s].label, last[s].mean_temp, last[0].mean_temp);
    }
  }

  std::printf("%10s %12s %12s %10s %14s\n", "level", "ns/tick", "ticks/s", "overhead",
              "trace events");
  const double base = median(times[0]);
  double ns_per_tick[kSides];
  double overhead[kSides];
  for (std::size_t s = 0; s < kSides; ++s) {
    const double med = median(times[s]);
    ns_per_tick[s] = med / ticks * 1e9;
    overhead[s] = base > 0.0 ? (med - base) / base : 0.0;
    std::printf("%10s %12.1f %12.3e %9.1f%% %14llu\n", sides[s].label, ns_per_tick[s],
                ticks / med, 100.0 * overhead[s],
                static_cast<unsigned long long>(last[s].trace_events));
  }

  const char* env = std::getenv("DF3_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_obs.json";
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t s = 0; s < kSides; ++s) {
    out << "    {\"name\": \"platform_tick/obs:" << sides[s].label << "\""
        << ", \"ns_per_tick\": " << ns_per_tick[s]
        << ", \"overhead_vs_off\": " << overhead[s]
        << ", \"trace_events\": " << last[s].trace_events << '}'
        << (s + 1 < kSides ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
