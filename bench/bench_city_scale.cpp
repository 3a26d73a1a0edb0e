// Scaling sweep of the sharded, vectorized, activity-gated fleet kernel
// (DESIGN.md section 8): full-city tick cost from 1e3 to 1e6 rooms, winter
// vs summer. In January the gate never fires and every tick runs the full
// thermostat -> regulate control sweep; in July the fleet goes quiet after
// the first control pass and districts coast on the gated fast path, so the
// winter/summer pair brackets the kernel's cost envelope.
//
// Room counts come from DF3_SCALE_ROOMS (csv, default
// "1000,10000,100000,1000000") and thread counts from DF3_SCALE_THREADS
// (csv, default "1,2,4"; each is PlatformConfig::threads). The platform
// clamps the thread count to the shard count, so a size runs each distinct
// effective count once: at 1e3 rooms (one shard) "1,2,4" is one row per
// season, and every row name is unique. Every size runs a fixed warm-up,
// then a timed window sized to ~4e7 room-ticks (clamped to
// [30, one-week] ticks) so a million-room row costs seconds, not hours,
// while the small sizes still integrate over enough ticks to be stable.
// Cities mix fidelities — every third building is 2R2C — so both vector
// kernels and the dispatch between them are on the measured path. Peer
// federation uses the two-neighbor ring: the full-mesh default is
// O(buildings^2) pointers, which at 100k buildings is wiring cost, not
// kernel cost.
//
// Output: a console table plus BENCH_scale.json (path overridable with
// DF3_BENCH_JSON): ns/room-tick, items/s, gated district fraction, shard
// count, the effective thread count and the heap bytes per room per row.
// Heap bytes are glibc's mallinfo2() in-use figure (uordblks + hblkhd,
// summed over arenas) at the end of warm-up minus its value before the
// first add_building: what the city's buildings, rooms and servers cost.
// `heap_by_part` splits them by the platform's setup parts (network,
// cluster, workers, fleet; Df3Platform::SetupPart), each the sum of
// mallinfo2 deltas over the spans the platform's setup probe brackets.
// The bench allocates nothing itself between the readings, so the parts
// add up to heap_bytes_per_room but for the chunks glibc's per-thread cache
// holds (freed, yet counted in use), which is what CI bounds at 2 %.
// `heap_by_part` splits them by the platform's setup parts (network,
// cluster, workers, fleet; Df3Platform::SetupPart), each the sum of
// mallinfo2 deltas across the spans the platform's setup probe brackets,
// so the four add up to heap_bytes_per_room when nothing else allocates.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <string>
#include <vector>

#include "df3/core/platform.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/units.hpp"
#include "harness.hpp"

namespace {

using namespace df3;

constexpr std::size_t kRoomsPerBuilding = 10;
constexpr std::uint64_t kWarmupTicks = 30;
constexpr std::uint64_t kTargetItems = 40'000'000;
constexpr std::uint64_t kMinTicks = 30;
constexpr std::uint64_t kMaxTicks = 10'080;  // one simulated week at 60 s

core::PlatformConfig scale_config(int month, std::size_t threads) {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(month);
  pc.climate = thermal::paris_climate();
  pc.with_datacenter = false;
  pc.federation_degree = 2;
  pc.threads = threads;
  return pc;
}

struct Row {
  std::size_t rooms;
  const char* season;
  double ns_per_room_tick;
  double items_per_s;
  double gated_fraction;
  std::size_t shards;
  std::size_t threads;
  double heap_bytes_per_room;
  std::array<double, 4> part_bytes_per_room;  ///< indexed by SetupPart
};

using Part = core::Df3Platform::SetupPart;
constexpr std::array<const char*, 4> kPartNames = {"network", "cluster", "workers", "fleet"};

/// Bytes the allocator has handed out and not taken back.
double heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// Heap bytes per setup part, summed by the probe below.
std::array<double, 4> part_bytes;
double part_mark = 0.0;

void heap_probe(Part part, bool begin) {
  const double now = heap_in_use();
  if (begin) {
    part_mark = now;
  } else {
    part_bytes[static_cast<std::size_t>(part)] += now - part_mark;
  }
}

Row run_row(std::size_t rooms, int month, const char* season, std::size_t threads) {
  const std::size_t buildings = std::max<std::size_t>(1, rooms / kRoomsPerBuilding);
  core::Df3Platform city(scale_config(month, threads));
  part_bytes = {};
  core::Df3Platform::set_setup_probe(heap_probe);
  const double heap0 = heap_in_use();
  for (std::size_t i = 0; i < buildings; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = static_cast<int>(kRoomsPerBuilding);
    b.high_fidelity_rooms = (i % 3 == 2);
    city.add_building(b);
  }
  const double tick_s = scale_config(month, threads).tick_s;
  city.run(util::Seconds{static_cast<double>(kWarmupTicks) * tick_s});
  const std::size_t total_rooms = buildings * kRoomsPerBuilding;
  const double heap_per_room = (heap_in_use() - heap0) / static_cast<double>(total_rooms);
  core::Df3Platform::set_setup_probe(nullptr);
  core::Df3Platform::set_setup_probe(nullptr);

  const std::uint64_t ticks =
      std::clamp(kTargetItems / std::max<std::uint64_t>(1, total_rooms), kMinTicks, kMaxTicks);

  const std::uint64_t d0 = city.district_ticks();
  const std::uint64_t g0 = city.gated_district_ticks();
  const auto start = std::chrono::steady_clock::now();
  city.run(util::Seconds{static_cast<double>(ticks) * tick_s});
  const auto stop = std::chrono::steady_clock::now();
  const std::uint64_t dd = city.district_ticks() - d0;
  const std::uint64_t dg = city.gated_district_ticks() - g0;

  const double secs = std::chrono::duration<double>(stop - start).count();
  const double items = static_cast<double>(total_rooms) * static_cast<double>(ticks);
  Row r;
  r.rooms = total_rooms;
  r.season = season;
  r.ns_per_room_tick = secs / items * 1e9;
  r.items_per_s = items / secs;
  r.gated_fraction = dd > 0 ? static_cast<double>(dg) / static_cast<double>(dd) : 0.0;
  r.shards = city.shard_count();
  // Report the *effective* count: the platform clamps the pool to the shard
  // count, so a 4-thread request over 3 shards runs (and is recorded as) 3.
  r.threads = std::min(threads, std::max<std::size_t>(1, r.shards));
  r.heap_bytes_per_room = heap_per_room;
  for (std::size_t p = 0; p < part_bytes.size(); ++p) {
    r.part_bytes_per_room[p] = part_bytes[p] / static_cast<double>(total_rooms);
  }
  return r;
}

}  // namespace

int main() {
  std::printf("bench_city_scale: sharded fleet kernel, %zu rooms/building, "
              "timed window ~%llu room-ticks\n\n",
              kRoomsPerBuilding, static_cast<unsigned long long>(kTargetItems));
  std::printf("%9s %7s %12s %14s %8s %7s %8s %11s %8s %8s %8s %8s\n", "rooms", "season",
              "ns/room-tick", "items/s", "gated", "shards", "threads", "heap B/room",
              kPartNames[0], kPartNames[1], kPartNames[2], kPartNames[3]);

  std::vector<Row> rows;
  std::vector<std::size_t> thread_counts = bench::env_counts("DF3_SCALE_THREADS", "1,2,4");
  if (thread_counts.empty()) thread_counts.push_back(1);
  const auto room_counts = bench::env_counts("DF3_SCALE_ROOMS", "1000,10000,100000,1000000");
  for (const std::size_t rooms : room_counts) {
    // The shard count depends on the size only; it is known after the
    // size's first row (0 = not yet).
    std::size_t shards = 0;
    for (const auto& [month, season] : {std::pair{0, "winter"}, std::pair{6, "summer"}}) {
      std::vector<std::size_t> effective;
      for (const std::size_t threads : thread_counts) {
        if (shards > 0) {
          const std::size_t eff = std::min(threads, shards);
          if (std::find(effective.begin(), effective.end(), eff) != effective.end()) continue;
        }
        const Row r = run_row(rooms, month, season, threads);
        shards = std::max<std::size_t>(1, r.shards);
        effective.push_back(r.threads);
        rows.push_back(r);
        std::printf("%9zu %7s %12.1f %14.3e %7.1f%% %7zu %8zu %11.0f %8.0f %8.0f %8.0f %8.0f\n",
                    r.rooms, r.season, r.ns_per_room_tick, r.items_per_s,
                    100.0 * r.gated_fraction, r.shards, r.threads, r.heap_bytes_per_room,
                    r.part_bytes_per_room[0], r.part_bytes_per_room[1],
                    r.part_bytes_per_room[2], r.part_bytes_per_room[3]);
      }
    }
  }

  const char* env = std::getenv("DF3_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_scale.json";
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"city_scale/rooms:" << r.rooms << "/season:" << r.season
        << "/threads:" << r.threads << "\""
        << ", \"rooms\": " << r.rooms << ", \"season\": \"" << r.season << "\""
        << ", \"ns_per_room_tick\": " << r.ns_per_room_tick
        << ", \"items_per_s\": " << r.items_per_s
        << ", \"gated_fraction\": " << r.gated_fraction << ", \"shards\": " << r.shards
        << ", \"threads\": " << r.threads
        << ", \"heap_bytes_per_room\": " << r.heap_bytes_per_room << ", \"heap_by_part\": {";
    for (std::size_t p = 0; p < kPartNames.size(); ++p) {
      out << (p > 0 ? ", " : "") << '"' << kPartNames[p] << "\": " << r.part_bytes_per_room[p];
    }
    out << "}}" << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
