/// \file platform_shard_test.cpp
/// \brief Shard-boundary determinism and activity-gating equivalence.
///
/// The sharded fleet kernel (DESIGN.md section 8) promises two bit-for-bit
/// invariants on top of the golden pins in platform_determinism_test:
///  1. The shard map is a pure performance knob: any shard_rooms value, any
///     `threads` count, and gating on or off produce identical
///     telemetry and end state, even with buildings of mixed room counts
///     and mixed 1R1C/2R2C fidelity straddling every shard boundary.
///  2. The activity gate actually fires off-season (the bench's gated
///     fraction is meaningful) and is invalidated by exogenous control-plane
///     touches (fault injectors), with the kFull audit replay confirming
///     the skipped regulate() calls really were no-ops.

#include <cstdint>
#include <functional>
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

/// Eight buildings, 36 rooms total, irregular sizes so every shard_rooms
/// value below splits mid-building-run; every third building uses the 2R2C
/// model so vector-kernel dispatch changes across shard boundaries too.
constexpr int kRooms[] = {3, 5, 8, 2, 7, 4, 6, 1};

core::PlatformConfig mixed_city_config(int month, core::GatingPolicy policy,
                                       std::size_t shard_rooms, bool gating) {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(month);
  pc.climate = thermal::paris_climate();
  pc.regulator.gating = policy;
  pc.shard_rooms = shard_rooms;
  pc.activity_gating = gating;
  // The gated control path replays regulate() under kFull and flags any
  // observable server change, so run every scenario at full audit.
  pc.audit = metrics::AuditLevel::kFull;
  return pc;
}

void populate_mixed_city(core::Df3Platform& city) {
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
  std::uint64_t gated_ticks = 0;
  double gated_fraction = 0.0;
  std::uint64_t substeps_run = 0;
  std::uint64_t substeps_skipped = 0;
  std::uint64_t violations = 0;
};

/// Build, run and tear down one mixed city in place (Df3Platform is not
/// movable — its event sources capture `this`), returning the digests and
/// gating statistics. `extra` runs between populate and run, e.g. to attach
/// fault injectors against the live platform.
RunResult run_mixed_city(int month, core::GatingPolicy policy, std::size_t shard_rooms,
                         bool gating, std::size_t threads, double days = 7.0,
                         const std::function<void(core::Df3Platform&, double)>& extra = {}) {
  core::PlatformConfig pc = mixed_city_config(month, policy, shard_rooms, gating);
  pc.threads = threads;
  core::Df3Platform city(pc);
  populate_mixed_city(city);
  if (extra) {
    extra(city, days);
  } else {
    city.run(util::days(days));
  }
  RunResult r;
  r.digest = digest_of(city);
  r.gated_ticks = city.gated_district_ticks();
  r.gated_fraction = city.gated_district_fraction();
  r.substeps_run = city.substeps_run();
  r.substeps_skipped = city.substeps_skipped();
  r.violations = city.auditor().violation_count();
  return r;
}

TEST(ShardMap, GreedyPackingYieldsExpectedShardCounts) {
  // 36 rooms across {3,5,8,2,7,4,6,1}: one fat shard, a 3-way split, and
  // the fully exploded one-building-per-shard map.
  const struct {
    std::size_t shard_rooms;
    std::size_t expected;
  } cases[] = {{4096, 1}, {12, 3}, {1, 8}};
  for (const auto& c : cases) {
    core::Df3Platform city(
        mixed_city_config(0, core::GatingPolicy::kKeepWarm, c.shard_rooms, true));
    populate_mixed_city(city);
    EXPECT_EQ(city.shard_count(), c.expected) << "shard_rooms=" << c.shard_rooms;
  }
}

TEST(ShardDeterminism, DigestInvariantAcrossShardSizesThreadsAndGating) {
  // Reference: one shard, serial, gating off — the configuration closest to
  // the pre-shard kernel.
  const RunResult ref = run_mixed_city(6, core::GatingPolicy::kKeepWarm, 4096, false, 1);
  for (const std::size_t shard_rooms : {std::size_t{4096}, std::size_t{12}, std::size_t{1}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      for (const bool gating : {false, true}) {
        SCOPED_TRACE("shard_rooms=" + std::to_string(shard_rooms) +
                     " threads=" + std::to_string(threads) + " gating=" +
                     (gating ? "on" : "off"));
        const RunResult r =
            run_mixed_city(6, core::GatingPolicy::kKeepWarm, shard_rooms, gating, threads);
        EXPECT_TRUE(r.digest == ref.digest);
        EXPECT_EQ(r.violations, 0u);
      }
    }
  }
}

TEST(ShardDeterminism, WinterDigestInvariantAcrossShardSizes) {
  // Heating season: the gate never fires (so gated fraction is zero) and
  // the full thermostat -> regulate chain runs in every configuration.
  const RunResult ref = run_mixed_city(0, core::GatingPolicy::kKeepWarm, 4096, true, 1);
  EXPECT_EQ(ref.gated_ticks, 0u);
  for (const std::size_t shard_rooms : {std::size_t{12}, std::size_t{1}}) {
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("shard_rooms=" + std::to_string(shard_rooms) +
                   " threads=" + std::to_string(threads));
      const RunResult r =
          run_mixed_city(0, core::GatingPolicy::kKeepWarm, shard_rooms, true, threads);
      EXPECT_TRUE(r.digest == ref.digest);
    }
  }
}

TEST(ActivityGating, GateFiresOffSeasonAndSkipsSubsteps) {
  for (const core::GatingPolicy policy :
       {core::GatingPolicy::kKeepWarm, core::GatingPolicy::kAggressive}) {
    SCOPED_TRACE(policy == core::GatingPolicy::kKeepWarm ? "keepwarm" : "aggressive");
    const RunResult r = run_mixed_city(6, policy, 12, true, 2);
    // July in Paris: after the first control sweep proves the fleet quiet,
    // essentially every district-tick should take the fast path.
    EXPECT_GT(r.gated_ticks, 0u);
    EXPECT_GT(r.gated_fraction, 0.5);
    // kFull audit replayed every skipped regulate(): zero violations means
    // the no-op proof held for every gated room-tick.
    EXPECT_EQ(r.violations, 0u);
  }
}

// The 2R2C substep elision requires a *bitwise* fixed point, which a live
// climate (diurnal cycle + AR(1) noise) almost never produces — that is by
// design; approximate convergence must not trigger the skip. Under a flat
// climate with a stiff room (10 s substeps against a 60 s tick) and no
// workload the state does settle exactly, and gated ticks then provably
// skip full substeps while staying bit-identical to the stepped run.
TEST(ActivityGating, SteadyState2R2CSkipsSubstepsBitForBit) {
  const auto run_flat = [](bool gating) {
    core::PlatformConfig pc;
    pc.seed = 5;
    pc.start_time = thermal::start_of_month(6);
    thermal::ClimateNormals flat;
    flat.monthly_mean_c.fill(22.0);
    flat.diurnal_amplitude_k = 0.0;
    flat.noise_stddev_k = 0.0;
    pc.climate = flat;
    pc.regulator.gating = core::GatingPolicy::kAggressive;
    pc.activity_gating = gating;
    pc.audit = metrics::AuditLevel::kFull;
    pc.threads = 1;
    core::Df3Platform city(pc);
    core::BuildingConfig b;
    b.name = "hf";
    b.rooms = 4;
    b.high_fidelity_rooms = true;
    b.room_2r2c.c_air_j_per_k = 1.0e4;  // tau_fast = 100 s -> 10 s substeps
    b.room_2r2c.c_env_j_per_k = 2.0e5;  // envelope settles within hours
    city.add_building(b);
    city.run(util::days(7.0));
    RunResult r;
    r.digest = digest_of(city);
    r.gated_fraction = city.gated_district_fraction();
    r.substeps_run = city.substeps_run();
    r.substeps_skipped = city.substeps_skipped();
    r.violations = city.auditor().violation_count();
    return r;
  };
  const RunResult on = run_flat(true);
  const RunResult off = run_flat(false);
  EXPECT_TRUE(on.digest == off.digest);
  EXPECT_GT(on.gated_fraction, 0.9);
  EXPECT_GT(on.substeps_run, 0u);
  EXPECT_GT(on.substeps_skipped, 0u);
  EXPECT_EQ(off.substeps_skipped, 0u);
  EXPECT_EQ(on.violations, 0u);
}

TEST(ActivityGating, FaultInjectionInvalidatesGateButPreservesBits) {
  // A power-gate churn injector reaches servers through Cluster::worker(),
  // which bumps the control epoch: the churned building must fall back to
  // the stepped path and the trajectory must stay bit-identical to the
  // gating-off run.
  const auto churned = [](core::Df3Platform& city, double days) {
    core::WorkerChurnConfig churn;
    churn.workers = {0, 1};
    churn.kind = core::OutageKind::kPowerGate;
    churn.mean_up_s = 3600.0;
    churn.mean_down_s = 600.0;
    core::WorkerChurn injector(city.simulation(), "churn-b0", city.cluster(0), churn,
                               util::RngStream(7, "shard/churn-b0"));
    injector.start();
    city.run(util::days(days));
    injector.stop();
  };
  const RunResult on =
      run_mixed_city(6, core::GatingPolicy::kKeepWarm, 12, true, 2, 3.0, churned);
  const RunResult off =
      run_mixed_city(6, core::GatingPolicy::kKeepWarm, 12, false, 2, 3.0, churned);
  EXPECT_TRUE(on.digest == off.digest);
  EXPECT_EQ(on.violations, 0u);
  // Churn un-gates only building 0's district; the rest still coast.
  EXPECT_GT(on.gated_ticks, 0u);
}

}  // namespace
}  // namespace df3
