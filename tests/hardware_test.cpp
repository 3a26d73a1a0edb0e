// Tests for the hardware substrate: CPU DVFS power model, chassis specs,
// throttling, heat routing, power capping and aging.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "df3/hw/cpu.hpp"
#include "df3/hw/server.hpp"

namespace hw = df3::hw;
namespace u = df3::util;

// ------------------------------------------------------------------ cpu ---

TEST(CpuModel, PowerMonotoneInPStateAndUtil) {
  const hw::CpuModel m(hw::qrad_cpu_spec());
  for (std::size_t ps = 1; ps < m.spec().pstates.size(); ++ps) {
    EXPECT_GT(m.power(ps, 1.0).value(), m.power(ps - 1, 1.0).value());
  }
  EXPECT_GT(m.power(2, 0.8).value(), m.power(2, 0.2).value());
}

TEST(CpuModel, IdlePowerIsStaticOnly) {
  const hw::CpuModel m(hw::qrad_cpu_spec());
  for (std::size_t ps = 0; ps < m.spec().pstates.size(); ++ps) {
    EXPECT_DOUBLE_EQ(m.power(ps, 0.0).value(), m.spec().static_power.value());
  }
}

TEST(CpuModel, TopStateFullLoadMatchesSpec) {
  const auto spec = hw::qrad_cpu_spec();
  const hw::CpuModel m(spec);
  EXPECT_DOUBLE_EQ(m.power(spec.top_pstate(), 1.0).value(),
                   spec.static_power.value() + spec.dynamic_power_max.value());
}

TEST(CpuModel, ThroughputScalesWithFrequency) {
  const hw::CpuModel m(hw::qrad_cpu_spec());
  EXPECT_DOUBLE_EQ(m.core_speed_gcps(4), 3.2);
  EXPECT_DOUBLE_EQ(m.max_throughput_gcps(4), 3.2 * 4);
  EXPECT_LT(m.max_throughput_gcps(0), m.max_throughput_gcps(4));
}

TEST(CpuModel, HighestPStateWithinCap) {
  const hw::CpuModel m(hw::qrad_cpu_spec());
  std::size_t ps = 99;
  ASSERT_TRUE(m.highest_pstate_within(m.power(2, 1.0), ps));
  EXPECT_EQ(ps, 2u);
  // A cap just below state 0 full power cannot be met.
  const auto tiny = u::Watts{m.power(0, 1.0).value() - 1.0};
  EXPECT_FALSE(m.highest_pstate_within(tiny, ps));
  // A huge cap selects the top state.
  ASSERT_TRUE(m.highest_pstate_within(u::kilowatts(10.0), ps));
  EXPECT_EQ(ps, m.spec().top_pstate());
}

TEST(CpuModel, LowStatesAreMoreEfficientPerJoule) {
  // With V^2 f scaling, downclocked states retire more cycles per joule at
  // full load (diminishing returns of DVFS, Le Sueur & Heiser 2010).
  const hw::CpuModel m(hw::qrad_cpu_spec());
  EXPECT_GT(m.efficiency_gc_per_joule(1), m.efficiency_gc_per_joule(4));
}

TEST(CpuModel, ValidatesSpec) {
  hw::CpuSpec bad = hw::qrad_cpu_spec();
  bad.pstates = {};
  EXPECT_THROW(hw::CpuModel{bad}, std::invalid_argument);
  bad = hw::qrad_cpu_spec();
  bad.pstates = {{2.0, 1.0}, {1.0, 0.9}};  // not ascending
  EXPECT_THROW(hw::CpuModel{bad}, std::invalid_argument);
  bad = hw::qrad_cpu_spec();
  bad.cores = 0;
  EXPECT_THROW(hw::CpuModel{bad}, std::invalid_argument);
  const hw::CpuModel m(hw::qrad_cpu_spec());
  EXPECT_THROW((void)m.power(99, 0.5), std::out_of_range);
  EXPECT_THROW((void)m.power(0, 1.5), std::invalid_argument);
}

// ----------------------------------------------------------- chassis ---

TEST(ServerSpec, CatalogueMatchesPaperFigures) {
  // Paper section II-B: Q.rad ~500 W, e-radiator ~1000 W, crypto ~650 W,
  // Asperitas ~20 kW / 200 CPUs, Stimergy 1-4 kW.
  EXPECT_NEAR(hw::qrad_spec().rated_power().value(), 500.0, 25.0);
  EXPECT_NEAR(hw::eradiator_spec().rated_power().value(), 1000.0, 50.0);
  EXPECT_NEAR(hw::crypto_heater_spec().rated_power().value(), 650.0, 40.0);
  EXPECT_NEAR(hw::asperitas_boiler_spec().rated_power().value(), 20000.0, 1000.0);
  EXPECT_NEAR(hw::stimergy_boiler_spec().rated_power().value(), 4000.0, 200.0);
  EXPECT_EQ(hw::asperitas_boiler_spec().cpu_count, 200);
  EXPECT_EQ(hw::qrad_spec().total_cores(), 16);
}

TEST(DfServer, PowerAccountsBusyCores) {
  hw::DfServer s(hw::qrad_spec());
  s.set_busy_cores(0);
  const double idle = s.power().value();
  s.set_busy_cores(8);  // half the 16 cores
  const double half = s.power().value();
  s.set_busy_cores(16);
  const double full = s.power().value();
  EXPECT_LT(idle, half);
  EXPECT_LT(half, full);
  EXPECT_NEAR(half, (idle + full) / 2.0, 1e-9);  // linear in utilization
  EXPECT_NEAR(full, 500.0, 25.0);
}

TEST(DfServer, GatingDropsToStandby) {
  hw::DfServer s(hw::qrad_spec());
  s.set_busy_cores(16);
  s.set_powered(false);
  EXPECT_EQ(s.busy_cores(), 0);
  EXPECT_DOUBLE_EQ(s.power().value(), s.spec().standby_power.value());
  EXPECT_EQ(s.usable_cores(), 0);
  s.set_powered(true);
  EXPECT_EQ(s.usable_cores(), 16);
}

TEST(DfServer, ThrottleReducesEffectivePState) {
  hw::DfServer s(hw::qrad_spec());
  s.set_pstate(4);
  s.set_inlet_temperature(u::celsius(20.0));
  EXPECT_EQ(s.effective_pstate(), 4u);
  s.set_inlet_temperature(u::celsius(31.0));  // halfway through 27..35 window
  EXPECT_LT(s.effective_pstate(), 4u);
  EXPECT_GT(s.core_speed_gcps(), 0.0);
  s.set_inlet_temperature(u::celsius(36.0));
  EXPECT_TRUE(s.thermally_shut_down());
  EXPECT_EQ(s.usable_cores(), 0);
  EXPECT_DOUBLE_EQ(s.power().value(), s.spec().standby_power.value());
}

TEST(DfServer, ThrottleRecoversWhenCool) {
  hw::DfServer s(hw::qrad_spec());
  s.set_inlet_temperature(u::celsius(40.0));
  EXPECT_TRUE(s.thermally_shut_down());
  s.set_inlet_temperature(u::celsius(20.0));
  EXPECT_FALSE(s.thermally_shut_down());
  EXPECT_EQ(s.effective_pstate(), s.spec().cpu.top_pstate());
}

TEST(DfServer, PowerCapSelectsPState) {
  hw::DfServer s(hw::qrad_spec());
  const auto reached = s.apply_power_cap(u::watts(300.0));
  EXPECT_LE(reached.value(), 300.0);
  EXPECT_TRUE(s.powered());
  EXPECT_LT(s.pstate(), s.spec().cpu.top_pstate());
  // Cap below the lowest state's power gates the server off.
  s.apply_power_cap(u::watts(10.0));
  EXPECT_FALSE(s.powered());
  // Unless gating is disallowed: then it runs at the floor state.
  s.apply_power_cap(u::watts(10.0), /*allow_gating=*/false);
  EXPECT_TRUE(s.powered());
  EXPECT_EQ(s.pstate(), 0u);
}

TEST(DfServer, EnergyLedgerIndoorRouting) {
  hw::DfServer s(hw::qrad_spec());
  s.set_busy_cores(16);
  s.advance(u::hours(1.0));
  EXPECT_NEAR(s.energy_consumed().kwh(), 0.5, 0.05);  // ~500 W for 1 h
}

TEST(DfServer, KeepsOnlyOperatingState) {
  // One chassis per room: a server is its model pointer, its energy and
  // aging integrals and its operating point. Where the heat goes is booked
  // by the platform tick, not split here.
  EXPECT_EQ(sizeof(hw::DfServer), 80u);
}

TEST(DfServer, AgingAcceleratesWithHeatAndLoad) {
  hw::DfServer cool(hw::qrad_spec());
  hw::DfServer hot(hw::qrad_spec());
  cool.set_inlet_temperature(u::celsius(19.0));
  hot.set_inlet_temperature(u::celsius(30.0));
  cool.set_busy_cores(16);
  hot.set_busy_cores(16);
  cool.advance(u::hours(100.0));
  hot.advance(u::hours(100.0));
  EXPECT_GT(hot.aging_stress_hours(), cool.aging_stress_hours());
  // Idle server ages slower than a loaded one at the same inlet.
  hw::DfServer idle(hw::qrad_spec());
  idle.set_inlet_temperature(u::celsius(19.0));
  idle.set_busy_cores(0);
  idle.advance(u::hours(100.0));
  EXPECT_LT(idle.aging_stress_hours(), cool.aging_stress_hours());
}

TEST(DfServer, JunctionTemperatureModel) {
  hw::DfServer s(hw::qrad_spec());
  s.set_inlet_temperature(u::celsius(20.0));
  s.set_busy_cores(0);
  EXPECT_NEAR(s.junction_temperature().value(), 45.0, 1e-9);  // idle rise 25 K
  s.set_busy_cores(16);
  EXPECT_NEAR(s.junction_temperature().value(), 65.0, 1e-9);  // +20 K at full load
  s.set_powered(false);
  EXPECT_DOUBLE_EQ(s.junction_temperature().value(), 20.0);
}

TEST(DfServer, Validation) {
  EXPECT_THROW(
      [] {
        hw::ServerSpec bad = hw::qrad_spec();
        bad.cpu_count = 0;
        return hw::DfServer(bad);
      }(),
      std::invalid_argument);
  hw::DfServer s(hw::qrad_spec());
  EXPECT_THROW(s.set_busy_cores(-1), std::invalid_argument);
  EXPECT_THROW(s.set_busy_cores(17), std::invalid_argument);
  EXPECT_THROW(s.set_pstate(99), std::out_of_range);
  EXPECT_THROW(s.advance(u::seconds(-1.0)), std::invalid_argument);
}

// ------------------------------------------------------- shared model ---

TEST(ServerModelSharing, EqualSpecsShareOneModel) {
  const hw::DfServer a(hw::qrad_spec());
  const hw::DfServer b(hw::qrad_spec());
  EXPECT_EQ(&a.spec(), &b.spec());
  EXPECT_EQ(&a.cpu_model(), &b.cpu_model());
  hw::ServerSpec warmer = hw::qrad_spec();
  warmer.throttle_start = u::Celsius{28.0};
  const hw::DfServer c(warmer);
  EXPECT_NE(&a.spec(), &c.spec());
  EXPECT_EQ(c.spec().throttle_start.value(), 28.0);
}

TEST(ServerModelSharing, OperatingStateStaysPerChassis) {
  hw::DfServer driven(hw::qrad_spec());
  hw::DfServer idle(hw::qrad_spec());
  hw::DfServer reference(hw::qrad_spec());
  ASSERT_EQ(&driven.spec(), &idle.spec());
  driven.set_pstate(1);
  driven.set_busy_cores(12);
  driven.set_inlet_temperature(u::Celsius{31.0});
  driven.advance(u::hours(2.0));
  idle.advance(u::hours(2.0));
  reference.advance(u::hours(2.0));
  EXPECT_NE(driven.power().value(), idle.power().value());
  // Exact comparisons: the idle chassis must be bit-identical to one that
  // never shared a model with a driven one.
  EXPECT_EQ(idle.pstate(), reference.pstate());
  EXPECT_EQ(idle.busy_cores(), reference.busy_cores());
  EXPECT_EQ(idle.inlet_temperature().value(), reference.inlet_temperature().value());
  EXPECT_EQ(idle.power().value(), reference.power().value());
  EXPECT_EQ(idle.max_power_now().value(), reference.max_power_now().value());
  EXPECT_EQ(idle.energy_consumed().value(), reference.energy_consumed().value());
  EXPECT_EQ(idle.aging_stress_hours(), reference.aging_stress_hours());
}

TEST(ServerModelSharing, CopyOutlivesOriginal) {
  // A spec no other test uses, so the copy is the model's last holder.
  hw::ServerSpec spec = hw::stimergy_boiler_spec();
  spec.family = "copy-outlives-original";
  auto original = std::make_unique<hw::DfServer>(spec);
  original->set_pstate(2);
  const double max_power = original->max_power_now().value();
  const double idle_power = original->idle_power().value();
  const hw::DfServer copy(*original);
  original.reset();
  // Churn the heap so a freed table would be reused.
  for (int i = 0; i < 8; ++i) {
    hw::ServerSpec other = spec;
    other.family += std::to_string(i);
    const hw::DfServer filler(other);
  }
  EXPECT_EQ(copy.max_power_now().value(), max_power);
  EXPECT_EQ(copy.idle_power().value(), idle_power);
  EXPECT_EQ(copy.spec().family, "copy-outlives-original");
}

TEST(ServerModelSharing, ConcurrentConstructionSeesOneModel) {
  hw::ServerSpec spec = hw::qrad_spec();
  spec.family = "concurrent-construction";
  constexpr int kThreads = 4;
  constexpr int kServers = 1000;
  std::vector<std::vector<hw::DfServer>> built(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spec, &out = built[static_cast<std::size_t>(t)]] {
      out.reserve(kServers);
      for (int i = 0; i < kServers; ++i) out.emplace_back(spec);
    });
  }
  for (auto& th : threads) th.join();
  const hw::ServerSpec* model = &built[0][0].spec();
  for (const auto& servers : built) {
    ASSERT_EQ(servers.size(), static_cast<std::size_t>(kServers));
    for (const auto& s : servers) EXPECT_EQ(&s.spec(), model);
  }
}
