// Tests for metric collectors and the datacenter baseline.
#include <gtest/gtest.h>

#include "df3/baselines/datacenter.hpp"
#include "df3/metrics/collectors.hpp"

namespace m = df3::metrics;
namespace wl = df3::workload;
namespace u = df3::util;
using df3::sim::Simulation;

namespace {
wl::CompletionRecord record(wl::Flow flow, wl::Outcome outcome, double response,
                            wl::ServedBy served = wl::ServedBy::kLocal, std::string app = "a") {
  wl::CompletionRecord rec;
  rec.request.flow = flow;
  rec.request.app = std::move(app);
  rec.request.arrival = 0.0;
  rec.completed_at = response;
  rec.outcome = outcome;
  rec.served_by = served;
  return rec;
}
}  // namespace

TEST(FlowMetrics, SlicesByFlowAndApp) {
  m::FlowMetrics fm;
  fm.record(record(wl::Flow::kCloud, wl::Outcome::kCompleted, 10.0, wl::ServedBy::kLocal,
                   "render"));
  fm.record(record(wl::Flow::kEdgeIndirect, wl::Outcome::kCompleted, 0.5, wl::ServedBy::kLocal,
                   "alarm"));
  fm.record(record(wl::Flow::kEdgeIndirect, wl::Outcome::kDeadlineMissed, 5.0,
                   wl::ServedBy::kLocal, "alarm"));
  fm.record(record(wl::Flow::kEdgeDirect, wl::Outcome::kDropped, 0.0, wl::ServedBy::kPartition,
                   "alarm"));

  EXPECT_EQ(fm.overall().total(), 4u);
  EXPECT_EQ(fm.by_flow(wl::Flow::kCloud).completed, 1u);
  EXPECT_EQ(fm.by_flow(wl::Flow::kEdgeIndirect).deadline_missed, 1u);
  EXPECT_EQ(fm.by_flow(wl::Flow::kEdgeDirect).dropped, 1u);
  EXPECT_EQ(fm.by_app("alarm").total(), 3u);
  EXPECT_DOUBLE_EQ(fm.by_app("render").response_s.mean(), 10.0);
  EXPECT_NEAR(fm.by_app("alarm").success_rate(), 1.0 / 3.0, 1e-12);
  // Unknown slices are empty, not errors.
  EXPECT_EQ(fm.by_app("nope").total(), 0u);
  EXPECT_DOUBLE_EQ(fm.by_app("nope").success_rate(), 1.0);
}

TEST(FlowMetrics, ServedByKind) {
  m::FlowMetrics fm;
  fm.record(record(wl::Flow::kCloud, wl::Outcome::kCompleted, 1.0, wl::ServedBy::kVertical));
  fm.record(record(wl::Flow::kCloud, wl::Outcome::kCompleted, 1.0, wl::ServedBy::kVertical));
  fm.record(record(wl::Flow::kCloud, wl::Outcome::kCompleted, 1.0, wl::ServedBy::kHorizontal));
  EXPECT_EQ(fm.served(wl::ServedBy::kVertical), 2u);
  EXPECT_EQ(fm.served(wl::ServedBy::kHorizontal), 1u);
  EXPECT_EQ(fm.served(wl::ServedBy::kLocal), 0u);
}

TEST(FlowMetrics, ServedByKindEdgeCases) {
  m::FlowMetrics fm;
  EXPECT_EQ(fm.served(wl::ServedBy::kVertical), 0u);  // empty metrics
  fm.record(record(wl::Flow::kCloud, wl::Outcome::kCompleted, 1.0, wl::ServedBy::kVertical));
  fm.record(record(wl::Flow::kEdgeIndirect, wl::Outcome::kDropped, 0.0, wl::ServedBy::kPartition));
  // Every outcome counts under its kind, drops included.
  EXPECT_EQ(fm.served(wl::ServedBy::kVertical), 1u);
  EXPECT_EQ(fm.served(wl::ServedBy::kPartition), 1u);
  // Neighbouring kinds stay apart.
  EXPECT_EQ(fm.served(wl::ServedBy::kReturnPartition), 0u);
  EXPECT_EQ(fm.served(wl::ServedBy::kLanPartition), 0u);
}

TEST(FlowMetrics, ServedByCountsSumToTotal) {
  m::FlowMetrics fm;
  const wl::Outcome outcomes[] = {wl::Outcome::kCompleted, wl::Outcome::kDeadlineMissed,
                                  wl::Outcome::kRejected, wl::Outcome::kDropped};
  for (std::size_t k = 0; k < wl::kServedByCount; ++k) {
    for (std::size_t i = 0; i <= k % 3; ++i) {
      fm.record(record(wl::Flow::kCloud, outcomes[(k + i) % 4], 1.0,
                       static_cast<wl::ServedBy>(k)));
    }
  }
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < wl::kServedByCount; ++k) {
    sum += fm.served(static_cast<wl::ServedBy>(k));
  }
  EXPECT_EQ(sum, fm.overall().total());
  EXPECT_EQ(sum, 24u);  // 4 kinds each of 1, 2 and 3 records
}

TEST(FlowMetrics, PerAppSlicesTrackOffloadServingIndependently) {
  m::FlowMetrics fm;
  fm.record(record(wl::Flow::kEdgeIndirect, wl::Outcome::kCompleted, 0.2, wl::ServedBy::kLocal,
                   "alarm"));
  fm.record(record(wl::Flow::kEdgeIndirect, wl::Outcome::kCompleted, 0.8,
                   wl::ServedBy::kHorizontal, "alarm"));
  fm.record(record(wl::Flow::kCloud, wl::Outcome::kCompleted, 30.0, wl::ServedBy::kVertical,
                   "render"));
  fm.record(record(wl::Flow::kCloud, wl::Outcome::kRejected, 0.0, wl::ServedBy::kNoWorkers,
                   "render"));

  // Per-app slices aggregate across flows and serving locations...
  EXPECT_EQ(fm.by_app("alarm").completed, 2u);
  EXPECT_NEAR(fm.by_app("alarm").response_s.mean(), 0.5, 1e-12);
  EXPECT_EQ(fm.by_app("render").total(), 2u);
  EXPECT_EQ(fm.by_app("render").rejected, 1u);
  EXPECT_NEAR(fm.by_app("render").success_rate(), 0.5, 1e-12);
  // ...while the served_by ledger slices the same records by location.
  EXPECT_EQ(fm.served(wl::ServedBy::kHorizontal), 1u);
  EXPECT_EQ(fm.served(wl::ServedBy::kVertical), 1u);
  EXPECT_EQ(fm.served(wl::ServedBy::kLocal), 1u);
  // Rejected requests completed nowhere: they must not inflate any
  // offload-serving bucket.
  EXPECT_EQ(fm.served(wl::ServedBy::kHorizontal) + fm.served(wl::ServedBy::kVertical) +
                fm.served(wl::ServedBy::kLocal),
            3u);
  EXPECT_EQ(fm.served(wl::ServedBy::kNoWorkers), 1u);
}

TEST(EnergyLedger, PueComposition) {
  m::EnergyLedger led;
  led.add_it(u::kilowatt_hours(100.0));
  led.add_overhead(u::kilowatt_hours(5.0));
  led.add_cooling(u::kilowatt_hours(45.0));
  EXPECT_NEAR(led.pue(), 1.5, 1e-12);
  EXPECT_NEAR(led.facility_total().kwh(), 150.0, 1e-9);
  led.add_useful_heat(u::kilowatt_hours(90.0));
  EXPECT_NEAR(led.heat_reuse_fraction(), 90.0 / 150.0, 1e-12);
}

TEST(EnergyLedger, EmptyAndMergeAndValidation) {
  m::EnergyLedger a;
  EXPECT_DOUBLE_EQ(a.pue(), 1.0);
  EXPECT_DOUBLE_EQ(a.heat_reuse_fraction(), 0.0);
  m::EnergyLedger b;
  a.add_it(u::kilowatt_hours(10.0));
  b.add_it(u::kilowatt_hours(30.0));
  b.add_cooling(u::kilowatt_hours(20.0));
  a.merge(b);
  EXPECT_NEAR(a.it().kwh(), 40.0, 1e-9);
  EXPECT_NEAR(a.pue(), 1.5, 1e-9);
  EXPECT_THROW(a.add_it(u::joules(-1.0)), std::invalid_argument);
}

TEST(ComfortMetrics, TimeWeightedDeviation) {
  m::ComfortMetrics cm;
  cm.sample(0.0, u::celsius(19.0), u::celsius(20.0));  // |dev| = 1 for [0,10)
  cm.sample(10.0, u::celsius(20.5), u::celsius(20.0)); // |dev| = 0.5 for [10,20)
  EXPECT_NEAR(cm.mean_abs_deviation_k(20.0), 0.75, 1e-12);
  EXPECT_NEAR(cm.mean_temperature_c(20.0), 19.75, 1e-12);
  EXPECT_DOUBLE_EQ(m::ComfortMetrics{}.mean_abs_deviation_k(10.0), 0.0);
}

// ------------------------------------------------------------ datacenter ---

TEST(Datacenter, ExecutesAndMeasuresLatency) {
  Simulation sim;
  df3::baselines::DatacenterConfig cfg;
  cfg.cores = 4;
  cfg.core_speed_gcps = 2.0;
  df3::baselines::Datacenter dc(sim, cfg);
  wl::Request r;
  r.work_gigacycles = 20.0;  // 10 s at 2 GHz
  r.input_size = u::kibibytes(10.0);
  r.output_size = u::kibibytes(10.0);
  std::vector<wl::CompletionRecord> recs;
  dc.submit(r, 0, [&](wl::CompletionRecord rec) { recs.push_back(std::move(rec)); });
  sim.run();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].outcome, wl::Outcome::kCompleted);
  EXPECT_EQ(recs[0].served_by, wl::ServedBy::kVertical);
  // 10 s compute + 2x (WAN latency 8 ms + extra 12 ms + serialization).
  EXPECT_GT(recs[0].response_time(), 10.04);
  EXPECT_LT(recs[0].response_time(), 10.1);
  EXPECT_EQ(dc.completed_requests(), 1u);
}

TEST(Datacenter, QueuesBeyondCoreCount) {
  Simulation sim;
  df3::baselines::DatacenterConfig cfg;
  cfg.cores = 2;
  cfg.core_speed_gcps = 1.0;
  df3::baselines::Datacenter dc(sim, cfg);
  wl::Request r;
  r.work_gigacycles = 10.0;
  r.tasks = 4;  // 4 shards on 2 cores: two waves of 10 s
  std::vector<wl::CompletionRecord> recs;
  dc.submit(r, 0, [&](wl::CompletionRecord rec) { recs.push_back(std::move(rec)); });
  sim.run();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_GT(recs[0].response_time(), 20.0);
  EXPECT_LT(recs[0].response_time(), 20.2);
}

TEST(Datacenter, EnergyLedgerReflectsCooling) {
  Simulation sim;
  df3::baselines::DatacenterConfig cfg;
  cfg.cores = 8;
  cfg.cooling_fraction = 0.45;
  cfg.overhead_fraction = 0.05;
  df3::baselines::Datacenter dc(sim, cfg);
  wl::Request r;
  r.work_gigacycles = 290.0;  // 100 s at 2.9 GHz
  dc.submit(r, 0, [](wl::CompletionRecord) {});
  sim.run();
  const auto& led = dc.energy();
  EXPECT_GT(led.it().value(), 0.0);
  EXPECT_NEAR(led.pue(), 1.5, 1e-9);
  // An air-cooled DC delivers no useful heat at all.
  EXPECT_DOUBLE_EQ(led.useful_heat().value(), 0.0);
  EXPECT_GT(led.waste_heat().value(), led.it().value());
}

TEST(Datacenter, UtilizationAccounting) {
  Simulation sim;
  df3::baselines::DatacenterConfig cfg;
  cfg.cores = 2;
  cfg.core_speed_gcps = 1.0;
  cfg.extra_latency_s = 0.0;
  df3::baselines::Datacenter dc(sim, cfg);
  wl::Request r;
  r.work_gigacycles = 50.0;
  r.input_size = u::bytes(10.0);
  r.tasks = 2;
  dc.submit(r, 0, [](wl::CompletionRecord) {});
  sim.run_until(100.0);
  // ~50 busy seconds per core out of 100 -> utilization ~0.5.
  EXPECT_NEAR(dc.mean_utilization(), 0.5, 0.01);
}

TEST(Datacenter, ConfigCatalogue) {
  EXPECT_LT(df3::baselines::micro_datacenter_config().extra_latency_s,
            df3::baselines::DatacenterConfig{}.extra_latency_s);
  EXPECT_LT(df3::baselines::cdn_pop_config().cores,
            df3::baselines::micro_datacenter_config().cores);
  Simulation sim;
  df3::baselines::DatacenterConfig bad;
  bad.cores = 0;
  EXPECT_THROW(df3::baselines::Datacenter(sim, bad), std::invalid_argument);
}
