// Coverage for small public-API corners not exercised elsewhere.
#include <gtest/gtest.h>

#include <type_traits>

#include "df3/core/worker.hpp"
#include "df3/net/network.hpp"
#include "df3/util/stats.hpp"
#include "df3/util/table.hpp"

namespace core = df3::core;
namespace hw = df3::hw;
namespace net = df3::net;
namespace u = df3::util;
using df3::sim::Simulation;

namespace {
/// Host of a bare worker; completions go nowhere.
struct NullHost final : core::WorkerHost {
  using core::WorkerHost::WorkerHost;
  void on_task_done(std::size_t, core::Task) override {}
};
}  // namespace

TEST(WorkerCoverage, BacklogTracksRemainingWork) {
  Simulation sim;
  NullHost host(sim, "c");
  core::Worker worker(host, 0, hw::ServerModel::intern(hw::qrad_spec()), 0);
  df3::workload::Request r;
  r.work_gigacycles = 64.0;
  r.tasks = 2;
  core::RequestPool requests;
  auto tasks = core::make_tasks(requests, r);
  ASSERT_TRUE(worker.try_start(tasks[0]));
  ASSERT_TRUE(worker.try_start(tasks[1]));
  EXPECT_DOUBLE_EQ(worker.backlog_gigacycles(), 128.0);
  sim.run_until(10.0);  // 32 Gc done per core at 3.2 GHz
  // Backlog is settled lazily; preempt one to force settlement.
  auto victim = worker.preempt_one(core::Priority::kEdge);
  ASSERT_TRUE(victim.has_value());
  EXPECT_NEAR(victim->remaining_gigacycles, 32.0, 1e-9);
  // A worker cannot exist without a host to report to, nor on a bad chassis.
  static_assert(!std::is_constructible_v<core::Worker, std::nullptr_t, std::size_t,
                                         const hw::ServerModel&, net::NodeId>);
  hw::ServerSpec bad = hw::qrad_spec();
  bad.cpu_count = 0;
  EXPECT_THROW(core::Worker(host, 1, hw::ServerModel::intern(bad), 0), std::invalid_argument);
}

TEST(NetworkCoverage, LinkUpQueryAndLoopbackStats) {
  Simulation sim;
  net::Network n(sim, "cov");
  const auto a = n.add_node("a");
  const auto b = n.add_node("b");
  const auto l = n.add_link(a, b, net::ethernet_lan());
  EXPECT_TRUE(n.link_up(l));
  n.set_link_up(l, false);
  EXPECT_FALSE(n.link_up(l));
  EXPECT_THROW((void)n.link_up(99), std::out_of_range);
  // Loopback counts as sent.
  n.send({a, a, u::bytes(10.0), 0}, [] {});
  sim.run();
  EXPECT_EQ(n.messages_sent(), 1u);
}

TEST(StatsCoverage, TimeSeriesAndWeightedValueEdges) {
  u::TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.mean_in_window(0.0, 1.0), 0.0);
  u::TimeWeightedValue tw;
  EXPECT_TRUE(tw.empty());
  EXPECT_DOUBLE_EQ(tw.mean_until(5.0), 0.0);
  EXPECT_DOUBLE_EQ(tw.integral_until(5.0), 0.0);
  tw.record(1.0, 3.0);
  EXPECT_DOUBLE_EQ(tw.mean_until(0.5), 3.0);  // window before first sample
  EXPECT_DOUBLE_EQ(tw.last_value(), 3.0);
}

TEST(TableCoverage, PrecisionAppliesToDoublesOnly) {
  u::Table t({"a"});
  t.set_precision(0);
  t.add_row({3.14159});
  t.add_row({std::string("pi")});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| 3 "), std::string::npos);
  EXPECT_NE(s.find("pi"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 1u);
}
