// Tests for the core execution layer: task sharding, worker runtime under
// DVFS/gating, the task queue, and the heat regulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "df3/core/heat_regulator.hpp"
#include "df3/core/scheduler.hpp"
#include "df3/core/task.hpp"
#include "df3/core/worker.hpp"

namespace core = df3::core;
namespace hw = df3::hw;
namespace wl = df3::workload;
namespace u = df3::util;
using df3::sim::Simulation;

namespace {

wl::Request edge_request(double work = 1.0, double deadline = 2.0) {
  wl::Request r;
  r.flow = wl::Flow::kEdgeIndirect;
  r.app = "edge";
  r.work_gigacycles = work;
  r.deadline_s = deadline;
  r.preemptible = false;
  return r;
}

wl::Request cloud_request(double work = 100.0, int tasks = 1) {
  wl::Request r;
  r.flow = wl::Flow::kCloud;
  r.app = "cloud";
  r.work_gigacycles = work;
  r.tasks = tasks;
  r.preemptible = true;
  return r;
}

/// Backing store for the request states these tests shard by hand.
core::RequestPool requests;

/// Host of a bare worker: collects the tasks it completes.
struct TestHost final : core::WorkerHost {
  TestHost(Simulation& sim, std::vector<core::Task>& sink)
      : core::WorkerHost(sim, "c"), done(sink) {}
  void on_task_done(std::size_t, core::Task t) override { done.push_back(std::move(t)); }
  std::vector<core::Task>& done;
};

struct WorkerFixture {
  Simulation sim;
  std::vector<core::Task> done;
  TestHost host{sim, done};
  core::Worker worker{host, 0, hw::ServerModel::intern(hw::qrad_spec()), 0};
};

}  // namespace

// ----------------------------------------------------------------- task ---

TEST(TaskSharding, SplitsAndSharesState) {
  auto tasks = core::make_tasks(requests, cloud_request(50.0, 4));
  ASSERT_EQ(tasks.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tasks[static_cast<std::size_t>(i)].shard_index, i);
    EXPECT_DOUBLE_EQ(tasks[static_cast<std::size_t>(i)].remaining_gigacycles, 50.0);
    EXPECT_EQ(tasks[static_cast<std::size_t>(i)].request.get(), tasks[0].request.get());
  }
  EXPECT_EQ(tasks[0].request->shards_remaining, 4);
  EXPECT_EQ(tasks[0].priority(), core::Priority::kCloud);
  EXPECT_TRUE(tasks[0].preemptible());
}

TEST(TaskSharding, EdgePriorityAndDeadline) {
  auto tasks = core::make_tasks(requests, edge_request(1.0, 2.0));
  EXPECT_EQ(tasks[0].priority(), core::Priority::kEdge);
  ASSERT_TRUE(tasks[0].deadline().has_value());
  EXPECT_DOUBLE_EQ(*tasks[0].deadline(), 2.0);
  EXPECT_THROW((void)core::make_tasks(requests, cloud_request(), 0.5), std::invalid_argument);
}

TEST(RequestPool, RecycledStateIsANewRequest) {
  core::RequestPool pool;
  const core::RequestRef a = pool.acquire(cloud_request(50.0, 4));
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(a->shards_remaining, 4);
  a->foreign = true;
  a->slot = 3;
  a->sink = [](wl::CompletionRecord) {};
  pool.release(a);
  EXPECT_EQ(pool.live(), 0u);
  // The free list hands the same slot out again, reset, under a new
  // generation: a ref to the old request must not match the new one.
  const core::RequestRef b = pool.acquire(edge_request());
  EXPECT_EQ(b.get(), a.get());
  EXPECT_NE(b, a);
  EXPECT_FALSE(b->foreign);
  EXPECT_EQ(b->slot, core::RequestState::kNoSlot);
  EXPECT_FALSE(b->sink);
  EXPECT_EQ(b->shards_remaining, 1);
}

// --------------------------------------------------------------- worker ---

TEST(WorkerRuntime, ExecutesTaskAtNominalSpeed) {
  WorkerFixture f;
  // Q.rad top state: 3.2 GHz per core -> 32 Gcycles take 10 s.
  auto tasks = core::make_tasks(requests, cloud_request(32.0));
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  EXPECT_EQ(f.worker.busy_cores(), 1);
  f.sim.run();
  ASSERT_EQ(f.done.size(), 1u);
  EXPECT_DOUBLE_EQ(f.sim.now(), 10.0);
  EXPECT_EQ(f.worker.busy_cores(), 0);
  EXPECT_EQ(f.worker.tasks_completed(), 1u);
}

TEST(WorkerRuntime, SlowdownStretchesService) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(32.0), /*slowdown=*/2.0);
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.sim.now(), 20.0);
}

TEST(WorkerRuntime, CapacityLimit) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(1000.0, 17));  // 17 shards, 16 cores
  int started = 0;
  for (auto& t : tasks) {
    if (f.worker.try_start(t)) ++started;
  }
  EXPECT_EQ(started, 16);
  EXPECT_EQ(f.worker.free_cores(), 0);
  EXPECT_FALSE(f.worker.available());
}

TEST(WorkerRuntime, DvfsChangeReschedulesCompletion) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(32.0));
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  // After 5 s (16 Gc done at 3.2 GHz), downclock to 1.6 GHz: the remaining
  // 16 Gc take 10 s more -> completion at t=15.
  f.sim.run_until(5.0);
  f.worker.server().set_pstate(1);  // 1.6 GHz
  f.worker.sync_speed();
  f.sim.run();
  EXPECT_NEAR(f.sim.now(), 15.0, 1e-9);
  ASSERT_EQ(f.done.size(), 1u);
}

TEST(WorkerRuntime, GatingPausesAndResumesWork) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(32.0));
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  f.sim.run_until(5.0);
  f.worker.server().set_powered(false);  // heat demand vanished
  f.worker.sync_speed();
  f.sim.run_until(105.0);  // 100 s gated: no progress
  EXPECT_TRUE(f.done.empty());
  f.worker.server().set_powered(true);
  f.worker.sync_speed();
  f.sim.run();
  EXPECT_NEAR(f.sim.now(), 110.0, 1e-9);  // 5 s of work left
  ASSERT_EQ(f.done.size(), 1u);
}

TEST(WorkerRuntime, ThermalShutdownPausesWork) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(32.0));
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  f.sim.run_until(5.0);
  f.worker.server().set_inlet_temperature(u::celsius(40.0));
  f.worker.sync_speed();
  f.sim.run_until(50.0);
  EXPECT_TRUE(f.done.empty());
  f.worker.server().set_inlet_temperature(u::celsius(20.0));
  f.worker.sync_speed();
  f.sim.run();
  ASSERT_EQ(f.done.size(), 1u);
  EXPECT_NEAR(f.sim.now(), 55.0, 1e-9);
}

TEST(WorkerRuntime, PreemptionCapturesRemainingWork) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(32.0));
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  f.sim.run_until(5.0);
  auto victim = f.worker.preempt_one(core::Priority::kEdge);
  ASSERT_TRUE(victim.has_value());
  EXPECT_NEAR(victim->remaining_gigacycles, 16.0, 1e-9);
  EXPECT_EQ(f.worker.busy_cores(), 0);
  EXPECT_EQ(f.worker.tasks_preempted(), 1u);
  f.sim.run();
  EXPECT_TRUE(f.done.empty());  // completion was cancelled

  // Resume it: finishes after 5 more seconds.
  ASSERT_TRUE(f.worker.try_start(std::move(*victim)));
  f.sim.run();
  ASSERT_EQ(f.done.size(), 1u);
  EXPECT_NEAR(f.sim.now(), 10.0, 1e-9);
}

TEST(WorkerRuntime, PreemptionSkipsEdgeAndNonPreemptible) {
  WorkerFixture f;
  auto edge = core::make_tasks(requests, edge_request());
  ASSERT_TRUE(f.worker.try_start(edge[0]));
  EXPECT_EQ(f.worker.running_below(core::Priority::kEdge), 0);
  EXPECT_FALSE(f.worker.preempt_one(core::Priority::kEdge).has_value());

  wl::Request pinned = cloud_request(100.0);
  pinned.preemptible = false;
  auto t2 = core::make_tasks(requests, pinned);
  ASSERT_TRUE(f.worker.try_start(t2[0]));
  EXPECT_FALSE(f.worker.preempt_one(core::Priority::kEdge).has_value());
}

TEST(WorkerRuntime, PreemptsLeastProgressedVictim) {
  WorkerFixture f;
  auto a = core::make_tasks(requests, cloud_request(32.0));
  ASSERT_TRUE(f.worker.try_start(a[0]));
  f.sim.run_until(5.0);
  auto b = core::make_tasks(requests, cloud_request(32.0));  // fresh: most remaining
  ASSERT_TRUE(f.worker.try_start(b[0]));
  auto victim = f.worker.preempt_one(core::Priority::kEdge);
  ASSERT_TRUE(victim.has_value());
  EXPECT_NEAR(victim->remaining_gigacycles, 32.0, 1e-9);  // evicted the fresh one
}

TEST(WorkerRuntime, BusyCoreSyncSurvivesGatePreemptUngate) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(32.0, 2));
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  ASSERT_TRUE(f.worker.try_start(tasks[1]));
  EXPECT_EQ(f.worker.server().busy_cores(), 2);
  f.sim.run_until(5.0);

  // Thermal shutdown zeroes the chassis count; the running set pauses.
  f.worker.server().set_inlet_temperature(u::celsius(40.0));
  f.worker.sync_speed();
  EXPECT_EQ(f.worker.server().usable_cores(), 0);
  EXPECT_EQ(f.worker.server().busy_cores(), 0);
  std::vector<std::string> violations;
  f.worker.audit(violations);
  EXPECT_TRUE(violations.empty());

  // Preempting while gated must keep the chassis count clamped at zero —
  // the pre-fix guard skipped the sync entirely when no cores were usable.
  auto victim = f.worker.preempt_one(core::Priority::kEdge);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(f.worker.busy_cores(), 1);
  EXPECT_EQ(f.worker.server().busy_cores(), 0);
  f.worker.audit(violations);
  EXPECT_TRUE(violations.empty());

  // Recovery re-asserts the chassis count from the running set.
  f.worker.server().set_inlet_temperature(u::celsius(20.0));
  f.worker.sync_speed();
  EXPECT_EQ(f.worker.server().busy_cores(), 1);
  f.worker.audit(violations);
  EXPECT_TRUE(violations.empty());

  f.sim.run();
  EXPECT_EQ(f.worker.server().busy_cores(), 0);
  EXPECT_EQ(f.worker.tasks_completed(), 1u);
}

TEST(WorkerRuntime, BusyCoreSecondsUtilization) {
  WorkerFixture f;
  auto tasks = core::make_tasks(requests, cloud_request(32.0, 2));
  ASSERT_TRUE(f.worker.try_start(tasks[0]));
  ASSERT_TRUE(f.worker.try_start(tasks[1]));
  f.sim.run();
  EXPECT_NEAR(f.worker.busy_core_seconds(), 20.0, 1e-9);  // 2 cores x 10 s
}

// ------------------------------------------------------------ task queue ---

TEST(TaskQueueTest, EdgeClassAlwaysFirst) {
  core::TaskQueue q;
  auto cloud = core::make_tasks(requests, cloud_request());
  auto edge = core::make_tasks(requests, edge_request());
  q.push(cloud[0]);
  q.push(edge[0]);
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority(), core::Priority::kEdge);
}

TEST(TaskQueueTest, EdfOrdersByDeadline) {
  core::TaskQueue q;
  auto late = core::make_tasks(requests, edge_request(1.0, 10.0));
  auto soon = core::make_tasks(requests, edge_request(1.0, 1.0));
  auto mid = core::make_tasks(requests, edge_request(1.0, 5.0));
  q.push(late[0]);
  q.push(soon[0]);
  q.push(mid[0]);
  EXPECT_DOUBLE_EQ(*q.pop()->deadline(), 1.0);
  EXPECT_DOUBLE_EQ(*q.pop()->deadline(), 5.0);
  EXPECT_DOUBLE_EQ(*q.pop()->deadline(), 10.0);
}

TEST(TaskQueueTest, PushFrontJumpsClassQueue) {
  core::TaskQueue q;
  auto a = core::make_tasks(requests, cloud_request(10.0));
  auto b = core::make_tasks(requests, cloud_request(20.0));
  q.push(a[0]);
  q.push_front(b[0]);
  EXPECT_DOUBLE_EQ(q.pop()->remaining_gigacycles, 20.0);
}

TEST(TaskQueueTest, EdfPushFrontReinsertsByDeadline) {
  core::TaskQueue q;
  auto d1 = core::make_tasks(requests, edge_request(1.0, 1.0));
  auto d3 = core::make_tasks(requests, edge_request(1.0, 3.0));
  auto d5 = core::make_tasks(requests, edge_request(1.0, 5.0));
  q.push(d1[0]);
  q.push(d3[0]);
  q.push(d5[0]);
  // A delayed/preempted shard with deadline 4 must slot between 3 and 5 —
  // a blind front-insert would break the sorted lane and starve deadline 1.
  auto d4 = core::make_tasks(requests, edge_request(1.0, 4.0));
  q.push_front(d4[0]);
  std::vector<std::string> violations;
  q.audit(violations, "q");
  EXPECT_TRUE(violations.empty());
  EXPECT_DOUBLE_EQ(*q.pop()->deadline(), 1.0);
  EXPECT_DOUBLE_EQ(*q.pop()->deadline(), 3.0);
  EXPECT_DOUBLE_EQ(*q.pop()->deadline(), 4.0);
  EXPECT_DOUBLE_EQ(*q.pop()->deadline(), 5.0);
}

TEST(TaskQueueTest, EdfPushFrontResumesAheadOfEqualDeadline) {
  core::TaskQueue q;
  auto fresh = core::make_tasks(requests, edge_request(1.0, 3.0));
  q.push(fresh[0]);
  auto resumed = core::make_tasks(requests, edge_request(1.0, 3.0));
  resumed[0].remaining_gigacycles = 0.25;  // partially executed
  q.push_front(resumed[0]);
  // Equal keys: the returning shard goes first (it already waited once).
  EXPECT_DOUBLE_EQ(q.pop()->remaining_gigacycles, 0.25);
  EXPECT_DOUBLE_EQ(q.pop()->remaining_gigacycles, 1.0);
}

TEST(TaskQueueTest, EdfPushFrontDeadlinelessVictimLeadsCloudLane) {
  core::TaskQueue q;
  auto a = core::make_tasks(requests, cloud_request(10.0));
  auto b = core::make_tasks(requests, cloud_request(20.0));
  q.push(a[0]);
  q.push(b[0]);
  // Preemption victims are deadline-less (key = +inf): they still resume
  // at the head of the cloud lane, ahead of other +inf entries.
  auto victim = core::make_tasks(requests, cloud_request(30.0));
  q.push_front(victim[0]);
  EXPECT_DOUBLE_EQ(q.pop()->remaining_gigacycles, 30.0);
  std::vector<std::string> violations;
  q.audit(violations, "q");
  EXPECT_TRUE(violations.empty());
}

TEST(TaskQueueTest, AuditFlagsNegativeRemainingWork) {
  core::TaskQueue q;
  auto t = core::make_tasks(requests, cloud_request(10.0));
  t[0].remaining_gigacycles = -1.0;
  q.push(t[0]);
  std::vector<std::string> violations;
  q.audit(violations, "q");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("negative remaining work"), std::string::npos);
}

TEST(TaskQueueTest, PopClassAndBacklog) {
  core::TaskQueue q;
  auto cloud = core::make_tasks(requests, cloud_request(100.0));
  q.push(cloud[0]);
  EXPECT_FALSE(q.pop_class(core::Priority::kEdge).has_value());
  EXPECT_EQ(q.size_class(core::Priority::kCloud), 1u);
  EXPECT_DOUBLE_EQ(q.backlog_gigacycles(), 100.0);
  EXPECT_TRUE(q.pop_class(core::Priority::kCloud).has_value());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(TaskQueueTest, PopClassOnEmptyLaneIsNulloptAndHarmless) {
  core::TaskQueue q;
  // Fully empty queue: neither class lane yields anything.
  EXPECT_FALSE(q.pop_class(core::Priority::kEdge).has_value());
  EXPECT_FALSE(q.pop_class(core::Priority::kCloud).has_value());
  // One edge shard: popping the empty *cloud* lane must not disturb the
  // populated edge lane (dedicated edge workers pull by class).
  auto t = core::make_tasks(requests, edge_request(1.0, 2.0));
  q.push(t[0]);
  EXPECT_FALSE(q.pop_class(core::Priority::kCloud).has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.size_class(core::Priority::kEdge), 1u);
  EXPECT_TRUE(q.pop_class(core::Priority::kEdge).has_value());
  EXPECT_TRUE(q.empty());
}

namespace {

/// TaskQueue's lane semantics as they were on std::deque: the reference
/// the ring lanes are checked against.
class DequeQueue {
 public:
  void push(const core::Task& t) {
    auto& q = lane(t.priority());
    const double k = key(t);
    if (q.empty() || key(q.back()) <= k) {
      q.push_back(t);
      return;
    }
    q.insert(std::upper_bound(q.begin(), q.end(), k,
                              [](double kk, const core::Task& o) { return kk < key(o); }),
             t);
  }
  void push_front(const core::Task& t) {
    auto& q = lane(t.priority());
    const double k = key(t);
    if (core::TaskQueue::test_unsorted_push_front() || q.empty() || k <= key(q.front())) {
      q.push_front(t);
      return;
    }
    q.insert(std::lower_bound(q.begin(), q.end(), k,
                              [](const core::Task& o, double kk) { return key(o) < kk; }),
             t);
  }
  std::optional<core::Task> pop() { return !edge_.empty() ? take(edge_) : take(cloud_); }
  std::optional<core::Task> pop_class(core::Priority p) { return take(lane(p)); }
  [[nodiscard]] std::size_t size_class(core::Priority p) const {
    return p == core::Priority::kEdge ? edge_.size() : cloud_.size();
  }
  [[nodiscard]] double backlog() const {
    double total = 0.0;
    for (const auto& t : edge_) total += t.remaining_gigacycles;
    for (const auto& t : cloud_) total += t.remaining_gigacycles;
    return total;
  }
  [[nodiscard]] std::vector<std::pair<const core::Task*, core::Priority>> order() const {
    std::vector<std::pair<const core::Task*, core::Priority>> out;
    for (const auto& t : edge_) out.emplace_back(&t, core::Priority::kEdge);
    for (const auto& t : cloud_) out.emplace_back(&t, core::Priority::kCloud);
    return out;
  }

 private:
  static double key(const core::Task& t) {
    return t.deadline().value_or(std::numeric_limits<double>::infinity());
  }
  std::deque<core::Task>& lane(core::Priority p) {
    return p == core::Priority::kEdge ? edge_ : cloud_;
  }
  static std::optional<core::Task> take(std::deque<core::Task>& q) {
    if (q.empty()) return std::nullopt;
    core::Task t = q.front();
    q.pop_front();
    return t;
  }
  std::deque<core::Task> edge_;
  std::deque<core::Task> cloud_;
};

/// Sets the TaskQueue fault plant for one scope, cleared even when an
/// assertion returns early.
struct PlantGuard {
  explicit PlantGuard(bool plant) { core::TaskQueue::set_test_unsorted_push_front(plant); }
  ~PlantGuard() { core::TaskQueue::set_test_unsorted_push_front(false); }
  PlantGuard(const PlantGuard&) = delete;
  PlantGuard& operator=(const PlantGuard&) = delete;
};

/// Same shard: same request state, shard and remaining work, bit for bit.
bool same_task(const core::Task& a, const core::Task& b) {
  return a.request == b.request && a.shard_index == b.shard_index &&
         std::bit_cast<std::uint64_t>(a.remaining_gigacycles) ==
             std::bit_cast<std::uint64_t>(b.remaining_gigacycles);
}

}  // namespace

TEST(TaskQueueTest, MatchesDequeReferenceUnderRandomOps) {
  for (const bool planted : {false, true}) {  // the test-only blind push_front
    for (const std::size_t target : {1u, 2u, 3u, 17u, 1000u}) {
      SCOPED_TRACE(std::string(planted ? "plant" : "edf") + " target " + std::to_string(target));
      const PlantGuard plant(planted);
      core::TaskQueue q;
      DequeQueue ref;
      std::mt19937_64 rng(2016 + target);
      // Few distinct deadlines, so equal keys are common; cloud requests
      // are deadline-less (+inf key) or carry one.
      const auto make = [&](std::uint64_t id) {
        wl::Request r = rng() % 2 == 0 ? edge_request(1.0, 1.0 + static_cast<double>(rng() % 6))
                                       : cloud_request(1.0);
        if (r.flow == wl::Flow::kCloud && rng() % 3 == 0) {
          r.deadline_s = 1.0 + static_cast<double>(rng() % 6);
        }
        core::Task t = core::make_tasks(requests, r)[0];
        t.remaining_gigacycles = 0.1 * static_cast<double>(id) + 1.0 / 3.0;
        return t;
      };
      const std::size_t ops = 8 * target + 64;
      for (std::uint64_t op = 0; op < ops; ++op) {
        const std::size_t size = q.size();
        const std::uint64_t roll = rng() % 100;
        const std::uint64_t push_share = size < target ? 70 : 35;
        if (roll < push_share) {
          const core::Task t = make(op);
          q.push(t);
          ref.push(t);
        } else if (roll < push_share + 15) {
          const core::Task t = make(op);
          q.push_front(t);
          ref.push_front(t);
        } else {
          std::optional<core::Task> got;
          std::optional<core::Task> want;
          if (rng() % 2 == 0) {
            got = q.pop();
            want = ref.pop();
          } else {
            const auto p = rng() % 2 == 0 ? core::Priority::kEdge : core::Priority::kCloud;
            got = q.pop_class(p);
            want = ref.pop_class(p);
          }
          ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
          if (got) {
            ASSERT_TRUE(same_task(*got, *want)) << "op " << op;
          }
        }
        ASSERT_EQ(q.size_class(core::Priority::kEdge), ref.size_class(core::Priority::kEdge));
        ASSERT_EQ(q.size_class(core::Priority::kCloud), ref.size_class(core::Priority::kCloud));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(q.backlog_gigacycles()),
                  std::bit_cast<std::uint64_t>(ref.backlog()))
            << "op " << op;
        const auto want_order = ref.order();
        std::size_t i = 0;
        bool same = true;
        q.for_each([&](const core::Task& t, core::Priority p) {
          same = same && i < want_order.size() && want_order[i].second == p &&
                 same_task(t, *want_order[i].first);
          ++i;
        });
        ASSERT_TRUE(same && i == want_order.size()) << "for_each order differs at op " << op;
      }
    }
  }
}

// --------------------------------------------------------- heat regulator ---

TEST(HeatRegulatorTest, KeepsOnlyItsIntegrals) {
  // One regulator per room: the gating policy is the city's and comes with
  // each regulate() call, so a regulator is delivered, requested and
  // absolute-error joules and nothing else.
  EXPECT_EQ(sizeof(core::HeatRegulator), 3 * sizeof(double));
}

TEST(HeatRegulatorTest, MatchesPStateToDemand) {
  hw::DfServer server(hw::qrad_spec());
  core::HeatRegulator reg;
  // Demand 300 W: the chosen P-state must be able to *reach* the demand so
  // filler utilization can modulate down onto it exactly.
  const auto ceiling =
      reg.regulate(server, {u::watts(300.0), true}, core::GatingPolicy::kAggressive);
  EXPECT_TRUE(server.powered());
  EXPECT_GE(ceiling.value(), 300.0);
  EXPECT_LT(server.pstate(), server.spec().cpu.top_pstate());  // not more than needed
  // With no real work the filler alone must land on the demand.
  EXPECT_NEAR(server.power().value(), 300.0, 30.0);  // one-core quantization
  // Full demand: top P-state, everything loaded.
  reg.regulate(server, {u::watts(500.0), true}, core::GatingPolicy::kAggressive);
  EXPECT_EQ(server.pstate(), server.spec().cpu.top_pstate());
  EXPECT_NEAR(server.power().value(), 500.0, 30.0);
}

TEST(HeatRegulatorTest, AggressiveGatingOnZeroDemand) {
  hw::DfServer server(hw::qrad_spec());
  core::HeatRegulator reg;
  reg.regulate(server, {u::watts(0.0), true}, core::GatingPolicy::kAggressive);
  EXPECT_FALSE(server.powered());
  // Demand returns: wakes up.
  reg.regulate(server, {u::watts(400.0), true}, core::GatingPolicy::kAggressive);
  EXPECT_TRUE(server.powered());
}

TEST(HeatRegulatorTest, KeepWarmHoldsFloorState) {
  hw::DfServer server(hw::qrad_spec());
  core::HeatRegulator reg;
  reg.regulate(server, {u::watts(0.0), true}, core::GatingPolicy::kKeepWarm);
  EXPECT_TRUE(server.powered());
  EXPECT_EQ(server.pstate(), 0u);
  EXPECT_GT(server.usable_cores(), 0);
}

TEST(HeatRegulatorTest, TinyDemandKeepsFloorNotGate) {
  hw::DfServer server(hw::qrad_spec());
  core::HeatRegulator reg;
  // 50 W is below the floor state's full power but nonzero: stay powered at
  // the floor so utilization can modulate.
  reg.regulate(server, {u::watts(50.0), true}, core::GatingPolicy::kAggressive);
  EXPECT_TRUE(server.powered());
  EXPECT_EQ(server.pstate(), 0u);
}

TEST(HeatRegulatorTest, OffSeasonGates) {
  hw::DfServer server(hw::qrad_spec());
  core::HeatRegulator reg;
  reg.regulate(server, {u::watts(400.0), /*heating_season=*/false},
               core::GatingPolicy::kAggressive);
  EXPECT_FALSE(server.powered());
}

TEST(HeatRegulatorTest, ErrorAccounting) {
  core::HeatRegulator reg;
  reg.record(u::hours(1.0), u::watts(450.0), u::watts(500.0));
  reg.record(u::hours(1.0), u::watts(550.0), u::watts(500.0));
  EXPECT_NEAR(reg.relative_error(), 0.1, 1e-9);
  EXPECT_NEAR(reg.delivered_total().kwh(), 1.0, 1e-9);
  EXPECT_NEAR(reg.requested_total().kwh(), 1.0, 1e-9);
}

TEST(HeatRegulatorTest, PerfectTrackingZeroError) {
  core::HeatRegulator reg;
  reg.record(u::hours(2.0), u::watts(300.0), u::watts(300.0));
  EXPECT_DOUBLE_EQ(reg.relative_error(), 0.0);
  EXPECT_DOUBLE_EQ(core::HeatRegulator{}.relative_error(), 0.0);  // nothing recorded
}
