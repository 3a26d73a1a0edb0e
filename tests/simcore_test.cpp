// Unit and property tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "df3/sim/engine.hpp"
#include "df3/util/rng.hpp"

using df3::sim::EventHandle;
using df3::sim::PeriodicProcess;
using df3::sim::Simulation;

TEST(Engine, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Engine, FifoAtEqualTimestamps) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

// NaN passes every "t < now" test and +inf is never reached: both are
// rejected, and the clock stays where it was.
TEST(Engine, ScheduleAtRejectsNanAndInfinity) {
  Simulation sim;
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sim.schedule_at(t, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_in(t, [] {}), std::invalid_argument);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Engine, EmptyCallbackThrows) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), std::invalid_argument);
}

TEST(Engine, CallbackCanScheduleAtCurrentTime) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, RunUntilAdvancesClockPastLastEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(8.0, [&] { ++fired; });
  const std::size_t n = sim.run_until(5.0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // clock lands exactly on the horizon
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Engine, RunUntilInclusiveOfBoundary) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilPastThrows) {
  Simulation sim;
  sim.schedule_at(3.0, [] {});
  sim.run();
  EXPECT_THROW(sim.run_until(1.0), std::invalid_argument);
}

TEST(Engine, RunUntilRejectsNanAndInfinity) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(3.0, [&] { fired = true; });
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sim.run_until(t), std::invalid_argument);
  }
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Engine, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());  // idempotent
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Simulation sim;
  EventHandle h = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(Engine, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(Engine, StopInterruptsRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, MaxEventsBound) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Engine, CountersTrackActivity) {
  Simulation sim;
  auto h1 = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  h1.cancel();
  sim.run();
  EXPECT_EQ(sim.events_scheduled(), 2u);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

// Property: merging K randomly generated schedules always executes in
// nondecreasing time order with FIFO ties, regardless of insertion order.
TEST(Engine, PropertyOrderingUnderRandomLoad) {
  df3::util::RngStream rng(99, "engine-prop");
  for (int trial = 0; trial < 20; ++trial) {
    Simulation sim;
    std::vector<std::pair<double, int>> executed;
    int seq = 0;
    for (int i = 0; i < 500; ++i) {
      const double t = rng.uniform(0.0, 100.0);
      const int id = seq++;
      sim.schedule_at(t, [&executed, t, id] { executed.emplace_back(t, id); });
    }
    sim.run();
    ASSERT_EQ(executed.size(), 500u);
    for (std::size_t i = 1; i < executed.size(); ++i) {
      ASSERT_LE(executed[i - 1].first, executed[i].first);
      if (executed[i - 1].first == executed[i].first) {
        ASSERT_LT(executed[i - 1].second, executed[i].second);
      }
    }
  }
}

// Property: cancelling a random subset executes exactly the complement.
TEST(Engine, PropertyCancellationComplement) {
  df3::util::RngStream rng(101, "engine-cancel");
  Simulation sim;
  std::vector<EventHandle> handles;
  std::vector<bool> fired(300, false);
  for (int i = 0; i < 300; ++i) {
    handles.push_back(
        sim.schedule_at(rng.uniform(0.0, 50.0), [&fired, i] { fired[static_cast<std::size_t>(i)] = true; }));
  }
  std::vector<bool> cancelled(300, false);
  for (int i = 0; i < 300; ++i) {
    if (rng.bernoulli(0.4)) {
      cancelled[static_cast<std::size_t>(i)] = handles[static_cast<std::size_t>(i)].cancel();
    }
  }
  sim.run();
  for (int i = 0; i < 300; ++i) {
    EXPECT_NE(fired[static_cast<std::size_t>(i)], cancelled[static_cast<std::size_t>(i)]);
  }
}

TEST(PeriodicProcessTest, TicksAtFixedCadence) {
  Simulation sim;
  std::vector<double> ticks;
  PeriodicProcess proc(sim, 1.0, 2.0, [&](double t) { ticks.push_back(t); });
  sim.run_until(9.0);
  EXPECT_EQ(ticks, (std::vector<double>{1.0, 3.0, 5.0, 7.0, 9.0}));
}

TEST(PeriodicProcessTest, StopHaltsTicks) {
  Simulation sim;
  int count = 0;
  PeriodicProcess proc(sim, 0.0, 1.0, [&](double) { ++count; });
  sim.schedule_at(3.5, [&] { proc.stop(); });
  sim.run_until(10.0);
  EXPECT_EQ(count, 4);  // ticks at 0,1,2,3
  EXPECT_FALSE(proc.running());
}

TEST(PeriodicProcessTest, SelfStopFromCallback) {
  Simulation sim;
  int count = 0;
  PeriodicProcess proc(sim, 0.0, 1.0, [&](double) {
    if (++count == 3) proc.stop();
  });
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicProcessTest, NoPhaseDriftOverLongRuns) {
  // Tick k must fire at exactly start + k * period. The accumulating form
  // (t += period) drifts: 0.1 is not representable in binary, so a month of
  // 0.1 s ticks lands measurably off the grid. The direct form does not.
  Simulation sim;
  double last = -1.0;
  std::uint64_t k = 0;
  PeriodicProcess proc(sim, 0.5, 0.1, [&](double t) {
    last = t;
    EXPECT_EQ(t, 0.5 + static_cast<double>(k) * 0.1);
    ++k;
  });
  sim.run_until(100000.0);
  EXPECT_GT(k, 999000u);
  EXPECT_EQ(last, 0.5 + static_cast<double>(k - 1) * 0.1);
}

TEST(Engine, PendingEventsIsExactUnderCancellation) {
  // pending_events() must not count cancelled entries still awaiting lazy
  // removal from the calendar.
  Simulation sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(1.0 + i, [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (int i = 0; i < 100; i += 2) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.pending_events(), 50u);
  sim.run(10);
  EXPECT_EQ(sim.pending_events(), 40u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicProcessTest, RejectsNonPositivePeriod) {
  Simulation sim;
  EXPECT_THROW(PeriodicProcess(sim, 0.0, 0.0, [](double) {}), std::invalid_argument);
  EXPECT_THROW(PeriodicProcess(sim, 0.0, -1.0, [](double) {}), std::invalid_argument);
}

TEST(PeriodicProcessTest, RejectsNanAndInfiniteStartOrPeriod) {
  Simulation sim;
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(PeriodicProcess(sim, x, 60.0, [](double) {}), std::invalid_argument);
    EXPECT_THROW(PeriodicProcess(sim, 0.0, x, [](double) {}), std::invalid_argument);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

// The re-arm goes through arm_slot: a tick whose successor overflows the
// clock to +inf throws there instead of parking an event at infinity.
TEST(PeriodicProcessTest, ReArmPastTheLargestTimeThrows) {
  Simulation sim;
  const double big = std::numeric_limits<double>::max();
  int ticks = 0;
  PeriodicProcess p(sim, big, big, [&](double) { ++ticks; });
  EXPECT_THROW(sim.run(), std::invalid_argument);
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicProcessTest, DestructorCancelsCleanly) {
  Simulation sim;
  int count = 0;
  {
    PeriodicProcess proc(sim, 0.0, 1.0, [&](double) { ++count; });
    sim.run_until(2.0);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);  // ticks at 0,1,2 then destroyed
}

// Golden determinism test: a mixed workload — random schedules with
// duplicated timestamps, cancellations issued from inside callbacks while
// the run is in flight, a self-stopping periodic process, and a zero-delay
// self-rescheduling chain — must fire in exactly the same (time, order)
// sequence as the seed engine did. The hash below was captured from the
// original shared_ptr + std::priority_queue calendar; any engine rewrite
// must reproduce it bit-for-bit.
TEST(Engine, GoldenEventOrderHash) {
  df3::util::RngStream rng(424242, "golden-order");
  Simulation sim;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t fire_idx = 0;
  auto mix = [&hash, &fire_idx](double t) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    for (std::uint64_t v : {bits, fire_idx++}) {
      for (int b = 0; b < 8; ++b) {
        hash ^= (v >> (8 * b)) & 0xffU;
        hash *= 0x100000001b3ULL;
      }
    }
  };
  std::vector<EventHandle> handles;
  handles.reserve(400);
  for (int i = 0; i < 400; ++i) {
    const double t = (i % 5 == 0) ? 250.0 : rng.uniform(0.0, 1000.0);
    handles.push_back(sim.schedule_at(t, [&] {
      mix(sim.now());
      const double u = rng.uniform01();
      if (u < 0.25) {
        sim.schedule_in(rng.uniform(0.0, 50.0), [&] { mix(sim.now()); });
      } else if (u < 0.35) {
        sim.schedule_in(0.0, [&] { mix(sim.now()); });  // zero-delay tie
      } else if (u < 0.5) {
        handles[static_cast<std::size_t>(rng.uniform_int(0, 399))].cancel();
      }
    }));
  }
  int pticks = 0;
  PeriodicProcess proc(sim, 10.0, 7.5, [&](double t) {
    mix(t);
    if (++pticks == 40) proc.stop();
  });
  int chain = 0;
  std::function<void()> self = [&] {
    mix(sim.now());
    if (++chain < 25) sim.schedule_in(0.0, self);
  };
  sim.schedule_at(100.0, self);
  sim.run();
  EXPECT_EQ(hash, 10905380926383512966ULL);
  EXPECT_EQ(sim.events_executed(), 563ULL);
  EXPECT_EQ(sim.events_scheduled(), 593ULL);
  EXPECT_EQ(sim.events_cancelled(), 30ULL);
}

// Entity is a thin base; verify naming and clock passthrough.
TEST(EntityTest, NameAndClock) {
  Simulation sim;
  struct Probe : df3::sim::Entity {
    using Entity::Entity;
  };
  Probe p(sim, "probe-1");
  EXPECT_EQ(p.name(), "probe-1");
  sim.schedule_at(4.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(p.now(), 4.0);
}
