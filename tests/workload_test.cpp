// Tests for the workload substrate: arrival processes, request factories,
// workload sources, trace persistence and replay.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <sstream>

#include "df3/thermal/calendar.hpp"
#include "df3/util/stats.hpp"
#include "df3/workload/arrivals.hpp"
#include "df3/workload/generators.hpp"
#include "df3/workload/trace.hpp"

namespace wl = df3::workload;
namespace th = df3::thermal;
namespace u = df3::util;
using df3::sim::Simulation;

// ------------------------------------------------------------- arrivals ---

TEST(PoissonArrivals, MeanRateMatches) {
  wl::PoissonArrivals p(0.5);
  u::RngStream rng(1, "poisson");
  double t = 0.0;
  int count = 0;
  while (t < 100000.0) {
    t = p.next_after(t, rng);
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / 100000.0, 0.5, 0.02);
  EXPECT_DOUBLE_EQ(p.mean_rate(), 0.5);
  EXPECT_THROW(wl::PoissonArrivals(0.0), std::invalid_argument);
}

TEST(PoissonArrivals, StrictlyIncreasing) {
  wl::PoissonArrivals p(100.0);
  u::RngStream rng(2, "poisson2");
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double nxt = p.next_after(t, rng);
    EXPECT_GT(nxt, t);
    t = nxt;
  }
}

TEST(MmppArrivals, LongRunRateMatchesWeightedMean) {
  // low 0.1/s for mean 600 s, high 2.0/s for mean 200 s.
  wl::MmppArrivals m(0.1, 2.0, 600.0, 200.0);
  EXPECT_NEAR(m.mean_rate(), (0.1 * 600 + 2.0 * 200) / 800.0, 1e-12);
  u::RngStream rng(3, "mmpp");
  double t = 0.0;
  int count = 0;
  while (t < 500000.0) {
    t = m.next_after(t, rng);
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / 500000.0, m.mean_rate(), 0.05);
}

TEST(MmppArrivals, BurstsAreBursty) {
  // Compare squared-CV of inter-arrivals: MMPP must exceed Poisson (=1).
  wl::MmppArrivals m(0.05, 5.0, 1000.0, 100.0);
  u::RngStream rng(4, "mmpp2");
  u::StreamingStats gaps;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double nxt = m.next_after(t, rng);
    gaps.add(nxt - t);
    t = nxt;
  }
  const double cv2 = gaps.variance() / (gaps.mean() * gaps.mean());
  EXPECT_GT(cv2, 2.0);
}

TEST(MmppArrivals, Validation) {
  EXPECT_THROW(wl::MmppArrivals(2.0, 1.0, 10.0, 10.0), std::invalid_argument);
  EXPECT_THROW(wl::MmppArrivals(0.1, 1.0, 0.0, 10.0), std::invalid_argument);
}

// NaN passes every "<= 0" test, and an infinite rate draws zero gaps (the
// same-instant livelock): every arrival process and helper rejects both.
namespace {
const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()};
}  // namespace

TEST(PoissonArrivals, RejectsNanAndInfinity) {
  for (const double x : kNonFinite) {
    EXPECT_THROW(wl::PoissonArrivals{x}, std::invalid_argument);
  }
}

TEST(MmppArrivals, RejectsNanAndInfinity) {
  for (const double x : kNonFinite) {
    EXPECT_THROW(wl::MmppArrivals(x, 1.0, 10.0, 10.0), std::invalid_argument);
    EXPECT_THROW(wl::MmppArrivals(0.1, x, 10.0, 10.0), std::invalid_argument);
    EXPECT_THROW(wl::MmppArrivals(0.1, 1.0, x, 10.0), std::invalid_argument);
    EXPECT_THROW(wl::MmppArrivals(0.1, 1.0, 10.0, x), std::invalid_argument);
  }
}

TEST(FixedIntervalArrivals, RejectsNanAndInfinity) {
  for (const double x : kNonFinite) {
    EXPECT_THROW(wl::FixedIntervalArrivals{x}, std::invalid_argument);
    EXPECT_THROW(wl::FixedIntervalArrivals(60.0, x), std::invalid_argument);
  }
}

TEST(ModulatedArrivals, RejectsNanAndInfinity) {
  const auto flat = [](double) { return 1.0; };
  for (const double x : kNonFinite) {
    EXPECT_THROW(wl::ModulatedArrivals(flat, x, 1.0), std::invalid_argument);
    EXPECT_THROW(wl::ModulatedArrivals(flat, 1.0, x), std::invalid_argument);
    EXPECT_THROW((void)wl::business_hours_arrivals(x, 2.0), std::invalid_argument);
    EXPECT_THROW((void)wl::business_hours_arrivals(0.01, x), std::invalid_argument);
    EXPECT_THROW((void)wl::diurnal_arrivals(x, 0.5), std::invalid_argument);
    EXPECT_THROW((void)wl::diurnal_arrivals(0.01, x), std::invalid_argument);
    EXPECT_THROW((void)wl::diurnal_arrivals(0.01, 0.5, x), std::invalid_argument);
  }
}

TEST(ModulatedArrivals, BusinessHoursSkew) {
  auto a = wl::business_hours_arrivals(0.01, 10.0);
  u::RngStream rng(5, "bh");
  int business = 0, off = 0;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t = a->next_after(t, rng);
    (th::is_business_hours(t) ? business : off)++;
  }
  // 50 business hours/week at 10x rate vs 118 off-hours at 1x:
  // expected ratio business/off = 500/118 ~ 4.2.
  EXPECT_GT(static_cast<double>(business) / static_cast<double>(off), 3.0);
}

TEST(ModulatedArrivals, DiurnalPeaksAtRequestedHour) {
  auto a = wl::diurnal_arrivals(0.02, 0.8, 19.0);
  u::RngStream rng(6, "di");
  std::array<int, 24> by_hour{};
  double t = 0.0;
  for (int i = 0; i < 40000; ++i) {
    t = a->next_after(t, rng);
    ++by_hour[static_cast<std::size_t>(th::hour_of_day(t))];
  }
  int peak_hour = 0;
  for (int h = 0; h < 24; ++h) {
    if (by_hour[static_cast<std::size_t>(h)] > by_hour[static_cast<std::size_t>(peak_hour)]) {
      peak_hour = h;
    }
  }
  EXPECT_NEAR(peak_hour, 19, 2);
  // Trough near 07:00 must be well below the peak.
  EXPECT_LT(by_hour[7] * 3, by_hour[19] * 2);
}

TEST(ModulatedArrivals, ThrowsWhenRateEscapesBound) {
  wl::ModulatedArrivals bad([](double) { return 5.0; }, 1.0, 1.0);
  u::RngStream rng(7, "bad");
  EXPECT_THROW((void)bad.next_after(0.0, rng), std::logic_error);
}

// -------------------------------------------------------------- factories ---

TEST(Factories, EdgeRequestsHaveDeadlinesAndSmallWork) {
  u::RngStream rng(8, "fac");
  for (const auto& factory :
       {wl::alarm_detection_factory(), wl::map_serving_factory(),
        wl::traffic_estimation_factory(), wl::fall_detection_factory()}) {
    for (int i = 0; i < 100; ++i) {
      const auto r = factory(rng);
      EXPECT_TRUE(wl::is_edge(r.flow));
      ASSERT_TRUE(r.deadline_s.has_value());
      EXPECT_LE(*r.deadline_s, 5.0);
      EXPECT_LE(r.work_gigacycles, 10.0);
      EXPECT_EQ(r.tasks, 1);
      EXPECT_FALSE(r.preemptible);
    }
  }
}

TEST(Factories, FallDetectionIsPrivacySensitive) {
  u::RngStream rng(9, "fd");
  const auto r = wl::fall_detection_factory()(rng);
  EXPECT_TRUE(r.privacy_sensitive);
  EXPECT_EQ(r.flow, wl::Flow::kEdgeDirect);
}

TEST(Factories, RenderBatchesAreWideAndHeavyTailed) {
  u::RngStream rng(10, "rb");
  auto factory = wl::render_batch_factory(8, 64);
  u::StreamingStats work;
  for (int i = 0; i < 500; ++i) {
    const auto r = factory(rng);
    EXPECT_EQ(r.flow, wl::Flow::kCloud);
    EXPECT_GE(r.tasks, 8);
    EXPECT_LE(r.tasks, 64);
    EXPECT_FALSE(r.deadline_s.has_value());
    EXPECT_TRUE(r.preemptible);
    EXPECT_GE(r.work_gigacycles, 360.0);
    EXPECT_LE(r.work_gigacycles, 21600.0);
    work.add(r.work_gigacycles);
  }
  // Heavy tail: max far above mean.
  EXPECT_GT(work.max(), work.mean() * 4.0);
  EXPECT_THROW(wl::render_batch_factory(0, 4), std::invalid_argument);
}

TEST(Factories, CoupledSolverCommunicates) {
  u::RngStream rng(11, "cs");
  const auto r = wl::coupled_solver_factory(16, 0.35)(rng);
  EXPECT_EQ(r.tasks, 16);
  EXPECT_DOUBLE_EQ(r.comm_fraction, 0.35);
  EXPECT_FALSE(r.preemptible);
  EXPECT_THROW(wl::coupled_solver_factory(1, 0.1), std::invalid_argument);
  EXPECT_THROW(wl::coupled_solver_factory(4, 1.0), std::invalid_argument);
}

TEST(Factories, StorageIsColdAndBulky) {
  u::RngStream rng(12, "st");
  const auto r = wl::storage_request_factory()(rng);
  EXPECT_LT(r.work_gigacycles, 0.1);
  EXPECT_GT(r.input_size.value(), 1e6);
}

TEST(RequestModel, TotalWorkAndDeadline) {
  wl::Request r;
  r.arrival = 100.0;
  r.work_gigacycles = 10.0;
  r.tasks = 4;
  EXPECT_DOUBLE_EQ(r.total_work(), 40.0);
  EXPECT_FALSE(r.absolute_deadline().has_value());
  r.deadline_s = 2.5;
  ASSERT_TRUE(r.absolute_deadline().has_value());
  EXPECT_DOUBLE_EQ(*r.absolute_deadline(), 102.5);
}

// ---------------------------------------------------------------- source ---

TEST(WorkloadSource, EmitsAtArrivalInstants) {
  Simulation sim;
  std::vector<wl::Request> got;
  wl::WorkloadSource src(sim, "edge-src", 42, std::make_unique<wl::PoissonArrivals>(1.0),
                         wl::alarm_detection_factory(),
                         [&](wl::Request r) { got.push_back(std::move(r)); });
  src.start();
  sim.run_until(1000.0);
  src.stop();
  EXPECT_NEAR(static_cast<double>(got.size()), 1000.0, 120.0);
  EXPECT_EQ(src.emitted(), got.size());
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_GT(got[i].arrival, got[i - 1].arrival);
    EXPECT_NE(got[i].id, got[i - 1].id);
  }
}

TEST(WorkloadSource, StopCancelsFutureEmissions) {
  Simulation sim;
  int count = 0;
  wl::WorkloadSource src(sim, "s", 1, std::make_unique<wl::PoissonArrivals>(10.0),
                         wl::map_serving_factory(), [&](wl::Request) { ++count; });
  src.start();
  sim.run_until(10.0);
  const int at_stop = count;
  src.stop();
  sim.run_until(100.0);
  EXPECT_EQ(count, at_stop);
}

TEST(WorkloadSource, TwoSourcesAreDecoupled) {
  // Adding a second source must not change what the first one emits
  // (common-random-numbers requirement).
  auto run = [](bool with_second) {
    Simulation sim;
    std::vector<double> arrivals_a;
    wl::WorkloadSource a(sim, "src-a", 7, std::make_unique<wl::PoissonArrivals>(1.0),
                         wl::map_serving_factory(),
                         [&](wl::Request r) { arrivals_a.push_back(r.arrival); });
    a.start();
    std::unique_ptr<wl::WorkloadSource> b;
    if (with_second) {
      b = std::make_unique<wl::WorkloadSource>(
          sim, "src-b", 7, std::make_unique<wl::PoissonArrivals>(5.0),
          wl::alarm_detection_factory(), [](wl::Request) {});
      b->start();
    }
    sim.run_until(200.0);
    return arrivals_a;
  };
  EXPECT_EQ(run(false), run(true));
}

// ----------------------------------------------------------------- trace ---

TEST(Trace, RoundTripThroughCsv) {
  u::RngStream rng(13, "trace");
  wl::Trace trace;
  auto edge = wl::alarm_detection_factory();
  auto cloud = wl::render_batch_factory();
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    t += rng.exponential(0.1);
    auto r = (i % 2 == 0) ? edge(rng) : cloud(rng);
    r.id = static_cast<std::uint64_t>(i);
    r.arrival = t;
    trace.add(std::move(r));
  }
  std::stringstream ss;
  trace.save(ss);
  const wl::Trace back = wl::Trace::load(ss);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const auto& a = trace.requests()[i];
    const auto& b = back.requests()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.app, b.app);
    EXPECT_NEAR(a.arrival, b.arrival, 1e-6 * std::max(1.0, a.arrival));
    EXPECT_NEAR(a.work_gigacycles, b.work_gigacycles, 1e-6 * a.work_gigacycles);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.deadline_s.has_value(), b.deadline_s.has_value());
    EXPECT_EQ(a.preemptible, b.preemptible);
    EXPECT_EQ(a.privacy_sensitive, b.privacy_sensitive);
  }
  EXPECT_NEAR(back.total_work(), trace.total_work(), trace.total_work() * 1e-6);
}

TEST(Trace, RejectsOutOfOrderAndMalformed) {
  wl::Trace trace;
  wl::Request r;
  r.arrival = 10.0;
  trace.add(r);
  r.arrival = 5.0;
  EXPECT_THROW(trace.add(r), std::invalid_argument);

  std::stringstream bad("not,a,header\n");
  EXPECT_THROW((void)wl::Trace::load(bad), std::invalid_argument);
}

TEST(Trace, DeadlinesRoundTripBitForBit) {
  wl::Trace trace;
  for (const double deadline : {1.0 / 3.0, 2.5e-7}) {
    wl::Request r;
    r.deadline_s = deadline;
    trace.add(r);
  }
  std::stringstream ss;
  trace.save(ss);
  const wl::Trace back = wl::Trace::load(ss);
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(back.requests()[i].deadline_s.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back.requests()[i].deadline_s),
              std::bit_cast<std::uint64_t>(*trace.requests()[i].deadline_s));
  }
}

TEST(Trace, SaveRejectsAnAppThatBreaksTheCsv) {
  for (const char* app : {"render,4k", "render\n4k"}) {
    wl::Trace trace;
    wl::Request r;
    r.id = 42;
    r.app = app;
    trace.add(r);
    std::stringstream ss;
    try {
      trace.save(ss);
      ADD_FAILURE() << "saved app '" << app << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("request 42"), std::string::npos) << e.what();
    }
  }
}

// Each malformed field is rejected with its line and its name, never read
// as a nearby value or escaped as a bare std::out_of_range.
TEST(Trace, LoadRejectsEveryMalformedFieldByName) {
  const std::string header =
      "id,flow,arrival,app,work_gigacycles,tasks,comm_fraction,input_bytes,output_bytes,"
      "deadline_s,preemptible,privacy_sensitive\n";
  const std::string good = "7,cloud,1.5,render,2,3,0.25,1024,2048,0.5,1,0";
  {
    std::stringstream ss(header + good + "\n");
    const wl::Trace t = wl::Trace::load(ss);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.requests()[0].tasks, 3);
  }
  struct Case {
    std::size_t field;
    const char* text;
    const char* name;
  };
  const Case cases[] = {
      {0, "-1", "id"},
      {0, "10x", "id"},
      {0, "99999999999999999999", "id"},
      {1, "fog", "flow"},
      {2, "nan", "arrival"},
      {2, "inf", "arrival"},
      {2, "1e999", "arrival"},
      {2, "-1", "arrival"},
      {4, "-2", "work_gigacycles"},
      {4, "2x", "work_gigacycles"},
      {5, "0", "tasks"},
      {5, "99999999999", "tasks"},
      {5, "2.5", "tasks"},
      {6, "7", "comm_fraction"},
      {7, "-1", "input_bytes"},
      {8, "nan", "output_bytes"},
      {9, "0", "deadline_s"},
      {9, "inf", "deadline_s"},
      {10, "yes", "preemptible"},
      {11, "2", "privacy_sensitive"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> fields;
    std::stringstream row(good);
    for (std::string f; std::getline(row, f, ',');) fields.push_back(f);
    fields[c.field] = c.text;
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) line += (i ? "," : "") + fields[i];
    // The broken row is the second data row: line 3 of the file.
    std::stringstream ss(header + good + "\n" + line + "\n");
    SCOPED_TRACE(line);
    try {
      (void)wl::Trace::load(ss);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("field ") + c.name), std::string::npos) << what;
    }
  }
}

TEST(Trace, LoadNamesTheLineOfAnOutOfOrderArrival) {
  std::stringstream ss(
      "id,flow,arrival,app,work_gigacycles,tasks,comm_fraction,input_bytes,output_bytes,"
      "deadline_s,preemptible,privacy_sensitive\n"
      "1,cloud,5,render,2,1,0,1024,2048,-,1,0\n"
      "2,cloud,3,render,2,1,0,1024,2048,-,1,0\n");
  try {
    (void)wl::Trace::load(ss);
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("field arrival '3'"), std::string::npos) << what;
  }
}

TEST(TraceReplayer, DeliversEveryRequestAtItsArrival) {
  wl::Trace trace;
  for (int i = 0; i < 10; ++i) {
    wl::Request r;
    r.id = static_cast<std::uint64_t>(i);
    r.arrival = i * 10.0;
    trace.add(r);
  }
  Simulation sim;
  std::vector<std::pair<double, std::uint64_t>> got;
  wl::TraceReplayer rep(sim, "rep", trace, [&](wl::Request r) {
    got.emplace_back(sim.now(), r.id);
  });
  rep.start();
  sim.run();
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(rep.remaining(), 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)].first, i * 10.0);
    EXPECT_EQ(got[static_cast<std::size_t>(i)].second, static_cast<std::uint64_t>(i));
  }
  EXPECT_THROW(rep.start(), std::logic_error);
}
