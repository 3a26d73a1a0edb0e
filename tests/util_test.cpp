// Unit and property tests for df3::util — units, RNG, statistics (incl. the
// quantile sketch's FlowMetrics memory bound), tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "df3/metrics/collectors.hpp"
#include "df3/util/rng.hpp"
#include "df3/util/stats.hpp"
#include "df3/util/table.hpp"
#include "df3/util/thread_pool.hpp"
#include "df3/util/units.hpp"

namespace u = df3::util;

// ---------------------------------------------------------------- units ---

TEST(Units, PowerTimesTimeIsEnergy) {
  const u::Joules e = u::watts(500.0) * u::hours(2.0);
  EXPECT_DOUBLE_EQ(e.value(), 500.0 * 7200.0);
  EXPECT_DOUBLE_EQ(e.kwh(), 1.0);
}

TEST(Units, EnergyOverTimeIsPower) {
  const u::Watts p = u::kilowatt_hours(1.0) / u::hours(1.0);
  EXPECT_DOUBLE_EQ(p.value(), 1000.0);
}

TEST(Units, EnergyOverPowerIsTime) {
  const u::Seconds t = u::kilowatt_hours(1.0) / u::kilowatts(2.0);
  EXPECT_DOUBLE_EQ(t.value(), 1800.0);
}

TEST(Units, TemperatureDeltaArithmetic) {
  const u::Celsius room = u::celsius(19.0);
  const u::Celsius target = u::celsius(21.0);
  const u::KelvinDelta gap = target - room;
  EXPECT_DOUBLE_EQ(gap.value(), 2.0);
  EXPECT_EQ(room + gap, target);
  EXPECT_EQ(target - gap, room);
}

TEST(Units, QuantityComparisonAndCompoundOps) {
  u::Watts p = u::watts(100.0);
  p += u::watts(50.0);
  EXPECT_EQ(p, u::watts(150.0));
  p -= u::watts(25.0);
  EXPECT_EQ(p, u::watts(125.0));
  p *= 2.0;
  EXPECT_EQ(p, u::watts(250.0));
  EXPECT_LT(u::watts(1.0), u::watts(2.0));
  EXPECT_DOUBLE_EQ(u::watts(250.0) / u::watts(125.0), 2.0);
}

TEST(Units, TransmissionTime) {
  // 1 MiB over 8 Mbit/s = 1.048576 s
  const u::Seconds t = u::transmission_time(u::mebibytes(1.0), u::mbps(8.0));
  EXPECT_NEAR(t.value(), 1.048576, 1e-9);
}

TEST(Units, ScalarMultiplicationCommutes) {
  EXPECT_EQ(2.0 * u::watts(10.0), u::watts(10.0) * 2.0);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicAcrossInstances) {
  u::RngStream a(42, "weather");
  u::RngStream b(42, "weather");
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, DistinctNamesDecorrelated) {
  u::RngStream a(42, "weather");
  u::RngStream b(42, "arrivals");
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, Uniform01InRange) {
  u::RngStream r(7, "u");
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  u::RngStream r(7, "ui");
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = r.uniform_int(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    saw_lo |= (x == 3);
    saw_hi |= (x == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  u::RngStream r(7, "ui");
  EXPECT_THROW((void)r.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  u::RngStream r(11, "exp");
  u::StreamingStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  u::RngStream r(11, "exp");
  EXPECT_THROW((void)r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  u::RngStream r(13, "norm");
  u::StreamingStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  u::RngStream r(17, "poi");
  u::StreamingStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(static_cast<double>(r.poisson(3.5)));
  for (int i = 0; i < 20000; ++i) large.add(static_cast<double>(r.poisson(120.0)));
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  EXPECT_NEAR(large.mean(), 120.0, 1.0);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  u::RngStream r(19, "par");
  for (int i = 0; i < 10000; ++i) {
    const double x = r.bounded_pareto(1.5, 10.0, 1000.0);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(Rng, WeightedIndexProportions) {
  u::RngStream r(23, "wi");
  const std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 40000; ++i) ++hits[r.weighted_index(w)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / static_cast<double>(hits[0]), 3.0, 0.2);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  u::RngStream r(23, "wi");
  EXPECT_THROW((void)r.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)r.weighted_index({1.0, -1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- stats ---

TEST(StreamingStats, KnownSequence) {
  u::StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, MergeEqualsConcatenation) {
  u::RngStream r(29, "m");
  u::StreamingStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(5.0, 2.0);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  u::StreamingStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// Regression pin: an empty side's 0.0-initialized min/max slots must never
// leak into the merged extrema. All-negative samples would surface a
// spurious max of 0.0 (and all-positive a spurious min) if the merge took
// extrema without checking the side's count.
TEST(StreamingStats, MergeWithEmptyPreservesSignedExtrema) {
  {
    u::StreamingStats neg, empty;
    neg.add(-5.0);
    neg.add(-2.0);
    neg.merge(empty);  // non-empty <- empty
    EXPECT_DOUBLE_EQ(neg.min(), -5.0);
    EXPECT_DOUBLE_EQ(neg.max(), -2.0);
    empty.merge(neg);  // empty <- non-empty
    EXPECT_DOUBLE_EQ(empty.min(), -5.0);
    EXPECT_DOUBLE_EQ(empty.max(), -2.0);
  }
  {
    u::StreamingStats pos, empty;
    pos.add(2.0);
    pos.add(7.0);
    empty.merge(pos);
    EXPECT_DOUBLE_EQ(empty.min(), 2.0);  // not the empty side's 0.0 slot
    EXPECT_DOUBLE_EQ(empty.max(), 7.0);
  }
}

TEST(PercentileSampler, MergeWithEmptyPreservesSignedExtrema) {
  // The empty side's zeroed min/max slots must not leak into the merge.
  u::PercentileSampler some, empty;
  some.add(4.0);
  some.add(7.0);
  some.merge(empty);
  EXPECT_DOUBLE_EQ(some.percentile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(some.percentile(100.0), 7.0);
  empty.merge(some);
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100.0), 7.0);

  u::PercentileSampler pos, empty2;
  pos.add(3.0);
  empty2.merge(pos);
  EXPECT_DOUBLE_EQ(empty2.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(empty2.percentile(100.0), 3.0);
}

TEST(PercentileSampler, RejectsNegativeNanAndInfiniteSamples) {
  u::PercentileSampler ps;
  EXPECT_THROW(ps.add(-1.0), std::invalid_argument);
  EXPECT_THROW(ps.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(ps.add(HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(ps.add(-HUGE_VAL), std::invalid_argument);
  EXPECT_TRUE(ps.empty());  // a rejected sample leaves no trace
  ps.add(0.0);
  EXPECT_EQ(ps.count(), 1u);
}

namespace {

/// The sketch's contract: percentile(p) lies in [(1-a) x_lo, (1+a) x_hi],
/// where x_lo/x_hi are the exact order statistics bracketing rank
/// p/100 * (n-1). A 1e-12 relative slack absorbs ln/exp rounding at bucket
/// edges. p = 0 and p = 100 are exact.
void expect_within_alpha(const std::vector<double>& data, const char* label) {
  u::PercentileSampler ps;
  for (const double x : data) ps.add(x);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  constexpr double a = u::PercentileSampler::kRelativeError;
  constexpr double slack = 1e-12;
  for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const double lo = sorted[static_cast<std::size_t>(std::floor(rank))];
    const double hi = sorted[static_cast<std::size_t>(std::ceil(rank))];
    const double est = ps.percentile(p);
    EXPECT_GE(est, (1.0 - a) * lo * (1.0 - slack)) << label << " p=" << p;
    EXPECT_LE(est, (1.0 + a) * hi * (1.0 + slack)) << label << " p=" << p;
  }
  EXPECT_EQ(ps.percentile(0.0), sorted.front()) << label;
  EXPECT_EQ(ps.percentile(100.0), sorted.back()) << label;
}

}  // namespace

TEST(PercentileSampler, WithinRelativeErrorOfExactOrderStatistics) {
  u::RngStream rng(2016, "sketch-accuracy");
  std::vector<double> uniform, lognormal, bimodal, with_zeros;
  for (int i = 0; i < 10000; ++i) {
    uniform.push_back(rng.uniform(0.0, 100.0));
    lognormal.push_back(rng.lognormal(-3.0, 1.5));
    // Edge-like 1 ms mode plus a 10 s cloud-like mode, 9:1.
    bimodal.push_back(i % 10 == 9 ? rng.uniform(9.0, 11.0) : rng.uniform(0.9e-3, 1.1e-3));
    with_zeros.push_back(i % 4 == 0 ? 0.0 : rng.exponential(2.0));
  }
  expect_within_alpha(uniform, "uniform");
  expect_within_alpha(lognormal, "lognormal");
  expect_within_alpha(bimodal, "bimodal");
  expect_within_alpha(with_zeros, "zeros+exponential");
  expect_within_alpha(std::vector<double>(1000, 0.25), "constant");
  expect_within_alpha(std::vector<double>(1000, 0.0), "all-zero");
  expect_within_alpha({42.0}, "single");
}

TEST(PercentileSampler, ExactQuantiles) {
  u::PercentileSampler ps;
  for (int i = 1; i <= 100; ++i) ps.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(ps.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ps.percentile(100.0), 100.0);
  // Median rank 49.5 is bracketed by 50 and 51; p99 rank 98.01 by 99 and 100.
  constexpr double a = u::PercentileSampler::kRelativeError;
  EXPECT_GE(ps.median(), (1.0 - a) * 50.0);
  EXPECT_LE(ps.median(), (1.0 + a) * 51.0);
  EXPECT_GE(ps.p99(), (1.0 - a) * 99.0);
  EXPECT_LE(ps.p99(), 100.0);  // clamped to the exact max
}

TEST(PercentileSampler, EmptyAndSingle) {
  u::PercentileSampler ps;
  EXPECT_DOUBLE_EQ(ps.percentile(50.0), 0.0);
  ps.add(42.0);
  EXPECT_DOUBLE_EQ(ps.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(ps.percentile(99.0), 42.0);
}

TEST(PercentileSampler, RejectsOutOfRangeP) {
  u::PercentileSampler ps;
  ps.add(1.0);
  EXPECT_THROW((void)ps.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW((void)ps.percentile(101.0), std::invalid_argument);
}

TEST(PercentileSampler, InterleavedAddAndQuery) {
  constexpr double a = u::PercentileSampler::kRelativeError;
  u::PercentileSampler ps;
  ps.add(10.0);
  ps.add(20.0);
  EXPECT_GE(ps.median(), (1.0 - a) * 10.0);  // rank 0.5: between 10 and 20
  EXPECT_LE(ps.median(), (1.0 + a) * 20.0);
  ps.add(30.0);  // a query must not freeze the sketch
  EXPECT_NEAR(ps.median(), 20.0, a * 20.0);
}

TEST(PercentileSampler, MergeOfPartsEqualsWhole) {
  // The SLO window merges per-bucket sketches; quantiles over the merge
  // must be bit-identical to one sketch fed everything.
  u::PercentileSampler whole, a, b;
  for (int i = 1; i <= 200; ++i) {
    const double v = 1e-3 * static_cast<double>(i);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  whole.add(0.0);
  b.add(0.0);
  u::PercentileSampler merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.bucket_count(), whole.bucket_count());
  EXPECT_DOUBLE_EQ(merged.summary().sum(), whole.summary().sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.percentile(p), whole.percentile(p)) << "p=" << p;
  }
  merged.clear();
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_EQ(merged.bucket_count(), 0u);
  EXPECT_DOUBLE_EQ(merged.percentile(50.0), 0.0);
}

TEST(PercentileSampler, FlowMetricsMemoryIsFlatInRequestCount) {
  // 1e6 completions log-uniform over six decades (1 ms .. 1000 s), across
  // three flows and four apps. Every slice's sketch stays within the
  // bucket budget of the value range, however many samples it has seen.
  const double lo = 1e-3;
  const double hi = 1e3;
  const double ln_gamma = std::log((1.0 + u::PercentileSampler::kRelativeError) /
                                   (1.0 - u::PercentileSampler::kRelativeError));
  const auto budget = static_cast<std::size_t>(std::ceil(std::log(hi / lo) / ln_gamma)) + 1;

  df3::metrics::FlowMetrics fm;
  df3::workload::CompletionRecord rec;
  const df3::workload::Flow flows[] = {df3::workload::Flow::kCloud,
                                       df3::workload::Flow::kEdgeDirect,
                                       df3::workload::Flow::kEdgeIndirect};
  const char* apps[] = {"render", "alarm", "risk", "ml"};
  u::RngStream rng(2016, "sketch-memory");
  auto expect_within_budget = [&](std::size_t n) {
    EXPECT_EQ(fm.overall().completed, n);
    EXPECT_LE(fm.overall().response_s.bucket_count(), budget);
    for (const auto f : flows) EXPECT_LE(fm.by_flow(f).response_s.bucket_count(), budget);
    for (const char* app : apps) EXPECT_LE(fm.by_app(app).response_s.bucket_count(), budget);
  };
  constexpr std::size_t kTotal = 1'000'000;
  for (std::size_t i = 0; i < kTotal; ++i) {
    rec.request.flow = flows[i % 3];
    rec.request.app = apps[i % 4];
    rec.completed_at = lo * std::pow(hi / lo, rng.uniform01());
    fm.record(rec);
    if (i + 1 == kTotal / 100) expect_within_budget(i + 1);
  }
  expect_within_budget(kTotal);
}

TEST(TimeWeightedValue, StepFunctionMean) {
  u::TimeWeightedValue tw;
  tw.record(0.0, 10.0);   // 10 for [0, 4)
  tw.record(4.0, 20.0);   // 20 for [4, 10)
  EXPECT_DOUBLE_EQ(tw.mean_until(10.0), (10.0 * 4 + 20.0 * 6) / 10.0);
  EXPECT_DOUBLE_EQ(tw.integral_until(10.0), 160.0);
}

TEST(TimeWeightedValue, RejectsBackwardTime) {
  u::TimeWeightedValue tw;
  tw.record(5.0, 1.0);
  EXPECT_THROW(tw.record(4.0, 2.0), std::invalid_argument);
}

TEST(TimeSeries, WindowMean) {
  u::TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(i, i * 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_in_window(2.0, 5.0), (4.0 + 6.0 + 8.0) / 3.0);
  EXPECT_DOUBLE_EQ(ts.mean_in_window(100.0, 200.0), 0.0);
}

TEST(LinearFit, PerfectLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 - 2.0 * i);
  }
  const auto fit = u::fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, -2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(10.0), -17.0, 1e-9);
}

TEST(LinearFit, NoisyLineHighR2) {
  u::RngStream r(31, "fit");
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    const double x = r.uniform(-10.0, 10.0);
    xs.push_back(x);
    ys.push_back(5.0 + 0.7 * x + r.normal(0.0, 0.1));
  }
  const auto fit = u::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.7, 0.02);
  EXPECT_GT(fit.r_squared, 0.97);
}

TEST(LinearFit, DegenerateVerticalData) {
  const auto fit = u::fit_linear({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Pearson, SignFollowsSlope) {
  EXPECT_NEAR(u::pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(u::pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

// ---------------------------------------------------------------- table ---

TEST(Table, AlignedRender) {
  u::Table t({"policy", "p99_ms", "count"}, "demo");
  t.add_row({std::string("edge-direct"), 1.25, std::int64_t{42}});
  t.add_row({std::string("cloud"), 80.0, std::int64_t{7}});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("policy"), std::string::npos);
  EXPECT_NE(s.find("edge-direct"), std::string::npos);
  EXPECT_NE(s.find("80.000"), std::string::npos);
  EXPECT_NE(s.find("== demo =="), std::string::npos);
}

TEST(Table, CsvRender) {
  u::Table t({"a", "b"});
  t.set_precision(1);
  t.add_row({std::int64_t{1}, 2.5});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(Table, ArityMismatchThrows) {
  u::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) { EXPECT_THROW(u::Table({}), std::invalid_argument); }

// ----------------------------------------------------------- threadpool ---

TEST(ThreadPool, RunsAllTasks) {
  u::ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ParallelMapOrdered) {
  const auto out = u::parallel_map(50, [](std::size_t i) { return static_cast<int>(i) + 1; }, 8);
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  u::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}
