/// \file obs_test.cpp
/// \brief Observability layer: trace recorder / metric registry units,
///        exporter schema checks, and an end-to-end churn-scenario trace.
///
/// The integration test replays the lifecycle-soak churn scenario at
/// TraceLevel::kFull and validates the exported Chrome trace with a small
/// strict JSON parser: structural schema (every event has name/ph/pid/tid,
/// "X" events carry ts+dur, "i" events carry scope) plus coverage — all
/// four peak-ladder rungs (preempt, offload-horizontal, offload-vertical,
/// delay), both offload kinds, network hops, queue/run segments, and both
/// fault injectors must appear as events.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "df3/core/fault.hpp"
#include "df3/core/platform.hpp"
#include "df3/net/fault.hpp"
#include "df3/obs/export.hpp"
#include "df3/obs/metrics.hpp"
#include "df3/obs/obs.hpp"
#include "df3/obs/slo.hpp"
#include "df3/obs/trace.hpp"

namespace obs = df3::obs;
namespace core = df3::core;
namespace net = df3::net;
namespace wl = df3::workload;
namespace u = df3::util;

namespace {

// --- minimal strict JSON parser (test-local; throws on malformed input) ----

struct Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

struct Json {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v); }
  [[nodiscard]] const JsonObject& obj() const { return std::get<JsonObject>(v); }
  [[nodiscard]] const JsonArray& arr() const { return std::get<JsonArray>(v); }
  [[nodiscard]] const std::string& str() const { return std::get<std::string>(v); }
  [[nodiscard]] double num() const { return std::get<double>(v); }
  [[nodiscard]] bool has(const std::string& key) const {
    return is_object() && obj().count(key) > 0;
  }
  [[nodiscard]] const Json& at(const std::string& key) const { return obj().at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(pos_) + ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return Json{string()};
      case 't': return literal("true", Json{true});
      case 'f': return literal("false", Json{false});
      case 'n': return literal("null", Json{nullptr});
      default: return Json{number()};
    }
  }

  Json literal(const std::string& word, Json v) {
    if (s_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            out += '?';  // exact code point irrelevant for these tests
            pos_ += 4;
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  double number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::stod(s_.substr(start, pos_ - start));
  }

  Json array() {
    expect('[');
    JsonArray out;
    if (peek() == ']') {
      ++pos_;
      return Json{out};
    }
    while (true) {
      out.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json{out};
    }
  }

  Json object() {
    expect('{');
    JsonObject out;
    if (peek() == '}') {
      ++pos_;
      return Json{out};
    }
    while (true) {
      if (peek() != '"') fail("expected key");
      std::string key = string();
      expect(':');
      out.emplace(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json{out};
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- recorder units --------------------------------------------------------

TEST(TraceRecorder, AssignsTrackIdsInFirstSeenOrder) {
  obs::TraceRecorder rec(16);
  int a = 0, b = 0;
  EXPECT_EQ(rec.track(&a, "alpha"), 0u);
  EXPECT_EQ(rec.track(&b, "beta"), 1u);
  EXPECT_EQ(rec.track(&a, "ignored-on-relookup"), 0u);
  ASSERT_EQ(rec.track_names().size(), 2u);
  EXPECT_EQ(rec.track_names()[0], "alpha");
  EXPECT_EQ(rec.track_names()[1], "beta");
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  obs::TraceRecorder rec(4);
  int key = 0;
  const std::uint32_t t = rec.track(&key, "t");
  for (std::uint64_t i = 1; i <= 6; ++i) {
    rec.span(t, obs::Phase::kRun, static_cast<double>(i), static_cast<double>(i) + 0.5, i);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  std::vector<std::uint64_t> ids;
  rec.for_each([&](const obs::TraceEvent& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 4, 5, 6}));  // oldest-first
}

TEST(TraceRecorder, SpanClampsNegativeDurationAndInstantHasNone) {
  obs::TraceRecorder rec(8);
  int key = 0;
  const std::uint32_t t = rec.track(&key, "t");
  rec.span(t, obs::Phase::kRun, 5.0, 4.0, 1);  // t1 < t0 -> clamped
  rec.instant(t, obs::Phase::kArrival, 2.0, 2);
  std::vector<obs::TraceEvent> events;
  rec.for_each([&](const obs::TraceEvent& e) { events.push_back(e); });
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].is_span());
  EXPECT_DOUBLE_EQ(events[0].dur_s, 0.0);
  EXPECT_FALSE(events[1].is_span());
  EXPECT_EQ(events[1].clock, obs::Clock::kSim);
}

TEST(TraceRecorder, ClearKeepsTracksDropsRecords) {
  obs::TraceRecorder rec(8);
  int key = 0;
  const std::uint32_t t = rec.track(&key, "t");
  rec.instant(t, obs::Phase::kArrival, 1.0, 1);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.track(&key, "t"), t);  // registration survives
}

// --- histogram / registry units --------------------------------------------

TEST(LogHistogram, BucketsAndSummaryStats) {
  obs::LogHistogram h;  // base 1e-3, growth 2
  EXPECT_EQ(h.bucket_index(0.0005), 0u);  // below base -> underflow
  EXPECT_EQ(h.bucket_index(0.001), 1u);
  EXPECT_EQ(h.bucket_index(0.0021), 2u);
  EXPECT_DOUBLE_EQ(h.lower_bound(1), 0.001);
  EXPECT_NEAR(h.lower_bound(2), 0.002, 1e-12);
  h.observe(0.0005);
  h.observe(0.01);
  h.observe(0.04);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0005);
  EXPECT_DOUBLE_EQ(h.max(), 0.04);
  EXPECT_NEAR(h.mean(), (0.0005 + 0.01 + 0.04) / 3.0, 1e-12);
}

TEST(LogHistogram, QuantileIsUpperBoundBiasedWithinOneBucket) {
  obs::LogHistogram h;
  for (int i = 0; i < 100; ++i) h.observe(0.01);
  // All mass in one bucket: any quantile lands in it, answer clipped to max.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.01);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.01);
  h.observe(10.0);
  // The tail sample raises max, so mid quantiles now report the upper edge
  // of their bucket (0.001 * 2^4) instead of clipping to the old max...
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.016);
  // ...and the extreme quantile lands in the tail bucket, clipped to max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(LogHistogram, EmptyQuantileIsZero) {
  obs::LogHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, QuantilePinsKnownDistributions) {
  // 100 samples, one per bucket boundary region: sample i = base * 2^i + eps
  // puts exactly 10 samples in each of buckets 1..10. With the upper-edge
  // convention, quantile(q) is the upper bound of the bucket holding the
  // ceil(q * (n-1)) + 1-th sample.
  obs::LogHistogram h;  // base 1e-3, growth 2
  for (int b = 0; b < 10; ++b) {
    for (int i = 0; i < 10; ++i) h.observe(1e-3 * std::pow(2.0, b) * 1.5);
  }
  EXPECT_EQ(h.count(), 100u);
  // p50: 50th/51st samples sit in bucket 5 (values 1.6e-2 * 1.5): upper edge
  // 1e-3 * 2^5 = 0.032.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1e-3 * 32.0);
  // p99: the 100th sample is in the last filled bucket; upper edge capped at
  // max = 1e-3 * 2^9 * 1.5.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1e-3 * 512.0 * 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3 * 2.0);  // first sample's bucket edge
}

TEST(LogHistogram, MergeOfPartsEqualsWhole) {
  // The SLO window merges per-bucket sub-histograms; quantiles over the
  // merge must equal quantiles over one histogram fed everything.
  obs::LogHistogram whole, a, b;
  for (int i = 1; i <= 200; ++i) {
    const double v = 1e-3 * static_cast<double>(i);
    whole.observe(v);
    (i % 2 == 0 ? a : b).observe(v);
  }
  obs::LogHistogram merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
  }
  merged.reset();
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), 0.0);
}

// --- SLO monitor units ------------------------------------------------------

TEST(SloMonitor, WindowedRatiosAndQuantiles) {
  obs::SloMonitor slo(/*window_s=*/600.0, /*buckets=*/6);
  // 8 ok + 2 missed + 2 failed inside the window.
  for (int i = 0; i < 8; ++i) slo.record(0, obs::SloOutcome::kOk, 0.010, 100.0 + i);
  slo.record(0, obs::SloOutcome::kMissed, 1.0, 200.0);
  slo.record(0, obs::SloOutcome::kMissed, 2.0, 250.0);
  slo.record(0, obs::SloOutcome::kFailed, 0.0, 300.0);
  slo.record(0, obs::SloOutcome::kFailed, 0.0, 350.0);
  const auto rep = slo.report(0, 400.0);
  EXPECT_EQ(rep.total, 12u);
  EXPECT_EQ(rep.missed, 2u);
  EXPECT_EQ(rep.failed, 2u);
  EXPECT_DOUBLE_EQ(rep.miss_ratio, 2.0 / 12.0);
  EXPECT_DOUBLE_EQ(rep.fail_ratio, 2.0 / 12.0);
  EXPECT_FALSE(rep.stale);
  // Failures carry no latency: the histogram holds 8 ok + 2 missed samples,
  // so p50 is the 0.01 bucket's upper edge and max is the missed 2 s.
  EXPECT_DOUBLE_EQ(rep.p50_s, 0.016);
  EXPECT_DOUBLE_EQ(rep.max_s, 2.0);
}

TEST(SloMonitor, EventsOutsideTheWindowAgeOut) {
  obs::SloMonitor slo(600.0, 6);
  slo.record(0, obs::SloOutcome::kMissed, 5.0, 50.0);
  for (int i = 0; i < 5; ++i) slo.record(0, obs::SloOutcome::kOk, 0.010, 1000.0 + 100.0 * i);
  // At t=1450 the t=50 miss is more than one window old; a bucket epoch from
  // a previous lap must not leak into the report.
  const auto rep = slo.report(0, 1450.0);
  EXPECT_EQ(rep.total, 5u);
  EXPECT_EQ(rep.missed, 0u);
  EXPECT_DOUBLE_EQ(rep.miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(rep.max_s, 0.010);
}

TEST(SloMonitor, StalenessBoundedGauges) {
  obs::SloMonitor slo(600.0, 6);
  slo.record(1, obs::SloOutcome::kOk, 0.010, 100.0);
  EXPECT_FALSE(slo.report(1, 300.0).stale);
  // Default staleness bound is one window.
  EXPECT_TRUE(slo.report(1, 800.0).stale);
  // Explicit bound overrides.
  EXPECT_FALSE(slo.report(1, 800.0, 1000.0).stale);
  EXPECT_TRUE(slo.report(1, 800.0, 100.0).stale);
  // Distinguishable from "no data": an untouched flow is stale with no
  // last_event_s.
  const auto empty = slo.report(0, 800.0);
  EXPECT_EQ(empty.total, 0u);
  EXPECT_TRUE(empty.stale);
  EXPECT_DOUBLE_EQ(empty.last_event_s, -1.0);
}

TEST(MetricRegistry, InternsByNameAndSnapshotsSeries) {
  obs::MetricRegistry reg;
  const obs::MetricId c = reg.counter("requests/total");
  const obs::MetricId g = reg.gauge("rooms/mean_c");
  const obs::MetricId hist = reg.histogram("latency_s");
  EXPECT_EQ(reg.counter("requests/total").index, c.index);  // same handle
  EXPECT_EQ(reg.size(), 3u);

  reg.at_counter(c).add(5);
  reg.at_gauge(g).set(19.5);
  reg.at_histogram(hist).observe(0.25);
  reg.snapshot(60.0);
  reg.at_counter(c).add(2);
  reg.snapshot(120.0);

  EXPECT_EQ(reg.snapshots(), 2u);
  ASSERT_EQ(reg.instruments().size(), 3u);
  const auto& counter_series = reg.instruments()[c.index].series;
  ASSERT_EQ(counter_series.size(), 2u);
  EXPECT_DOUBLE_EQ(counter_series[0].t_s, 60.0);
  EXPECT_DOUBLE_EQ(counter_series[0].value, 5.0);  // cumulative
  EXPECT_DOUBLE_EQ(counter_series[1].value, 7.0);
  const auto& hist_series = reg.instruments()[hist.index].series;
  ASSERT_EQ(hist_series.size(), 2u);
  EXPECT_EQ(hist_series[0].count, 1u);
  EXPECT_GT(hist_series[0].p99, 0.0);
}

// --- exporter schema --------------------------------------------------------

/// Schema-check one Chrome trace event object; returns its name.
std::string check_event_schema(const Json& e) {
  EXPECT_TRUE(e.is_object());
  EXPECT_TRUE(e.has("name") && e.at("name").is_string());
  EXPECT_TRUE(e.has("ph") && e.at("ph").is_string());
  EXPECT_TRUE(e.has("pid") && e.at("pid").is_number());
  const std::string ph = e.at("ph").str();
  if (ph == "X") {
    EXPECT_TRUE(e.has("tid") && e.at("tid").is_number());
    EXPECT_TRUE(e.has("ts") && e.at("ts").is_number());
    EXPECT_TRUE(e.has("dur") && e.at("dur").is_number());
    EXPECT_GE(e.at("dur").num(), 0.0);
    EXPECT_TRUE(e.has("cat"));
  } else if (ph == "i") {
    EXPECT_TRUE(e.has("tid") && e.at("tid").is_number());
    EXPECT_TRUE(e.has("ts") && e.at("ts").is_number());
    EXPECT_TRUE(e.has("s") && e.at("s").is_string());
  } else {
    EXPECT_EQ(ph, "M") << "unexpected event type " << ph;
    EXPECT_TRUE(e.has("args"));
  }
  return e.at("name").str();
}

TEST(ChromeTraceExport, SchemaTimesAndDualClockProcesses) {
  obs::TraceRecorder rec(64);
  int sim_key = 0, host_key = 0;
  const std::uint32_t sim_track = rec.track(&sim_key, "cluster \"b0\"");  // quote escaping
  const std::uint32_t host_track = rec.track(&host_key, "tick");
  rec.span(sim_track, obs::Phase::kRun, 1.0, 2.5, 42);
  rec.instant(sim_track, obs::Phase::kArrival, 0.25, 42);
  rec.host_span(host_track, obs::Phase::kPhysicsPhase, 0.001, 0.002);

  std::ostringstream os;
  obs::write_chrome_trace(os, rec);
  const Json root = JsonParser(os.str()).parse();

  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("displayTimeUnit").str(), "ms");
  const JsonArray& events = root.at("traceEvents").arr();

  bool saw_run = false, saw_arrival = false, saw_host = false;
  std::set<double> metadata_pids;
  for (const Json& e : events) {
    const std::string name = check_event_schema(e);
    if (e.at("ph").str() == "M") {
      metadata_pids.insert(e.at("pid").num());
      continue;
    }
    if (name == "run") {
      saw_run = true;
      EXPECT_DOUBLE_EQ(e.at("ts").num(), 1.0e6);  // sim seconds -> us
      EXPECT_DOUBLE_EQ(e.at("dur").num(), 1.5e6);
      EXPECT_DOUBLE_EQ(e.at("pid").num(), 1.0);
      EXPECT_DOUBLE_EQ(e.at("args").at("id").num(), 42.0);
    } else if (name == "arrival") {
      saw_arrival = true;
      EXPECT_DOUBLE_EQ(e.at("ts").num(), 0.25e6);
    } else if (name == "physics-phase") {
      saw_host = true;
      EXPECT_DOUBLE_EQ(e.at("pid").num(), 2.0);  // host-clock process
    }
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_arrival);
  EXPECT_TRUE(saw_host);
  // Both clock processes carry metadata (process_name / thread_name).
  EXPECT_TRUE(metadata_pids.count(1.0) == 1 && metadata_pids.count(2.0) == 1);
}

TEST(MetricsExport, CsvAndJsonShapes) {
  obs::MetricRegistry reg;
  const obs::MetricId c = reg.counter("requests/total");
  const obs::MetricId hist = reg.histogram("latency_s");
  reg.at_counter(c).add(3);
  reg.at_histogram(hist).observe(0.5);
  reg.snapshot(60.0);
  reg.snapshot(120.0);

  std::ostringstream csv;
  obs::write_metrics_csv(csv, reg);
  std::istringstream lines(csv.str());
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "metric,kind,t_s,value,count,p50,p99");
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, reg.size() * reg.snapshots());

  std::ostringstream js;
  obs::write_metrics_json(js, reg);
  const Json root = JsonParser(js.str()).parse();
  const JsonArray& metrics = root.at("metrics").arr();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].at("name").str(), "requests/total");
  EXPECT_EQ(metrics[0].at("kind").str(), "counter");
  ASSERT_EQ(metrics[0].at("series").arr().size(), 2u);
  EXPECT_DOUBLE_EQ(metrics[0].at("series").arr()[1].at("t_s").num(), 120.0);
  EXPECT_EQ(metrics[1].at("kind").str(), "histogram");
  EXPECT_TRUE(metrics[1].at("series").arr()[0].has("p99"));
}

// --- install scope ----------------------------------------------------------

TEST(ObsInstall, ScopesNestAndKOffInstallsNothing) {
#ifndef DF3_OBS_DISABLED
  EXPECT_EQ(obs::current(), nullptr);
  obs::Observability full({obs::TraceLevel::kFull, 256});
  obs::Observability off({obs::TraceLevel::kOff, 256});
  {
    obs::Install outer(&full);
    EXPECT_EQ(obs::current(), &full);
    {
      obs::Install inner(&off);  // kOff never installs
      EXPECT_EQ(obs::current(), &full);
    }
    EXPECT_EQ(obs::current(), &full);
  }
  EXPECT_EQ(obs::current(), nullptr);
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

// --- end-to-end churn trace --------------------------------------------------

wl::RequestFactory soak_edge_factory(bool privacy) {
  return [privacy](u::RngStream& rng) {
    wl::Request r;
    r.app = privacy ? "soak-edge-priv" : "soak-edge";
    r.work_gigacycles = rng.uniform(1.0, 4.0);
    r.tasks = 1;
    r.input_size = u::kibibytes(32.0);
    r.output_size = u::kibibytes(1.0);
    r.deadline_s = rng.uniform(2.0, 10.0);
    r.preemptible = false;
    r.privacy_sensitive = privacy;
    return r;
  };
}

wl::RequestFactory soak_cloud_factory() {
  return [](u::RngStream& rng) {
    wl::Request r;
    r.app = "soak-cloud";
    r.tasks = static_cast<int>(rng.uniform_int(1, 16));
    r.work_gigacycles = rng.uniform(32.0, 160.0);
    r.input_size = u::kibibytes(64.0);
    r.output_size = u::kibibytes(64.0);
    r.preemptible = rng.bernoulli(0.5);
    return r;
  };
}

/// The lifecycle-soak "lan-churn" scenario (see lifecycle_soak_test.cpp) at
/// full trace level: saturating workload, link flapping, worker churn, full
/// peak ladder.
std::string run_churn_city_and_export(std::uint64_t seed) {
  core::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.tick_s = 60.0;
  cfg.threads = 1;
  cfg.with_datacenter = true;
  cfg.obs.level = obs::TraceLevel::kFull;
  cfg.cluster.edge_peak_ladder = {"preempt", "horizontal",
                                  "vertical", "delay"};
  cfg.cluster.cloud_offload_backlog_gc_per_core = 50.0;
  core::Df3Platform city(cfg);

  core::BuildingConfig b0;
  b0.name = "b0";
  b0.rooms = 2;
  core::BuildingConfig b1;
  b1.name = "b1";
  b1.rooms = 1;
  city.add_building(b0);
  city.add_building(b1);

  city.add_edge_source(0, soak_edge_factory(false), 0.5);
  city.add_edge_source(0, soak_edge_factory(false), 0.2, /*direct=*/true);
  city.add_edge_source(0, soak_edge_factory(true), 0.2, /*direct=*/false, /*via_wifi=*/true);
  city.add_edge_source(1, soak_edge_factory(false), 0.5);
  city.add_edge_source(1, soak_edge_factory(true), 0.2);
  city.add_cloud_source(soak_cloud_factory(), 0.05);
  city.add_cloud_source(soak_cloud_factory(), 0.08);

  net::LinkFlapper flap(city.simulation(), "flap", city.network(),
                        {{3, 6, 10}, 240.0, 40.0, 0.0}, u::RngStream(seed, "soak/flap-a"));
  core::WorkerChurnConfig churn_cfg;
  churn_cfg.workers = {0, 1};
  churn_cfg.kind = core::OutageKind::kThermalGate;
  churn_cfg.mean_up_s = 400.0;
  churn_cfg.mean_down_s = 80.0;
  core::WorkerChurn churn(city.simulation(), "churn-b0", city.cluster(0), churn_cfg,
                          u::RngStream(seed, "soak/churn-b0"));
  flap.start();
  churn.start();
  city.run(u::hours(2.0));
  flap.stop();
  churn.stop();
  city.stop_sources();
  city.run(u::hours(1.0));

  obs::Observability* o = city.observability();
  if (o == nullptr) return "";  // DF3_OBS=OFF build
  EXPECT_EQ(o->trace().dropped(), 0u) << "ring too small for the scenario";
  std::ostringstream os;
  obs::write_chrome_trace(os, o->trace());
  return os.str();
}

TEST(ChurnTrace, LadderRungsOffloadsAndFaultsAllAppearInValidTrace) {
  const std::string text = run_churn_city_and_export(1);
  if (text.empty()) GTEST_SKIP() << "observability compiled out";

  const Json root = JsonParser(text).parse();
  const JsonArray& events = root.at("traceEvents").arr();
  std::map<std::string, std::size_t> by_name;
  for (const Json& e : events) {
    const std::string name = check_event_schema(e);
    if (e.at("ph").str() != "M") ++by_name[name];
  }
  // Full lifecycle coverage: every ladder rung, both offload kinds, network
  // hops, queue/run segments, terminal outcomes, and both fault injectors.
  for (const char* required :
       {"arrival", "staging", "queue-wait", "run", "preempt", "offload-horizontal",
        "offload-vertical", "delay", "net-hop", "completed", "link-flap", "link-outage",
        "worker-churn", "worker-outage", "physics-phase"}) {
    EXPECT_GT(by_name[required], 0u) << "missing phase: " << required;
  }
}

TEST(ChurnTrace, SameSeedProducesIdenticalTraceBytes) {
  const std::string a = run_churn_city_and_export(7);
  if (a.empty()) GTEST_SKIP() << "observability compiled out";
  const std::string b = run_churn_city_and_export(7);
  // Host-clock tick spans differ run to run; compare only sim-clock events.
  const auto sim_events = [](const std::string& text) {
    std::vector<std::string> out;
    const Json root = JsonParser(text).parse();
    for (const Json& e : root.at("traceEvents").arr()) {
      if (e.at("pid").num() == 1.0 && e.at("ph").str() != "M") {
        out.push_back(e.at("name").str() + "/" + std::to_string(e.at("ts").num()) + "/" +
                      std::to_string(e.at("args").at("id").num()));
      }
    }
    return out;
  };
  EXPECT_EQ(sim_events(a), sim_events(b));
}

}  // namespace
