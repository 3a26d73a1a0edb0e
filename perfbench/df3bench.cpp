// df3bench: the df3sim end-to-end benchmark. One workload per process, run
// through the public core::Df3Platform API only.
//
//   df3bench --workload <request_city|fleet_winter|churn_ladder>
//            [--seed N] [--seconds S] [--trace 0|1]
//
// Timings are host time unless a name starts with `sim_` (simulated time,
// exact for a fixed seed). Arrivals are open-loop processes in simulated
// time, so every workload is a fixed-size batch on the host.
//
// --trace 0 builds the workload's city again and again until --seconds of
// host time have passed. Each repetition times set-up (construction through
// a 30-tick warm-up) and then the timed window in 10-tick chunks; the result
// is the lower-quartile chunk (see chunk_cost) and the median set-up. Every
// repetition must produce the same outcome digest.
//
// --trace 1 is the per-layer pass: one untraced repetition, one at the other
// obs level (kOff vs kCounters, for the obs overhead) and one traced
// repetition (obs kFull for the tick-phase spans, request factories wrapped
// and timed by this program), then a replay of Network::route on the
// workload's own topology. All three must produce the same digest.
//
// Correctness gate: auditor conservation, the structural sweep, per-cluster
// identities, ladder activity (churn_ladder), physical room temperatures and
// digest agreement. A failed check exits 1. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; lines above it start
// with '#'.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "df3/core/fault.hpp"
#include "df3/core/platform.hpp"
#include "df3/mc/snapshot.hpp"
#include "df3/net/fault.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/units.hpp"
#include "df3/workload/arrivals.hpp"

namespace {

using namespace df3;
using Clock = std::chrono::steady_clock;

constexpr double kTickS = 60.0;
constexpr std::uint64_t kWarmupTicks = 30;
constexpr std::uint64_t kChunkTicks = 10;

enum class Workload { kRequestCity, kFleetWinter, kChurnLadder };

/// Size and shape of one workload. Everything else is fixed in build_city.
struct Spec {
  const char* name;
  std::size_t buildings;
  int rooms;
  std::uint64_t window_ticks;  ///< timed window, a multiple of kChunkTicks
  std::uint64_t drain_ticks;   ///< untimed drain after sources stop
  obs::TraceLevel obs_level;
};

const Spec& spec_of(Workload w) {
  static const Spec kSpecs[] = {
      {"request_city", 100, 10, 180, 0, obs::TraceLevel::kOff},
      {"fleet_winter", 10'000, 10, 180, 0, obs::TraceLevel::kCounters},
      {"churn_ladder", 16, 4, 360, 60, obs::TraceLevel::kCounters},
  };
  return kSpecs[static_cast<int>(w)];
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Host cost of a run from its timed chunks: the lower quartile. On a host
/// shared with other tenants, contention only ever adds time, in bursts of
/// a second or more, so the lower quartile tracks the program's own cost
/// while a burst over a quarter to half of the run moves the median.
double chunk_cost(const std::vector<double>& chunk_ns) { return quantile(chunk_ns, 0.25); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- workloads

/// Calls into the workload layer, counted and timed by this program (traced
/// repetition only; untraced runs install the factories unwrapped).
struct FactoryStats {
  std::uint64_t calls = 0;
  double ns = 0.0;
};

workload::RequestFactory wrap(workload::RequestFactory f, FactoryStats* stats) {
  if (stats == nullptr) return f;
  return [f = std::move(f), stats](util::RngStream& rng) {
    const auto t0 = Clock::now();
    workload::Request r = f(rng);
    stats->ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ++stats->calls;
    return r;
  };
}

// Bounded request shapes for churn_ladder: short edge work and cloud shards
// of at most ~160 Gc, so a one-hour drain always reaches quiescence.
workload::RequestFactory churn_edge_factory(bool privacy) {
  return [privacy](util::RngStream& rng) {
    workload::Request r;
    r.app = privacy ? "churn-edge-priv" : "churn-edge";
    r.work_gigacycles = rng.uniform(1.0, 4.0);
    r.tasks = 1;
    r.input_size = util::kibibytes(32.0);
    r.output_size = util::kibibytes(1.0);
    r.deadline_s = rng.uniform(2.0, 10.0);
    r.preemptible = false;
    r.privacy_sensitive = privacy;
    return r;
  };
}

workload::RequestFactory churn_cloud_factory() {
  return [](util::RngStream& rng) {
    workload::Request r;
    r.app = "churn-cloud";
    r.tasks = static_cast<int>(rng.uniform_int(1, 16));
    r.work_gigacycles = rng.uniform(32.0, 160.0);
    r.input_size = util::kibibytes(64.0);
    r.output_size = util::kibibytes(64.0);
    r.preemptible = rng.bernoulli(0.5);
    return r;
  };
}

/// The built-in peak-ladder rungs, in the order per-layer metrics report them.
const char* const kRungs[] = {"preempt", "horizontal", "vertical", "delay"};

std::vector<std::string> ladder_of(Workload w) {
  if (w == Workload::kChurnLadder) return {kRungs[0], kRungs[1], kRungs[2], kRungs[3]};
  return core::ClusterConfig{}.edge_peak_ladder;
}

/// A built city plus the fault injectors that drive it. Injectors hold
/// references into the platform, so they are declared after it and die
/// first.
struct City {
  std::unique_ptr<core::Df3Platform> platform;
  std::vector<std::unique_ptr<net::LinkFlapper>> flappers;
  std::vector<std::unique_ptr<core::WorkerChurn>> churn;

  void stop_injection() {
    for (auto& f : flappers) f->stop();
    for (auto& c : churn) c->stop();
    platform->stop_sources();
  }
  [[nodiscard]] std::uint64_t flaps() const {
    std::uint64_t n = 0;
    for (const auto& f : flappers) n += f->flaps();
    return n;
  }
  [[nodiscard]] std::uint64_t outages() const {
    std::uint64_t n = 0;
    for (const auto& c : churn) n += c->outages();
    return n;
  }
};

City build_city(Workload w, std::uint64_t seed, obs::TraceLevel level, FactoryStats* fs) {
  const Spec& sp = spec_of(w);
  core::PlatformConfig pc;
  pc.seed = seed;
  pc.start_time = thermal::start_of_month(0);
  // request_city runs in Stockholm's January: heat demand stays high on
  // every seed, so the servers keep full compute capacity. In Paris a mild
  // spell on some seeds throttles clusters into edge delays and deadline
  // misses, and abandoned requests skip their costly return route, which
  // moves host time per request by ~30% between seeds.
  pc.climate =
      w == Workload::kRequestCity ? thermal::stockholm_climate() : thermal::paris_climate();
  pc.tick_s = kTickS;
  pc.obs.level = level;
  pc.obs.trace_capacity = obs::TraceRecorder::kDefaultCapacity;
  if (w == Workload::kChurnLadder) {
    pc.cluster.edge_peak_ladder = ladder_of(w);
    pc.cluster.cloud_offload_backlog_gc_per_core = 50.0;
  } else {
    pc.federation_degree = 2;
    pc.with_datacenter = w == Workload::kRequestCity;
  }

  City city;
  city.platform = std::make_unique<core::Df3Platform>(pc);
  core::Df3Platform& p = *city.platform;
  for (std::size_t i = 0; i < sp.buildings; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = sp.rooms;
    b.high_fidelity_rooms = w != Workload::kChurnLadder && i % 3 == 2;
    p.add_building(b);
  }

  if (w == Workload::kRequestCity) {
    for (std::size_t b = 0; b < sp.buildings; ++b) {
      p.add_edge_source(b, wrap(workload::alarm_detection_factory(), fs), 0.02);
      p.add_edge_source(b, wrap(workload::fall_detection_factory(), fs), 0.005, /*direct=*/true);
      // Whole-second phases: FixedIntervalArrivals::next_after can return
      // its own argument for a phase like 0.6 s (rounding in (t - phase) /
      // period), which re-fires the same instant forever.
      const auto phase = static_cast<double>(60 * b / sp.buildings);
      p.add_edge_source(b, wrap(workload::telemetry_factory(), fs),
                        std::make_unique<workload::FixedIntervalArrivals>(60.0, phase));
    }
    p.add_cloud_source(wrap(workload::render_batch_factory(), fs), 1.0 / 600.0);
    p.add_cloud_source(wrap(workload::risk_simulation_factory(), fs), 1.0 / 300.0);
  } else if (w == Workload::kChurnLadder) {
    for (std::size_t b = 0; b < sp.buildings; ++b) {
      p.add_edge_source(b, wrap(churn_edge_factory(false), fs), 0.5);
      p.add_edge_source(b, wrap(churn_edge_factory(false), fs), 0.2, /*direct=*/true);
      p.add_edge_source(b, wrap(churn_edge_factory(true), fs), 0.2, /*direct=*/false,
                        /*via_wifi=*/true);
    }
    p.add_cloud_source(wrap(churn_cloud_factory(), fs), 1.28);

    // Link indices follow the platform's construction order per building:
    // dev-gw, wifi-gw, gw-internet, then gw-srv<i> for each room with the
    // dev-srv0 and wifi-srv0 back doors right after gw-srv0.
    const std::size_t per_building = 3 + static_cast<std::size_t>(sp.rooms) + 2;
    if (p.network().link_count() != sp.buildings * per_building) {
      throw std::logic_error("churn_ladder: unexpected link layout");
    }
    std::vector<std::size_t> uplinks, local;
    for (std::size_t b = 0; b < sp.buildings; ++b) {
      const std::size_t base = b * per_building;
      uplinks.push_back(base + 2);
      local.push_back(base + 1);
      local.push_back(base + 3);
    }
    city.flappers.push_back(std::make_unique<net::LinkFlapper>(
        p.simulation(), "flap-uplink", p.network(), net::LinkFlapConfig{uplinks, 400.0, 60.0, 0.0},
        util::RngStream(seed, "df3bench/flap-uplink")));
    city.flappers.push_back(std::make_unique<net::LinkFlapper>(
        p.simulation(), "flap-local", p.network(), net::LinkFlapConfig{local, 300.0, 30.0, 0.0},
        util::RngStream(seed, "df3bench/flap-local")));
    for (std::size_t b = 0; b < sp.buildings; ++b) {
      core::WorkerChurnConfig cc;
      cc.workers = {0, 1};
      cc.kind = b % 2 == 0 ? core::OutageKind::kPowerGate : core::OutageKind::kThermalGate;
      cc.mean_up_s = 400.0;
      cc.mean_down_s = 60.0;
      const std::string name = "churn-b" + std::to_string(b);
      city.churn.push_back(std::make_unique<core::WorkerChurn>(
          p.simulation(), name, p.cluster(b), cc, util::RngStream(seed, "df3bench/" + name)));
    }
    for (auto& f : city.flappers) f->start();
    for (auto& c : city.churn) c->start();
  }
  return city;
}

// ---------------------------------------------------------------- counters

/// Cumulative counters read from the layers' public accessors. Per-layer
/// figures are differences of two snapshots, so they repeat exactly for a
/// fixed seed.
struct Snapshot {
  double host_s = 0.0;  ///< trace-recorder host clock (traced repetition only)
  std::uint64_t events = 0, cancels = 0;
  std::uint64_t sends = 0, net_drops = 0, flaps = 0;
  std::uint64_t intake = 0, completed = 0, preemptions = 0, offload_h = 0, offload_v = 0,
                edge_delays = 0, dropped = 0, deadline_missed = 0, placement_picks = 0,
                peer_picks = 0;
  std::uint64_t district_ticks = 0, gated_ticks = 0, substeps_run = 0, substeps_skipped = 0,
                lane_parallel = 0, lane_fallback = 0;
  std::uint64_t routing_picks = 0, fill_season = 0, fill_cluster = 0, fill_grid = 0;
  std::uint64_t rung_hits[std::size(kRungs)] = {};  ///< indexed like kRungs
  std::uint64_t terminals = 0;
};

Snapshot snapshot(City& city, Workload w) {
  core::Df3Platform& p = *city.platform;
  const std::vector<std::string> ladder = ladder_of(w);
  Snapshot s;
  if (const obs::Observability* o = p.observability()) s.host_s = o->trace().host_now_s();
  s.events = p.simulation().events_executed();
  s.cancels = p.simulation().events_cancelled();
  s.sends = p.network().messages_sent();
  s.net_drops = p.network().messages_dropped();
  s.flaps = city.flaps();
  for (std::size_t b = 0; b < p.building_count(); ++b) {
    const core::Cluster& c = p.cluster(b);
    const core::ClusterStats& st = c.stats();
    s.intake += st.intake();
    s.completed += st.completed;
    s.preemptions += st.preemptions;
    s.offload_h += st.offloaded_horizontal_out;
    s.offload_v += st.offloaded_vertical;
    s.edge_delays += st.edge_delays;
    s.dropped += st.dropped;
    s.deadline_missed += st.deadline_missed;
    s.placement_picks += c.policy_counters().placement_picks;
    s.peer_picks += c.policy_counters().peer_picks;
    const std::vector<std::uint64_t>& hits = c.policy_counters().rung_hits;
    for (std::size_t i = 0; i < hits.size() && i < ladder.size(); ++i) {
      const auto rung = std::find(std::begin(kRungs), std::end(kRungs), ladder[i]);
      s.rung_hits[rung - std::begin(kRungs)] += hits[i];
    }
  }
  s.district_ticks = p.district_ticks();
  s.gated_ticks = p.gated_district_ticks();
  s.substeps_run = p.substeps_run();
  s.substeps_skipped = p.substeps_skipped();
  s.lane_parallel = p.lane_parallel_ticks();
  s.lane_fallback = p.lane_fallback_ticks();
  s.routing_picks = p.routing_decisions();
  s.fill_season = p.routing_fill_stats().season;
  s.fill_cluster = p.routing_fill_stats().cluster;
  s.fill_grid = p.routing_fill_stats().grid;
  s.terminals = p.auditor().terminals();
  return s;
}

// ---------------------------------------------------------------- outcomes

util::PercentileSampler edge_responses(const core::Df3Platform& p) {
  util::PercentileSampler edge = p.flow_metrics().by_flow(workload::Flow::kEdgeDirect).response_s;
  edge.merge(p.flow_metrics().by_flow(workload::Flow::kEdgeIndirect).response_s);
  return edge;
}

double comfort_dev_k(City& city) {
  core::Df3Platform& p = *city.platform;
  double sum = 0.0;
  for (std::size_t b = 0; b < p.building_count(); ++b) {
    sum += p.comfort(b).mean_abs_deviation_k(p.now());
  }
  return sum / static_cast<double>(std::max<std::size_t>(1, p.building_count()));
}

double mean_room_temperature(const core::Df3Platform& p) {
  const auto& v = p.room_temperature_series().values;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// 64-bit FNV-1a over the simulated outcomes: auditor counters, per-cluster
/// stats, per-flow quantiles, ledger energies and the room temperatures.
std::uint64_t outcome_digest(City& city) {
  core::Df3Platform& p = *city.platform;
  mc::StateDigest d;
  const metrics::LifecycleAuditor& a = p.auditor();
  for (const std::uint64_t v : {a.submitted(), a.terminals(), a.completed(), a.rejected(),
                                a.dropped(), a.deadline_missed()}) {
    d.mix_u64(v);
  }
  for (std::size_t b = 0; b < p.building_count(); ++b) {
    const core::ClusterStats& s = p.cluster(b).stats();
    for (const std::uint64_t v :
         {s.received_edge, s.received_cloud, s.received_pinned, s.completed, s.preemptions,
          s.edge_delays, s.offloaded_vertical, s.offloaded_horizontal_out,
          s.offloaded_horizontal_in, s.rejected, s.dropped, s.deadline_missed}) {
      d.mix_u64(v);
    }
    d.mix_f64(s.foreign_gigacycles);
  }
  for (const workload::Flow f :
       {workload::Flow::kCloud, workload::Flow::kEdgeDirect, workload::Flow::kEdgeIndirect}) {
    const metrics::FlowMetrics::Slice& s = p.flow_metrics().by_flow(f);
    d.mix_u64(s.total());
    d.mix_u64(s.completed);
    d.mix_f64(s.response_s.percentile(50.0));
    d.mix_f64(s.response_s.percentile(99.0));
    d.mix_f64(s.response_s.mean());
  }
  const metrics::EnergyLedger& e = p.df_energy();
  for (const util::Joules j : {e.it(), e.overhead(), e.useful_heat(), e.waste_heat()}) {
    d.mix_f64(j.value());
  }
  d.mix_f64(mean_room_temperature(p));
  for (const double t : p.room_temperature_series().values) d.mix_f64(t);
  return d.value();
}

// ---------------------------------------------------------------- route replay

/// Median host ns of Network::route for the five hop classes the request
/// path uses, replayed on the workload's own topology after its run.
struct RouteReplay {
  double dev_gw = 0, gw_dev = 0, gw_srv = 0, inet_gw = 0, gw_peer = 0;
  /// Route time of one hop of an indirect edge request, whose three sends
  /// are device -> gateway, gateway -> worker (staging), gateway -> device.
  /// Pricing every send at this mean is an estimate: it overstates the route
  /// share when the costly gateway -> device return is rarer than one send
  /// in three (direct requests, cloud traffic, small return payloads).
  [[nodiscard]] double edge_hop_mean() const { return (dev_gw + gw_srv + gw_dev) / 3.0; }
};

RouteReplay replay_routes(Workload w, core::Df3Platform& p) {
  net::Network& n = p.network();
  const std::size_t nb = p.building_count();
  // Route cost depends on message size (it sets each hop's delay, so how
  // far the search spreads), so each class uses the size that hop carries
  // for the workload's main edge and cloud requests.
  util::RngStream rng(0, "df3bench/sizes");
  const bool churn = w == Workload::kChurnLadder;
  const workload::Request edge =
      (churn ? churn_edge_factory(false) : workload::alarm_detection_factory())(rng);
  const workload::Request cloud =
      (churn ? churn_cloud_factory() : workload::risk_simulation_factory())(rng);
  // Spread the sampled buildings over the city; the route cost depends on
  // where the source sits relative to the rest of the graph.
  constexpr std::size_t kSamples = 8;
  const auto node = [&](std::size_t b, const std::string& suffix) {
    return n.node("b" + std::to_string(b) + "/" + suffix);
  };
  const auto time_class = [&](util::Bytes size, auto&& src_dst) {
    std::vector<double> ns;
    const auto start = Clock::now();
    // At least two passes over the samples, then until ~0.2 s per class.
    for (int pass = 0; pass < 64 && (pass < 2 || seconds_since(start) < 0.2); ++pass) {
      for (std::size_t i = 0; i < kSamples; ++i) {
        const auto [src, dst] = src_dst(i * nb / kSamples);
        const auto t0 = Clock::now();
        const std::vector<std::size_t> hops = n.route(src, dst, size);
        ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
        if (hops.empty()) throw std::logic_error("route replay: destination unreachable");
      }
    }
    return median(std::move(ns));
  };
  const std::string last_srv = "srv" + std::to_string(spec_of(w).rooms - 1);
  const net::NodeId inet = n.node("internet");
  RouteReplay r;
  r.dev_gw = time_class(edge.input_size,
                        [&](std::size_t b) { return std::pair{node(b, "dev"), node(b, "gw")}; });
  r.gw_srv = time_class(edge.input_size, [&](std::size_t b) {
    return std::pair{node(b, "gw"), node(b, last_srv)};
  });
  r.gw_dev = time_class(edge.output_size,
                        [&](std::size_t b) { return std::pair{node(b, "gw"), node(b, "dev")}; });
  r.inet_gw = time_class(cloud.input_size,
                         [&](std::size_t b) { return std::pair{inet, node(b, "gw")}; });
  r.gw_peer = time_class(edge.input_size, [&](std::size_t b) {
    return std::pair{node(b, "gw"), node((b + 1) % nb, "gw")};
  });
  return r;
}

// ---------------------------------------------------------------- one repetition

struct TickSpans {
  double physics_ms = 0, control_ms = 0, lane_ms = 0;
};

/// Mean host ms per tick of the tick-phase spans the obs layer records at
/// kFull, for spans that start inside [t0, t1] on the recorder's clock.
TickSpans tick_spans(const obs::Observability& o, double t0, double t1) {
  double phys = 0, ctrl = 0, lane = 0;
  std::size_t ticks = 0;
  o.trace().for_each([&](const obs::TraceEvent& e) {
    if (e.clock != obs::Clock::kHost || !e.is_span() || e.t_s < t0 || e.t_s > t1) return;
    if (e.phase == obs::Phase::kPhysicsPhase) {
      phys += e.dur_s;
      ++ticks;
    } else if (e.phase == obs::Phase::kControlPhase) {
      ctrl += e.dur_s;
    } else if (e.phase == obs::Phase::kLaneControl) {
      lane += e.dur_s;
    }
  });
  const double per = ticks > 0 ? 1e3 / static_cast<double>(ticks) : 0.0;
  return {phys * per, ctrl * per, lane * per};
}

struct Rep {
  double setup_s = 0, add_building_s = 0, warmup_s = 0;
  std::vector<double> chunk_ns;  ///< host ns per room-tick of each timed chunk
  double window_s = 0;           ///< host seconds of the timed window
  std::uint64_t requests = 0;    ///< terminal outcomes inside the timed window
  std::uint64_t room_ticks = 0;
  std::size_t rooms = 0, shards = 0;
  Snapshot at_window, at_window_end, at_end;  ///< at_end: after any drain
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
  double edge_p99_s = 0, success_ratio = 1, comfort_dev_k = 0;
  std::uint64_t submitted = 0, open_at_end = 0, violations = 0;
  // Traced repetition only.
  FactoryStats factory;
  TickSpans ticks;
  RouteReplay routes;
};

void check(Rep& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

Rep run_rep(Workload w, std::uint64_t seed, obs::TraceLevel level, bool traced) {
  const Spec& sp = spec_of(w);
  Rep r;
  const auto t0 = Clock::now();
  City city = build_city(w, seed, level, traced ? &r.factory : nullptr);
  core::Df3Platform& p = *city.platform;
  r.add_building_s = seconds_since(t0);
  const auto t1 = Clock::now();
  p.run(util::Seconds{static_cast<double>(kWarmupTicks) * kTickS});
  r.warmup_s = seconds_since(t1);
  r.setup_s = seconds_since(t0);

  r.shards = p.shard_count();
  r.rooms = sp.buildings * static_cast<std::size_t>(sp.rooms);
  r.at_window = snapshot(city, w);
  for (std::uint64_t done = 0; done < sp.window_ticks; done += kChunkTicks) {
    const auto c0 = Clock::now();
    p.run(util::Seconds{static_cast<double>(kChunkTicks) * kTickS});
    const double s = seconds_since(c0);
    r.window_s += s;
    r.chunk_ns.push_back(s * 1e9 / static_cast<double>(r.rooms * kChunkTicks));
  }
  r.room_ticks = r.rooms * sp.window_ticks;
  r.requests = p.auditor().terminals() - r.at_window.terminals;
  r.at_window_end = snapshot(city, w);
  if (traced && p.observability() != nullptr) {
    r.ticks = tick_spans(*p.observability(), r.at_window.host_s, r.at_window_end.host_s);
  }
  if (sp.drain_ticks > 0) {
    city.stop_injection();
    p.run(util::Seconds{static_cast<double>(sp.drain_ticks) * kTickS});
  }
  r.at_end = snapshot(city, w);

  // --- correctness gate ---------------------------------------------------
  const metrics::LifecycleAuditor& a = p.auditor();
  const std::vector<std::string> structural = p.audit_now();
  for (const auto& s : structural) r.failures.push_back("structural: " + s);
  check(r, a.violation_count() == 0, "auditor recorded violations");
  check(r, a.submitted() == a.terminals() + a.open_requests(), "submitted != terminals + open");
  const double mean_temp_c = mean_room_temperature(p);
  check(r, std::isfinite(mean_temp_c) && mean_temp_c > 5.0 && mean_temp_c < 35.0,
        "mean room temperature out of range");
  check(r, r.at_end.district_ticks - r.at_window.district_ticks >=
               r.shards * (sp.window_ticks + sp.drain_ticks),
        "fewer district ticks than simulated");
  if (w != Workload::kFleetWinter) check(r, r.requests > 0, "no request reached an outcome");
  if (w == Workload::kChurnLadder) {
    for (const auto& s : a.check_quiescent()) r.failures.push_back("quiescent: " + s);
    for (std::size_t b = 0; b < p.building_count(); ++b) {
      const core::Cluster& c = p.cluster(b);
      const bool drained = c.in_flight() == 0 && c.queued() == 0;
      check(r, drained && c.stats().intake() == c.stats().terminal(),
            "cluster " + std::to_string(b) + " not drained");
    }
    check(r, r.at_end.preemptions > 0, "preempt rung never fired");
    check(r, r.at_end.offload_h > 0, "horizontal rung never fired");
    check(r, r.at_end.offload_v > 0, "vertical rung never fired");
    check(r, r.at_end.flaps > 0 && city.outages() > 0, "fault injectors never fired");
  }

  const util::PercentileSampler edge = edge_responses(p);
  r.edge_p99_s = edge.p99();
  r.success_ratio = p.flow_metrics().overall().success_rate();
  r.comfort_dev_k = comfort_dev_k(city);
  r.submitted = a.submitted();
  r.open_at_end = a.open_requests();
  r.violations = a.violation_count() + structural.size();
  r.digest = outcome_digest(city);

  if (traced) {
    r.routes = replay_routes(w, p);
    check(r, outcome_digest(city) == r.digest, "route replay changed the outcome digest");
  }
  return r;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// High-water resident set of this process image, from /proc/self/status.
/// (getrusage's ru_maxrss would also count the parent's resident set at
/// fork, which Linux carries across exec.)
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %20.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Operations a repetition attempted: simulated requests reaching a terminal
/// outcome in the timed window, or timed ticks on the request-free fleet.
std::uint64_t attempted_ops(Workload w, const Rep& r) {
  return w == Workload::kFleetWinter ? spec_of(w).window_ticks : r.requests;
}

/// What the results were measured on: the platform's thread knobs stay at
/// their defaults, one thread per hardware thread clamped to the shard count.
void print_environment(std::size_t shards) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(nproc, shards);
  std::printf("# nproc %u | physics/control threads %zu/%zu | build %s | %s\n", nproc, threads,
              threads, DF3BENCH_BUILD_TYPE, DF3BENCH_COMPILER);
}

void print_outcome(const char* label, const Rep& r) {
  std::printf("# %s: setup %.3f s, window %.3f s, %llu requests, digest %016llx\n", label,
              r.setup_s, r.window_s, static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.digest));
  for (const auto& f : r.failures) std::printf("# FAILED CHECK: %s\n", f.c_str());
}

struct Options {
  Workload workload = Workload::kRequestCity;
  std::uint64_t seed = 2016;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      bool found = false;
      for (const Workload w :
           {Workload::kRequestCity, Workload::kFleetWinter, Workload::kChurnLadder}) {
        if (val == spec_of(w).name) {
          o.workload = w;
          found = true;
        }
      }
      if (!found) throw std::invalid_argument("unknown workload: " + val);
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown option: " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

int run_timed(const Options& o) {
  const Workload w = o.workload;
  const Spec& sp = spec_of(w);
  const auto start = Clock::now();
  std::vector<Rep> reps;
  double rss_mib = 0.0;
  do {
    reps.push_back(run_rep(w, o.seed, sp.obs_level, false));
    print_outcome(("rep " + std::to_string(reps.size())).c_str(), reps.back());
    // Peak memory of one run of the workload. Later repetitions reuse (and
    // fragment) the allocator's arenas, so the process peak would drift
    // with how many repetitions fit in the time budget.
    if (reps.size() == 1) rss_mib = peak_rss_mib();
  } while (seconds_since(start) < o.seconds);

  std::vector<double> chunks, setups, req_rates;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t failed_checks = 0;
  for (const Rep& r : reps) {
    chunks.insert(chunks.end(), r.chunk_ns.begin(), r.chunk_ns.end());
    setups.push_back(r.setup_s);
    req_rates.push_back(ratio(static_cast<double>(r.requests), r.window_s));
    failed_checks += r.failures.size();
    if (r.digest != reps.front().digest) {
      ++failed_checks;
      std::printf("# FAILED CHECK: digest differs across repetitions\n");
    }
    attempted += attempted_ops(w, r);
    if (!r.failures.empty() || r.digest != reps.front().digest) failed += attempted_ops(w, r);
  }
  const Rep& first = reps.front();
  print_environment(first.shards);
  // User-facing figures that not every workload has are printed for
  // reading; the JSON carries the ones every workload has.
  std::printf("# req_per_host_s %.1f req/s | sim_edge_p99_s %.6f s | sim_success_ratio %.6f | "
              "sim_comfort_dev_k %.6f K | failed_checks %zu | reps %zu\n",
              median(req_rates), first.edge_p99_s, first.success_ratio, first.comfort_dev_k,
              failed_checks, reps.size());
  print_result(failed == 0, std::max<std::uint64_t>(1, attempted), failed,
               {{"ns_per_room_tick", chunk_cost(chunks), "ns"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mb", rss_mib, "MiB"}});
  return failed == 0 ? 0 : 1;
}

int run_traced(const Options& o) {
  const Workload w = o.workload;
  const Spec& sp = spec_of(w);
  const obs::TraceLevel other =
      sp.obs_level == obs::TraceLevel::kOff ? obs::TraceLevel::kCounters : obs::TraceLevel::kOff;
  const Rep base = run_rep(w, o.seed, sp.obs_level, false);
  print_outcome("untraced", base);
  const Rep pair = run_rep(w, o.seed, other, false);
  print_outcome(other == obs::TraceLevel::kOff ? "obs off" : "obs counters", pair);
  const Rep t = run_rep(w, o.seed, obs::TraceLevel::kFull, true);
  print_outcome("traced", t);

  std::vector<std::string> failures = t.failures;
  failures.insert(failures.end(), base.failures.begin(), base.failures.end());
  failures.insert(failures.end(), pair.failures.begin(), pair.failures.end());
  if (pair.digest != base.digest || t.digest != base.digest) {
    failures.push_back("digest differs between obs levels or tracing");
    std::printf("# FAILED CHECK: digest differs between obs levels or tracing\n");
  }

  const Snapshot& a = t.at_window;
  const Snapshot& e = t.at_end;
  const double reqs = static_cast<double>(e.terminals - a.terminals);
  const auto per_req = [&](std::uint64_t v) { return ratio(static_cast<double>(v), reqs); };
  const double base_ns = chunk_cost(base.chunk_ns);
  const double counters_ns = chunk_cost(sp.obs_level == obs::TraceLevel::kOff ? pair.chunk_ns
                                                                              : base.chunk_ns);
  const double off_ns = chunk_cost(sp.obs_level == obs::TraceLevel::kOff ? base.chunk_ns
                                                                         : pair.chunk_ns);
  const std::uint64_t sends = e.sends - a.sends;
  const double window_ns = base.window_s * 1e9;
  const auto window_delta = [&](std::uint64_t Snapshot::*field) {
    return static_cast<double>(base.at_window_end.*field - base.at_window.*field);
  };
  const std::size_t threads =
      std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()), t.shards);
  print_environment(t.shards);
  // Counts are differences between the start of the timed window and the
  // end of the run (after the drain on churn_ladder); audit.* and
  // workload.factory_calls cover the whole run. Host times per event and
  // route share divide by the untraced window.
  const std::vector<Metric> metrics = {
      // user-facing figures that apply to only some workloads (0 elsewhere)
      {"req_per_host_s", ratio(static_cast<double>(base.requests), base.window_s), "req/s"},
      {"sim_edge_p99_s", base.edge_p99_s, "s"},
      {"sim_success_ratio", base.success_ratio, "ratio"},
      {"sim_comfort_dev_k", base.comfort_dev_k, "K"},
      {"failed_checks", static_cast<double>(failures.size()), "count"},
      {"trace.overhead", ratio(chunk_cost(t.chunk_ns), base_ns) - 1.0, "ratio"},
      // simcore
      {"sim.events_per_req", per_req(e.events - a.events), "count"},
      {"sim.cancels_per_req", per_req(e.cancels - a.cancels), "count"},
      {"sim.ns_per_event", ratio(window_ns, window_delta(&Snapshot::events)), "ns"},
      // net
      {"net.sends_per_req", per_req(sends), "count"},
      {"net.drops", static_cast<double>(e.net_drops - a.net_drops), "count"},
      {"net.topology_changes", 2.0 * static_cast<double>(e.flaps - a.flaps), "count"},
      {"net.route_ns.dev_gw", t.routes.dev_gw, "ns"},
      {"net.route_ns.gw_dev", t.routes.gw_dev, "ns"},
      {"net.route_ns.gw_srv", t.routes.gw_srv, "ns"},
      {"net.route_ns.inet_gw", t.routes.inet_gw, "ns"},
      {"net.route_ns.gw_peer", t.routes.gw_peer, "ns"},
      {"net.route_share",
       ratio(window_delta(&Snapshot::sends) * t.routes.edge_hop_mean(), window_ns), "ratio"},
      // core: cluster / queue / worker
      {"cluster.intake", static_cast<double>(e.intake - a.intake), "count"},
      {"cluster.completed", static_cast<double>(e.completed - a.completed), "count"},
      {"cluster.preemptions", static_cast<double>(e.preemptions - a.preemptions), "count"},
      {"cluster.offload_h", static_cast<double>(e.offload_h - a.offload_h), "count"},
      {"cluster.offload_v", static_cast<double>(e.offload_v - a.offload_v), "count"},
      {"cluster.edge_delays", static_cast<double>(e.edge_delays - a.edge_delays), "count"},
      {"cluster.dropped", static_cast<double>(e.dropped - a.dropped), "count"},
      {"cluster.deadline_missed", static_cast<double>(e.deadline_missed - a.deadline_missed),
       "count"},
      {"cluster.placement_picks", static_cast<double>(e.placement_picks - a.placement_picks),
       "count"},
      {"cluster.peer_picks", static_cast<double>(e.peer_picks - a.peer_picks), "count"},
      // core: platform tick / fleet kernel
      {"fleet.room_ticks", static_cast<double>(t.room_ticks), "count"},
      {"fleet.shards", static_cast<double>(t.shards), "count"},
      {"fleet.threads", static_cast<double>(threads), "count"},
      {"fleet.gated_fraction",
       ratio(static_cast<double>(e.gated_ticks - a.gated_ticks),
             static_cast<double>(e.district_ticks - a.district_ticks)),
       "ratio"},
      {"fleet.substeps_run", static_cast<double>(e.substeps_run - a.substeps_run), "count"},
      {"fleet.substeps_skipped", static_cast<double>(e.substeps_skipped - a.substeps_skipped),
       "count"},
      {"fleet.lane_parallel_ticks", static_cast<double>(e.lane_parallel - a.lane_parallel),
       "count"},
      {"fleet.lane_fallback_ticks", static_cast<double>(e.lane_fallback - a.lane_fallback),
       "count"},
      {"tick.physics_ms", t.ticks.physics_ms, "ms"},
      {"tick.control_ms", t.ticks.control_ms, "ms"},
      {"tick.lane_ms", t.ticks.lane_ms, "ms"},
      // obs
      {"obs.counters_overhead", ratio(counters_ns, off_ns) - 1.0, "ratio"},
      // policy
      {"policy.rung.preempt", static_cast<double>(e.rung_hits[0] - a.rung_hits[0]), "count"},
      {"policy.rung.horizontal", static_cast<double>(e.rung_hits[1] - a.rung_hits[1]), "count"},
      {"policy.rung.vertical", static_cast<double>(e.rung_hits[2] - a.rung_hits[2]), "count"},
      {"policy.rung.delay", static_cast<double>(e.rung_hits[3] - a.rung_hits[3]), "count"},
      {"policy.routing_picks", static_cast<double>(e.routing_picks - a.routing_picks), "count"},
      {"policy.fill.season", static_cast<double>(e.fill_season - a.fill_season), "count"},
      {"policy.fill.cluster", static_cast<double>(e.fill_cluster - a.fill_cluster), "count"},
      {"policy.fill.grid", static_cast<double>(e.fill_grid - a.fill_grid), "count"},
      // workload
      {"workload.factory_calls", static_cast<double>(t.factory.calls), "count"},
      {"workload.factory_ns", ratio(t.factory.ns, static_cast<double>(t.factory.calls)), "ns"},
      // metrics
      {"audit.submitted", static_cast<double>(t.submitted), "count"},
      {"audit.open_at_end", static_cast<double>(t.open_at_end), "count"},
      {"audit.violations", static_cast<double>(t.violations), "count"},
      // setup
      {"setup.add_building_ms", base.add_building_s * 1e3, "ms"},
      {"setup.warmup_ms", base.warmup_s * 1e3, "ms"},
  };
  const std::uint64_t attempted = attempted_ops(w, base);
  const bool ok = failures.empty();
  print_result(ok, std::max<std::uint64_t>(1, attempted), ok ? 0 : attempted, metrics);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "df3bench: %s\n", e.what());
    return 2;
  }
  try {
    return o.trace ? run_traced(o) : run_timed(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "df3bench: %s\n", e.what());
    return 1;
  }
}
