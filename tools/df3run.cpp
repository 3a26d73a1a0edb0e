// df3run — scenario-driven DF3 city runner.
//
// Turns the library into a tool: describe a city and its workloads in a
// small key=value file (see scenarios/*.cfg), run it, get a service /
// energy / comfort report and optionally telemetry exports for plotting
// and trace inspection.
//
//   ./build/tools/df3run scenarios/winter_city.cfg
//   ./build/tools/df3run scenarios/winter_city.cfg --csv out.csv
//   ./build/tools/df3run scenarios/winter_city.cfg --trace trace.json --metrics metrics.csv
//   ./build/tools/df3run scenarios/winter_city.cfg --report json
//
// Command-line flags (each overrides the same-named scenario key):
//   --csv <path>      per-tick telemetry series CSV (time, room mean, cores,
//                     demand, outdoor)
//   --trace <path>    Chrome trace-event JSON of the request lifecycle —
//                     open in Perfetto (ui.perfetto.dev) or chrome://tracing
//   --metrics <path>  metric-registry time series; .json extension selects
//                     JSON, anything else CSV
//   --report json     append a machine-readable JSON summary (service /
//                     energy / comfort) to stdout after the human report
// An unknown flag, a flag without a value, or a value starting with "--"
// prints the usage line and exits 2.
//
// `df3run --list-policies` (no scenario) prints every policy name known to
// the registry — one line per seam — and exits.
//
// Recognized scenario keys (defaults in parentheses):
//   seed (1)                 start_month (0 = Jan)    days (7)
//   tick_s (60)              gating (keepwarm|aggressive)
//   climate (paris|amsterdam|dresden|stockholm|seville)
//   buildings (4)            rooms (4)                high_fidelity (false)
//   boiler_plant (false)     daily_hot_water_l (1500)
//   edge_alarm_rate (0.02)   edge_map_rate (0)        telemetry_period_s (0)
//   cloud_render_interval_s (0)   cloud_risk_interval_s (1800)
//   routing (df-first; also dc-only|season-aware|heat-aware|least-loaded|
//              carbon-aware|price-aware)
//   peak_ladder (preempt,delay — comma-separated rungs from
//              preempt|horizontal|vertical|delay|grid-shed)
//   peer_select (ring|least-loaded|greenest)   placement (first-fit|best-fit)
//   csv ("" = no export)     trace ("" = no export)   metrics ("" = no export)
//   telemetry (off|counters|full; default inferred: full when a trace is
//              requested, counters when only metrics are, off otherwise;
//              an explicit level below what a requested export needs is
//              raised to it, with a note on stderr)
//   trace_capacity (0 = the 1M-record default) — size the trace ring for
//              long soaks; when journey spans are overwritten a loud
//              warning reports the dropped() count and df3trace will
//              refuse the export without --partial
//   slo_window_s (3600)      rolling SLO window for the per-flow report
//   threads (0 = hardware concurrency; 1 = the serial walk)
//   shard_rooms (4096)       target rooms per physics shard; with threads,
//              bit-for-bit neutral at any value
//   federation_degree (0 = full mesh) — peers per cluster along the ring;
//              a nonzero degree changes peer hand-offs
//   report (""|json)
//   grid_signals ("" = no grid plane) — per-region carbon/price/renewables
//              CSV (see df3/grid/signal.hpp for the format); resolved as
//              given, then relative to the scenario file's directory
//   region ("" = all buildings on region 0) — comma-separated region names
//              assigned to buildings round-robin
//   grid_events ("" = none) — demand-response injectors, ';'-separated
//              region:mean_up_s:mean_down_s:shed_fraction specs (needs
//              grid_signals); with peak_ladder including grid-shed the
//              fleet sheds load during each curtailment window
//
// Policy names resolve through policy::Registry::global(); unknown names —
// and unrecognized scenario keys (typos) — abort with a loud error.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "df3/df3.hpp"
#include "df3/util/config.hpp"

namespace {

using namespace df3;

thermal::ClimateNormals climate_by_name(const std::string& name) {
  if (name == "paris") return thermal::paris_climate();
  if (name == "amsterdam") return thermal::amsterdam_climate();
  if (name == "dresden") return thermal::dresden_climate();
  if (name == "stockholm") return thermal::stockholm_climate();
  if (name == "seville") return thermal::seville_climate();
  throw std::invalid_argument("unknown climate: " + name);
}

/// CLI overrides; empty string = not given, fall back to the scenario key.
struct Options {
  std::string csv;
  std::string trace;
  std::string metrics;
  std::string report;
};

obs::TraceLevel telemetry_level(const std::string& name) {
  if (name == "off") return obs::TraceLevel::kOff;
  if (name == "counters") return obs::TraceLevel::kCounters;
  if (name == "full") return obs::TraceLevel::kFull;
  throw std::invalid_argument("unknown telemetry level: " + name);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Resolve a scenario-referenced data file: the path as given first, then
/// relative to the scenario file's directory (so bundled scenarios work
/// from any cwd).
std::string resolve_near(const std::string& path, const std::string& config_path) {
  if (std::ifstream probe(path); probe) return path;
  const auto slash = config_path.find_last_of('/');
  if (slash == std::string::npos) return path;
  return config_path.substr(0, slash + 1) + path;
}

/// One demand-response injector, parsed from the grid_events= key:
/// region:mean_up_s:mean_down_s:shed_fraction, ';'-separated.
struct GridEventSpec {
  std::string region;
  double mean_up_s = 0.0;
  double mean_down_s = 0.0;
  double shed_fraction = 0.5;
};

std::vector<GridEventSpec> parse_grid_events(const std::string& text) {
  std::vector<GridEventSpec> specs;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::string item =
        text.substr(pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? text.size() : semi + 1;
    std::vector<std::string> fields;
    std::size_t fpos = 0;
    while (true) {
      const std::size_t colon = item.find(':', fpos);
      std::string f =
          item.substr(fpos, colon == std::string::npos ? std::string::npos : colon - fpos);
      const auto b = f.find_first_not_of(" \t");
      f = b == std::string::npos ? "" : f.substr(b, f.find_last_not_of(" \t") - b + 1);
      fields.push_back(std::move(f));
      if (colon == std::string::npos) break;
      fpos = colon + 1;
    }
    if (fields.size() == 1 && fields[0].empty()) continue;
    if (fields.size() != 4) {
      throw std::invalid_argument(
          "grid_events spec '" + item +
          "' — want region:mean_up_s:mean_down_s:shed_fraction");
    }
    // Each number is the whole field and finite: std::stod alone takes
    // "14400x" as 14400 and reads "nan" and "inf".
    const auto number = [&](std::size_t i, const char* name) {
      double v = 0.0;
      std::size_t used = 0;
      try {
        v = std::stod(fields[i], &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 || used != fields[i].size() || !std::isfinite(v)) {
        throw std::invalid_argument("grid_events spec '" + item + "': " + name +
                                    " is not a finite number: '" + fields[i] + "'");
      }
      return v;
    };
    GridEventSpec s;
    s.region = fields[0];
    s.mean_up_s = number(1, "mean_up_s");
    s.mean_down_s = number(2, "mean_down_s");
    s.shed_fraction = number(3, "shed_fraction");
    specs.push_back(std::move(s));
  }
  return specs;
}

void print_json_report(core::Df3Platform& city, bool boiler, std::uint64_t grid_windows) {
  const struct {
    const char* label;
    workload::Flow flow;
  } rows[] = {{"edge-indirect", workload::Flow::kEdgeIndirect},
              {"edge-direct", workload::Flow::kEdgeDirect},
              {"cloud", workload::Flow::kCloud}};
  std::string out = "{\"flows\":[";
  char buf[256];
  bool first = true;
  for (const auto& row : rows) {
    const auto& s = city.flow_metrics().by_flow(row.flow);
    if (s.total() == 0) continue;
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"flow\":\"%s\",\"requests\":%llu,\"completed\":%llu,"
                  "\"deadline_missed\":%llu,\"rejected\":%llu,\"dropped\":%llu,"
                  "\"success_rate\":%.6f,\"p50_s\":%.9g,\"p99_s\":%.9g}",
                  row.label, static_cast<unsigned long long>(s.total()),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(s.deadline_missed),
                  static_cast<unsigned long long>(s.rejected),
                  static_cast<unsigned long long>(s.dropped), s.success_rate(),
                  s.response_s.percentile(50.0), s.response_s.p99());
    out += buf;
  }
  // Rolling-window SLO plane (DESIGN.md section 14): the trailing-window
  // health of each flow, as opposed to the whole-run aggregates above.
  out += "],\"slo\":[";
  first = true;
  if (obs::Observability* o = city.observability()) {
    const double now = city.now();
    for (const auto& row : rows) {
      const auto flow = static_cast<std::uint32_t>(row.flow);
      if (flow >= o->slo().flows()) continue;
      const auto rep = o->slo().report(flow, now);
      if (rep.total == 0 && rep.last_event_s < 0.0) continue;
      if (!first) out += ',';
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"flow\":\"%s\",\"window_s\":%.9g,\"total\":%llu,"
                    "\"miss_ratio\":%.6f,\"fail_ratio\":%.6f,\"p50_s\":%.9g,"
                    "\"p99_s\":%.9g,\"max_s\":%.9g,\"stale\":%s}",
                    row.label, o->slo().window_s(),
                    static_cast<unsigned long long>(rep.total), rep.miss_ratio,
                    rep.fail_ratio, rep.p50_s, rep.p99_s, rep.max_s,
                    rep.stale ? "true" : "false");
      out += buf;
    }
  }
  const auto& energy = city.df_energy();
  std::snprintf(buf, sizeof(buf),
                "],\"energy\":{\"it_kwh\":%.6f,\"pue\":%.6f,\"heat_reuse_fraction\":%.6f},",
                energy.it().kwh(), energy.pue(), energy.heat_reuse_fraction());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"comfort\":{\"kind\":\"%s\",\"mean_abs_deviation_k\":%.6f,"
                "\"mean_temperature_c\":%.6f},",
                boiler ? "store" : "rooms", city.comfort(0).mean_abs_deviation_k(city.now()),
                city.comfort(0).mean_temperature_c(city.now()));
  out += buf;
  // Grid economics block (DESIGN.md §15): spend-time-attributed cost and
  // carbon per region plus the whole-run €/job and gCO2/job figures the
  // e14 bench compares policies on. Present only when a plane is installed,
  // so no-grid reports are byte-identical to before.
  if (const grid::GridPlane* plane = city.grid_plane()) {
    out += "\"grid\":{\"regions\":[";
    const auto& accounts = city.grid_accounts();
    for (std::size_t r = 0; r < accounts.size(); ++r) {
      if (r > 0) out += ',';
      std::snprintf(buf, sizeof(buf),
                    "{\"region\":\"%s\",\"energy_kwh\":%.6f,\"cost_eur\":%.6f,"
                    "\"co2_g\":%.6f,\"curtailed_ticks\":%llu}",
                    plane->region_name(r).c_str(), accounts[r].energy_j / 3.6e6,
                    accounts[r].cost_eur, accounts[r].co2_g,
                    static_cast<unsigned long long>(accounts[r].curtailed_ticks));
      out += buf;
    }
    const std::uint64_t jobs = city.flow_metrics().overall().completed;
    std::snprintf(buf, sizeof(buf),
                  "],\"cost_eur\":%.6f,\"co2_g\":%.6f,\"eur_per_job\":%.9g,"
                  "\"gco2_per_job\":%.9g,\"windows\":%llu},",
                  energy.grid_cost_eur(), energy.grid_co2_g(),
                  jobs > 0 ? energy.grid_cost_eur() / static_cast<double>(jobs) : 0.0,
                  jobs > 0 ? energy.grid_co2_g() / static_cast<double>(jobs) : 0.0,
                  static_cast<unsigned long long>(grid_windows));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "\"regulator_relative_error\":%.6f}",
                city.regulator_relative_error());
  out += buf;
  std::printf("%s\n", out.c_str());
}

int run(const std::string& config_path, const Options& opts) {
  const auto cfg = util::KeyValueConfig::parse_file(config_path);

  // Read every recognized key up front (even ones a branch below may not
  // use), then demand exhaustion: a typo like `routting =` fails loudly
  // instead of silently running the default.
  const std::string csv_key = cfg.get_string("csv", "");
  const std::string trace_key = cfg.get_string("trace", "");
  const std::string metrics_key = cfg.get_string("metrics", "");
  const std::string report_key = cfg.get_string("report", "");
  const long seed = cfg.get_int("seed", 1);
  const long start_month = cfg.get_int("start_month", 0);
  const double tick_s = cfg.get_double("tick_s", 60.0);
  const std::string climate = cfg.get_string("climate", "paris");
  const std::string gating = cfg.get_string("gating", "keepwarm");
  const bool has_telemetry_key = cfg.has("telemetry");
  const std::string telemetry = cfg.get_string("telemetry", "off");
  const long buildings = cfg.get_int("buildings", 4);
  const long rooms = cfg.get_int("rooms", 4);
  const bool high_fidelity = cfg.get_bool("high_fidelity", false);
  const bool boiler = cfg.get_bool("boiler_plant", false);
  const double daily_hot_water_l = cfg.get_double("daily_hot_water_l", 1500.0);
  const std::string routing = cfg.get_string("routing", "df-first");
  const std::string peak_ladder = cfg.get_string("peak_ladder", "preempt,delay");
  const std::string peer_select = cfg.get_string("peer_select", "ring");
  const std::string placement = cfg.get_string("placement", "first-fit");
  const double edge_alarm_rate = cfg.get_double("edge_alarm_rate", 0.02);
  const double edge_map_rate = cfg.get_double("edge_map_rate", 0.0);
  const double telemetry_period_s = cfg.get_double("telemetry_period_s", 0.0);
  const double cloud_render_interval_s = cfg.get_double("cloud_render_interval_s", 0.0);
  const double cloud_risk_interval_s = cfg.get_double("cloud_risk_interval_s", 1800.0);
  const double days = cfg.get_double("days", 7.0);
  const long threads = cfg.get_int("threads", 0);
  const long shard_rooms = cfg.get_int("shard_rooms", 4096);
  const long federation_degree = cfg.get_int("federation_degree", 0);
  const long trace_capacity = cfg.get_int("trace_capacity", 0);
  const double slo_window_s = cfg.get_double("slo_window_s", 3600.0);
  const std::string grid_signals = cfg.get_string("grid_signals", "");
  const std::string region_list = cfg.get_string("region", "");
  const std::string grid_events = cfg.get_string("grid_events", "");
  cfg.check_exhausted();
  if (buildings <= 0) throw std::invalid_argument("buildings must be > 0");
  if (rooms <= 0) throw std::invalid_argument("rooms must be > 0");
  if (trace_capacity < 0) throw std::invalid_argument("trace_capacity must be >= 0");
  if (slo_window_s <= 0.0) throw std::invalid_argument("slo_window_s must be > 0");
  if (threads < 0) throw std::invalid_argument("threads must be >= 0");
  if (shard_rooms <= 0) throw std::invalid_argument("shard_rooms must be > 0");
  if (federation_degree < 0) throw std::invalid_argument("federation_degree must be >= 0");

  const std::string csv = !opts.csv.empty() ? opts.csv : csv_key;
  const std::string trace = !opts.trace.empty() ? opts.trace : trace_key;
  const std::string metrics = !opts.metrics.empty() ? opts.metrics : metrics_key;
  const std::string report = !opts.report.empty() ? opts.report : report_key;
  if (!report.empty() && report != "json") {
    throw std::invalid_argument("unknown report format: " + report);
  }
  if (!grid_events.empty() && grid_signals.empty()) {
    throw std::invalid_argument("grid_events needs grid_signals");
  }
  if (!region_list.empty() && grid_signals.empty()) {
    throw std::invalid_argument("region needs grid_signals");
  }

  core::PlatformConfig pc;
  pc.seed = static_cast<std::uint64_t>(seed);
  pc.start_time = thermal::start_of_month(static_cast<int>(start_month));
  pc.tick_s = tick_s;
  pc.climate = climate_by_name(climate);
  // Sharded-kernel knobs (DESIGN.md section 8.1). Shard size and thread
  // count are bit-for-bit neutral; federation_degree keeps the
  // full-mesh default bit-identical, while a nonzero ring degree is a real
  // topology choice that changes peer hand-offs.
  pc.threads = static_cast<std::size_t>(threads);
  pc.shard_rooms = static_cast<std::size_t>(shard_rooms);
  pc.federation_degree = static_cast<std::size_t>(federation_degree);
  if (gating == "keepwarm") {
    pc.regulator.gating = core::GatingPolicy::kKeepWarm;
  } else if (gating == "aggressive") {
    pc.regulator.gating = core::GatingPolicy::kAggressive;
  } else {
    throw std::invalid_argument("unknown gating: " + gating);
  }
  // Decision plane: ladder rungs, peer selector and placement apply to
  // every cluster; routing is installed on the platform below. Unknown
  // policy names throw from the registry, naming the known ones.
  pc.cluster.edge_peak_ladder = policy::Registry::split_list(peak_ladder);
  pc.cluster.peer_select = peer_select;
  pc.cluster.placement = placement;
  // Telemetry level: explicit key wins; otherwise infer the cheapest level
  // that can satisfy the requested exports.
  if (has_telemetry_key) {
    pc.obs.level = telemetry_level(telemetry);
  } else if (!trace.empty()) {
    pc.obs.level = obs::TraceLevel::kFull;
  } else if (!metrics.empty()) {
    pc.obs.level = obs::TraceLevel::kCounters;
  }
  if (!trace.empty() && pc.obs.level != obs::TraceLevel::kFull) {
    std::fprintf(stderr, "df3run: --trace needs telemetry=full; raising level\n");
    pc.obs.level = obs::TraceLevel::kFull;
  }
  if (!metrics.empty() && pc.obs.level == obs::TraceLevel::kOff) {
    std::fprintf(stderr, "df3run: --metrics needs telemetry=counters; raising level\n");
    pc.obs.level = obs::TraceLevel::kCounters;
  }
  pc.obs.trace_capacity = static_cast<std::size_t>(trace_capacity);
  pc.obs.slo_window_s = slo_window_s;

  core::Df3Platform city(pc);
  const std::vector<std::string> regions = policy::Registry::split_list(region_list);
  for (long i = 0; i < buildings; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = static_cast<int>(rooms);
    b.high_fidelity_rooms = high_fidelity;
    if (!regions.empty()) {
      b.grid_region = regions[static_cast<std::size_t>(i) % regions.size()];
    }
    if (boiler) {
      b.server = hw::stimergy_boiler_spec();
      thermal::WaterTankParams tank;
      tank.volume_l = 2500.0;
      tank.setpoint = util::celsius(58.0);
      b.water_tank = tank;
      b.daily_hot_water_l = daily_hot_water_l;
    }
    city.add_building(b);
  }

  city.set_cloud_routing(routing);

  // Grid plane + demand-response injectors (DESIGN.md §15). Installed after
  // the buildings so their region names resolve; event sources live outside
  // the platform (PR-3 injector idiom) and stop after the run.
  std::vector<std::unique_ptr<core::GridEventSource>> grid_sources;
  if (!grid_signals.empty()) {
    city.install_grid(grid::load_signals_csv_file(resolve_near(grid_signals, config_path)));
    for (const GridEventSpec& spec : parse_grid_events(grid_events)) {
      const std::size_t r = city.grid_plane()->region_index(spec.region);
      std::vector<core::Cluster*> clusters;
      for (std::size_t b = 0; b < city.building_count(); ++b) {
        if (city.building_region(b) == r) clusters.push_back(&city.cluster(b));
      }
      core::GridEventConfig ec;
      ec.region = r;
      ec.mean_up_s = spec.mean_up_s;
      ec.mean_down_s = spec.mean_down_s;
      ec.shed_fraction = spec.shed_fraction;
      const std::string ename = "grid-event/" + spec.region;
      grid_sources.push_back(std::make_unique<core::GridEventSource>(
          city.simulation(), ename, *city.grid_plane(), std::move(clusters), ec,
          util::RngStream(pc.seed, ename)));
      grid_sources.back()->start();
    }
  }

  if (edge_alarm_rate > 0.0) {
    city.add_edge_source(0, workload::alarm_detection_factory(), edge_alarm_rate);
  }
  if (edge_map_rate > 0.0) {
    city.add_edge_source(0, workload::map_serving_factory(), edge_map_rate, false,
                         /*via_wifi=*/true);
  }
  if (telemetry_period_s > 0.0) {
    city.add_edge_source(0, workload::telemetry_factory(),
                         std::make_unique<workload::FixedIntervalArrivals>(telemetry_period_s));
  }
  if (cloud_render_interval_s > 0.0) {
    city.add_cloud_source(workload::render_batch_factory(), 1.0 / cloud_render_interval_s);
  }
  if (cloud_risk_interval_s > 0.0) {
    city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / cloud_risk_interval_s);
  }

  std::printf("df3run: %s — %ld building(s), %.0f day(s) from month %ld, %s climate\n\n",
              config_path.c_str(), buildings, days, start_month, climate.c_str());
  city.run(util::days(days));
  // End any open curtailment window (restores gated chassis) so the report
  // reads a recovered fleet.
  for (auto& src : grid_sources) src->stop();
  std::uint64_t grid_windows = 0;
  for (const auto& src : grid_sources) grid_windows += src->windows();

  // --- report ---------------------------------------------------------------
  util::Table flows({"flow", "requests", "success", "p50_ms", "p99_ms"}, "service quality");
  flows.set_precision(1);
  const struct {
    const char* label;
    workload::Flow flow;
  } rows[] = {{"edge-indirect", workload::Flow::kEdgeIndirect},
              {"edge-direct", workload::Flow::kEdgeDirect},
              {"cloud", workload::Flow::kCloud}};
  for (const auto& row : rows) {
    const auto& s = city.flow_metrics().by_flow(row.flow);
    if (s.total() == 0) continue;
    flows.add_row({std::string(row.label), static_cast<std::int64_t>(s.total()),
                   s.success_rate(), s.response_s.percentile(50.0) * 1e3,
                   s.response_s.p99() * 1e3});
  }
  flows.print(std::cout);

  // Rolling-window SLO plane: trailing-window health per flow, which the
  // cumulative table above cannot show (an early-run incident stops
  // dominating once it leaves the window).
  if (obs::Observability* o = city.observability(); o != nullptr && o->slo().flows() > 0) {
    util::Table slo({"flow", "window_total", "miss_%", "fail_%", "p50_ms", "p99_ms", "stale"},
                    "SLO window (trailing " + std::to_string(static_cast<long>(slo_window_s)) +
                        " s)");
    slo.set_precision(1);
    const double now = city.now();
    for (const auto& row : rows) {
      const auto flow = static_cast<std::uint32_t>(row.flow);
      if (flow >= o->slo().flows()) continue;
      const auto rep = o->slo().report(flow, now);
      if (rep.total == 0 && rep.last_event_s < 0.0) continue;
      slo.add_row({std::string(row.label), static_cast<std::int64_t>(rep.total),
                   100.0 * rep.miss_ratio, 100.0 * rep.fail_ratio, rep.p50_s * 1e3,
                   rep.p99_s * 1e3, std::string(rep.stale ? "yes" : "no")});
    }
    std::printf("\n");
    slo.print(std::cout);
  }

  const auto& energy = city.df_energy();
  std::printf("\nenergy: %.1f kWh IT, PUE %.3f, useful heat %.0f%%\n", energy.it().kwh(),
              energy.pue(), 100.0 * energy.heat_reuse_fraction());
  if (const grid::GridPlane* plane = city.grid_plane()) {
    util::Table gt({"region", "energy_kwh", "cost_eur", "co2_kg", "curtailed_ticks"},
                   "grid economics");
    gt.set_precision(2);
    const auto& accounts = city.grid_accounts();
    for (std::size_t r = 0; r < accounts.size(); ++r) {
      gt.add_row({plane->region_name(r), accounts[r].energy_j / 3.6e6, accounts[r].cost_eur,
                  accounts[r].co2_g / 1e3,
                  static_cast<std::int64_t>(accounts[r].curtailed_ticks)});
    }
    std::printf("\n");
    gt.print(std::cout);
    const std::uint64_t jobs = city.flow_metrics().overall().completed;
    std::printf("grid  : %.2f EUR, %.2f kg CO2 (%g EUR/job, %g gCO2/job), %llu window(s)\n",
                energy.grid_cost_eur(), energy.grid_co2_g() / 1e3,
                jobs > 0 ? energy.grid_cost_eur() / static_cast<double>(jobs) : 0.0,
                jobs > 0 ? energy.grid_co2_g() / static_cast<double>(jobs) : 0.0,
                static_cast<unsigned long long>(grid_windows));
  }
  if (boiler) {
    std::printf("store : %.1f degC mean\n", city.comfort(0).mean_temperature_c(city.now()));
  } else {
    std::printf("comfort: %.2f K mean deviation, %.1f degC mean room\n",
                city.comfort(0).mean_abs_deviation_k(city.now()),
                city.comfort(0).mean_temperature_c(city.now()));
  }
  std::printf("regulator tracking error: %.1f%%\n", 100.0 * city.regulator_relative_error());
  if (report == "json") print_json_report(city, boiler, grid_windows);

  // --- exports --------------------------------------------------------------
  if (!csv.empty()) {
    std::ofstream out(csv);
    if (!out) throw std::runtime_error("cannot write csv: " + csv);
    city.export_series_csv(out);
    std::printf("telemetry series written to %s\n", csv.c_str());
  }
  if (!trace.empty() || !metrics.empty()) {
    // Both exports raised the level above kOff, so the sink exists.
    const obs::Observability* o = city.observability();
    if (!trace.empty()) {
      if (!obs::write_chrome_trace_file(trace, o->trace())) {
        throw std::runtime_error("cannot write trace: " + trace);
      }
      std::printf("trace written to %s (%zu events", trace.c_str(), o->trace().size());
      if (o->trace().dropped() > 0) {
        std::printf(", %llu oldest dropped by the ring",
                    static_cast<unsigned long long>(o->trace().dropped()));
      }
      std::printf(") — open in ui.perfetto.dev\n");
      if (o->trace().dropped() > 0) {
        std::fprintf(stderr,
                     "\ndf3run: WARNING — the trace ring overwrote %llu event(s); journey "
                     "spans are\n"
                     "df3run: incomplete and df3trace will refuse this export without "
                     "--partial.\n"
                     "df3run: Raise trace_capacity= in the scenario (current ring: %zu "
                     "records).\n\n",
                     static_cast<unsigned long long>(o->trace().dropped()),
                     o->trace().capacity());
      }
    }
    if (!metrics.empty()) {
      const bool ok = ends_with(metrics, ".json")
                          ? obs::write_metrics_json_file(metrics, o->registry())
                          : obs::write_metrics_csv_file(metrics, o->registry());
      if (!ok) throw std::runtime_error("cannot write metrics: " + metrics);
      std::printf("metrics written to %s (%zu instruments, %zu snapshots)\n", metrics.c_str(),
                  o->registry().size(), o->registry().snapshots());
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: df3run <scenario.cfg> [--csv <path>] [--trace <path>]\n"
               "              [--metrics <path>] [--report json]\n"
               "       df3run --list-policies\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::string(argv[1]) == "--list-policies") {
    const auto& reg = policy::Registry::global();
    const auto print = [](const char* seam, const std::vector<std::string>& names) {
      std::printf("%s:", seam);
      for (const auto& n : names) std::printf(" %s", n.c_str());
      std::printf("\n");
    };
    print("rung", reg.rung_names());
    print("routing", reg.routing_names());
    print("peer", reg.peer_selector_names());
    print("placement", reg.placement_names());
    return 0;
  }
  // Flags come in flag/value pairs; an unknown flag, a missing value or a
  // value that is itself a flag is a usage error, not a silent no-op.
  Options opts;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag(argv[i]);
    std::string* const slot = flag == "--csv"       ? &opts.csv
                              : flag == "--trace"   ? &opts.trace
                              : flag == "--metrics" ? &opts.metrics
                              : flag == "--report"  ? &opts.report
                                                    : nullptr;
    if (slot == nullptr) {
      std::fprintf(stderr, "df3run: unknown flag '%s'\n", flag.c_str());
      return usage();
    }
    if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      std::fprintf(stderr, "df3run: flag '%s' needs a value\n", flag.c_str());
      return usage();
    }
    *slot = argv[i + 1];
  }
  try {
    return run(argv[1], opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "df3run: %s\n", e.what());
    return 1;
  }
}
