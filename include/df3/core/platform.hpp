#pragma once
/// \file platform.hpp
/// \brief Df3Platform: the end-to-end DF3 city simulation façade.
///
/// Assembles the full stack of the paper's Figure 3/5: buildings whose rooms
/// are heated by DF servers, per-building clusters (edge+DCC gateway +
/// workers), a city network (IoT links, building LANs, fiber uplinks), an
/// optional remote datacenter for vertical offloading, the per-server DVFS
/// heat regulators, and the physics loop coupling power to room temperature
/// to throttling to computing capacity.
///
/// Typical use (see examples/quickstart.cpp):
///
///   core::PlatformConfig cfg;
///   core::Df3Platform city(cfg);
///   city.add_building({.name = "b0", .rooms = 4});
///   city.add_edge_source(0, workload::alarm_detection_factory(), 0.05);
///   city.add_cloud_source(workload::render_batch_factory(), 1.0 / 600.0);
///   city.run(util::days(7.0));
///   city.flow_metrics().by_flow(...);

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "df3/baselines/datacenter.hpp"
#include "df3/util/thread_pool.hpp"
#include "df3/core/cluster.hpp"
#include "df3/core/fleet_kernel.hpp"
#include "df3/core/heat_regulator.hpp"
#include "df3/grid/signal.hpp"
#include "df3/metrics/audit.hpp"
#include "df3/metrics/collectors.hpp"
#include "df3/net/network.hpp"
#include "df3/obs/obs.hpp"
#include "df3/policy/policy.hpp"
#include "df3/thermal/room.hpp"
#include "df3/thermal/thermostat.hpp"
#include "df3/thermal/water_tank.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/workload/generators.hpp"

namespace df3::core {

/// One building to instantiate: `rooms` rooms, each hosting one DF server
/// of the given family, all grouped into one cluster behind a gateway.
struct BuildingConfig {
  std::string name = "building";
  int rooms = 4;
  hw::ServerSpec server = hw::qrad_spec();
  thermal::RoomParams room = {};
  thermal::ComfortProfile comfort = {};
  util::Celsius initial_temperature{19.0};
  /// Proportional gain of the room thermostats (W per K of error).
  double thermostat_gain_w_per_k = 250.0;
  /// Peak solar + occupancy gain (W) reached in high summer; scales with
  /// the seasonal outdoor temperature (zero in deep winter). Keeps
  /// unheated shoulder-season rooms at the 22-24 degC the Figure-4 sites
  /// record in May.
  double solar_gain_peak_w = 180.0;
  net::LinkProfile lan = net::ethernet_lan();     ///< gateway <-> room servers
  net::LinkProfile device_link = net::zigbee();   ///< IoT sensors -> gateway/server
  net::LinkProfile wifi_link = net::wifi();       ///< payload-heavy edge clients
  net::LinkProfile uplink = net::fiber_wan();     ///< gateway -> internet
  /// Use the 2R2C (air + envelope mass) room model instead of 1R1C —
  /// higher fidelity for setback-recovery dynamics at ~10x the integration
  /// cost (explicit substeps).
  bool high_fidelity_rooms = false;
  thermal::Room2R2CParams room_2r2c = {};
  /// When set, the building is a *digital-boiler plant*: instead of
  /// room-heating servers it hosts one `server` (use a boiler spec)
  /// charging this hot-water store against `daily_hot_water_l` of draws.
  /// `rooms` is ignored. Hot water is wanted year-round, so such a
  /// building's compute capacity does not breathe with the seasons.
  std::optional<thermal::WaterTankParams> water_tank = std::nullopt;
  double daily_hot_water_l = 1500.0;
  /// Grid region this building draws from, by name on the installed
  /// GridPlane (DESIGN.md §15). Empty = region 0. Only consulted when a
  /// plane is installed; unknown names throw at install/add time.
  std::string grid_region = {};
};

struct PlatformConfig {
  std::uint64_t seed = 1;
  thermal::ClimateNormals climate = {};
  /// Physics / regulation control period.
  double tick_s = 60.0;
  ClusterConfig cluster = {};
  RegulatorConfig regulator = {};
  /// Attach a vertical-offload datacenter.
  bool with_datacenter = true;
  baselines::DatacenterConfig datacenter = {};
  /// Simulation start time (seconds since Jan 1); use
  /// thermal::start_of_month to start mid-season.
  sim::Time start_time = 0.0;
  /// Worker threads for the tick (DESIGN.md §12): 0 = one per hardware
  /// thread, 1 = the fused serial walk. The effective count is clamped to
  /// the shard count so tiny fleets never park idle workers. Above 1, each
  /// district shard runs its buildings' physics and building-local control
  /// math (thermostat, DVFS regulation, inlet feedback, quiet proof) on the
  /// pool — licensed by the conservative horizon
  /// `now + Network::min_peer_latency()` — and cross-building effects
  /// (ledger reduction, event scheduling, peer pumps) drain serially in
  /// building-major order. A zero lookahead (some up link with zero base
  /// latency) falls back to the serial walk. Bit-for-bit neutral at every
  /// value.
  std::size_t threads = 0;
  /// Target rooms per physics shard (district). Buildings are packed into
  /// shards in insertion order until a shard reaches this many rooms, so
  /// the room -> shard map is stable for a given build order; building-major
  /// sweep order is preserved inside each shard and the serial drain
  /// replays the global order, keeping every digest bit identical for
  /// any value. Smaller shards = more parallel slack, more scheduling
  /// overhead.
  std::size_t shard_rooms = 4096;
  /// Activity gating (DESIGN.md section 8): districts whose regulators are
  /// provably idle-stable skip the per-room control replay, and quiescent
  /// 2R2C slices stop substepping at a bitwise fixed point. Both fast paths
  /// fire only when bit-identical to the stepped path (assert-checked under
  /// DF3_AUDIT), so this is a pure speed knob. No scenario turns it off;
  /// tests do, to get the stepped reference.
  bool activity_gating = true;
  /// Federation peers per cluster: 0 = full mesh (the historical default),
  /// otherwise each cluster peers with its `federation_degree` next ring
  /// neighbors. City-scale benches set a small degree so peer wiring stays
  /// O(n) instead of O(n^2).
  std::size_t federation_degree = 0;
  /// Lifecycle-auditor level (DESIGN.md §9). Defaults to kCounters, or
  /// kFull when built with -DDF3_AUDIT=ON. Observation-only at any level:
  /// the simulation trajectory is bit-for-bit identical with auditing on
  /// or off.
  metrics::AuditLevel audit = metrics::kDefaultAuditLevel;
  /// Observability level + trace ring size (DESIGN.md §10). kOff records
  /// nothing; kCounters feeds and snapshots the metric registry each tick;
  /// kFull additionally records lifecycle/tick/fault trace events. All
  /// levels are observation-only: the simulation trajectory is bit-for-bit
  /// identical whatever the level.
  obs::ObsConfig obs = {};
};

class Df3Platform {
 public:
  explicit Df3Platform(PlatformConfig config);

  /// Add a building with its rooms, servers, cluster and network segment.
  /// Returns the building index. Call before `run`. The building is planned
  /// whole before anything is appended: every field is checked (a bad one
  /// throws std::invalid_argument naming it, as do a node name already in
  /// the network and, with a grid plane installed, an unknown grid_region),
  /// so a config that throws leaves the platform as it was. The platform
  /// keeps what it derives from the config, not the config.
  std::size_t add_building(const BuildingConfig& cfg);

  /// The parts of a city's setup that heap use is accounted to
  /// (`bench_city_scale`, DESIGN.md §8): the network segment; the cluster
  /// with its building record and peer wiring; the workers with their
  /// servers; the fleet's per-room and per-building tick state with the
  /// tick process.
  enum class SetupPart : std::uint8_t { kNetwork, kCluster, kWorkers, kFleet };
  /// Measurement seam: while set, add_building and the setup the first run
  /// does (peer wiring, tick process, shard map) call `probe(part, true)`
  /// before and `probe(part, false)` after each part of their work, on the
  /// calling thread. nullptr, the default, calls nothing. Process-wide.
  using SetupProbe = void (*)(SetupPart part, bool begin);
  static void set_setup_probe(SetupProbe probe) { setup_probe_ = probe; }

  /// Attach an edge workload source to building `b`: Poisson arrivals at
  /// `rate_per_s` from the building's device node (ZigBee sensors) or,
  /// with `via_wifi`, from its Wi-Fi node (phones/tablets with payloads
  /// LPWAN radios cannot carry). Direct requests target worker 0; indirect
  /// go through the gateway.
  void add_edge_source(std::size_t b, workload::RequestFactory factory, double rate_per_s,
                       bool direct = false, bool via_wifi = false);

  /// Attach an edge source with a custom arrival process.
  void add_edge_source(std::size_t b, workload::RequestFactory factory,
                       std::unique_ptr<workload::ArrivalProcess> arrivals, bool direct = false,
                       bool via_wifi = false);

  /// Attach a cloud (Internet/DCC) source at `rate_per_s`, routed per the
  /// platform's CloudRouting policy.
  void add_cloud_source(workload::RequestFactory factory, double rate_per_s);
  void add_cloud_source(workload::RequestFactory factory,
                        std::unique_ptr<workload::ArrivalProcess> arrivals);

  /// Select the cloud-routing policy by registry name (built-ins:
  /// df-first, dc-only, season-aware, heat-aware, least-loaded). Unknown
  /// names throw std::invalid_argument listing the known ones. The default
  /// is df-first.
  void set_cloud_routing(const std::string& name);
  /// Install a custom routing policy instance (tests/experiments).
  void set_routing_policy(std::unique_ptr<policy::RoutingPolicy> p);
  [[nodiscard]] std::string_view routing_policy_name() const { return routing_->name(); }
  /// Routing-policy decisions taken so far (per-policy obs counter).
  [[nodiscard]] std::uint64_t routing_decisions() const { return routing_picks_; }

  /// Stop every attached workload source (pending arrivals are cancelled).
  /// Lets a scenario stop injecting and drain to quiescence, the state in
  /// which the lifecycle auditor's conservation check is exact.
  void stop_sources();

  // --- grid-signal plane (DESIGN.md §15) ---
  /// Install the per-region grid signals (carbon intensity, spot price,
  /// renewable share). The substrate owns the plane next to the weather
  /// model: the tick samples every region once, clusters and the routing
  /// view read the samples lazily, and the energy ledger attributes each
  /// building's joules to its region's signal at spend time. Buildings
  /// added before or after install are both bound (their
  /// BuildingConfig::grid_region name resolves against this plane; a
  /// second install throws). Every earlier building's region resolves
  /// before the plane goes in, so an unknown name throws and leaves no
  /// plane installed. Runs without a plane are bit-for-bit unchanged —
  /// every grid code path is gated on its presence.
  void install_grid(grid::GridPlane plane);
  [[nodiscard]] grid::GridPlane* grid_plane() { return grid_.get(); }
  [[nodiscard]] const grid::GridPlane* grid_plane() const { return grid_.get(); }
  /// Region index building `b` draws from (valid once a plane is installed).
  [[nodiscard]] std::size_t building_region(std::size_t b) const { return bld_region_.at(b); }
  /// Last tick's sample for region `r` (the value policies observed).
  [[nodiscard]] const grid::GridSample& grid_sample(std::size_t r) const {
    return grid_now_.at(r);
  }

  /// Per-region economics, accumulated at spend time: each tick every
  /// building's facility joules (IT + overhead share) accrue to its
  /// region's account at that tick's price and carbon intensity.
  struct RegionAccount {
    double energy_j = 0.0;
    double cost_eur = 0.0;
    double co2_g = 0.0;
    std::uint64_t curtailed_ticks = 0;  ///< ticks the region ended curtailed
  };
  [[nodiscard]] const std::vector<RegionAccount>& grid_accounts() const { return grid_accounts_; }

  /// How often each lazy RoutingView fill actually ran — the observable
  /// side of the pay-for-what-you-ask contract (tests assert a policy that
  /// does not declare a need never triggers the fill).
  struct RoutingFillStats {
    std::uint64_t season = 0;   ///< needs_season() fills
    std::uint64_t cluster = 0;  ///< needs_cluster_info() fills
    std::uint64_t grid = 0;     ///< needs_grid() fills honored (plane present)
  };
  [[nodiscard]] const RoutingFillStats& routing_fill_stats() const { return routing_fills_; }

  // --- deterministic single-request injection (model checker, DESIGN.md
  // §13). Each call submits exactly one request *now*, through the same
  // auditor-fed funnels the Poisson sources use, so an exploration branch
  // can make a submission an explicit choice point instead of a random
  // arrival. The caller owns id uniqueness (the checker tags ids with a
  // high-bit namespace so they can never collide with source ids).
  /// Submit an edge request at building `b` from its device node (or
  /// directly to worker 0 with `direct`), exactly like add_edge_source
  /// traffic. `r.arrival` and `r.flow` are stamped here.
  void inject_edge(std::size_t b, workload::Request r, bool direct = false);
  /// Submit a cloud request targeted at building `b`'s cluster (bypassing
  /// the routing policy — the checker enumerates targets itself), paying
  /// the same internet -> gateway hop as add_cloud_source traffic.
  void inject_cloud_at(std::size_t b, workload::Request r);
  /// Run a pinned composition request on worker `w` of building `b`'s
  /// cluster (the run_pinned path: placement affinity + local_only).
  void inject_pinned(std::size_t b, std::size_t w, workload::Request r);

  /// Run the simulation for `duration` of simulated time.
  void run(util::Seconds duration);

  // --- component access (benches & tests) ---
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const thermal::WeatherModel& weather() const { return weather_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] std::size_t building_count() const { return buildings_.size(); }
  /// Building `b`'s cluster. Completes any deferred federation wiring
  /// first, so the peer set is always consistent with the buildings added
  /// so far (add_building defers the O(n * degree) rebuild).
  [[nodiscard]] Cluster& cluster(std::size_t b);
  [[nodiscard]] baselines::Datacenter* datacenter() { return datacenter_.get(); }
  [[nodiscard]] sim::Time now() const { return sim_.now(); }

  // --- sharding & activity gating (benches & tests) ---
  /// Physics shards (districts) the current fleet packs into; rebuilds the
  /// shard map if buildings were added since the last tick.
  [[nodiscard]] std::size_t shard_count();
  /// District-ticks elapsed (shards x ticks) and how many of them took the
  /// activity-gated fast path. Their ratio is the bench's gated fraction.
  [[nodiscard]] std::uint64_t district_ticks() const { return district_ticks_; }
  [[nodiscard]] std::uint64_t gated_district_ticks() const { return gated_district_ticks_; }
  [[nodiscard]] double gated_district_fraction() const {
    return district_ticks_ == 0
               ? 0.0
               : static_cast<double>(gated_district_ticks_) / static_cast<double>(district_ticks_);
  }
  /// 2R2C substep accounting across the run (full substeps executed vs
  /// provably skipped at a bitwise fixed point by gated districts).
  [[nodiscard]] std::uint64_t substeps_run() const { return substeps_run_; }
  [[nodiscard]] std::uint64_t substeps_skipped() const { return substeps_skipped_; }
  /// Execution-shape accounting (DESIGN.md §12): ticks that ran physics and
  /// lane math on the pool, one lane per shard, and ticks where a zero
  /// conservative lookahead (some up link with zero base latency) forced
  /// the serial walk despite an effective `threads` > 1.
  [[nodiscard]] std::uint64_t lane_parallel_ticks() const { return lane_parallel_ticks_; }
  [[nodiscard]] std::uint64_t lane_fallback_ticks() const { return lane_fallback_ticks_; }

  // --- results ---
  [[nodiscard]] const metrics::FlowMetrics& flow_metrics() const { return flow_metrics_; }
  /// The request-lifecycle conservation auditor. Fed every platform-routed
  /// submission and every terminal completion record; at kFull the physics
  /// tick additionally sweeps the structural invariants of every cluster.
  [[nodiscard]] const metrics::LifecycleAuditor& auditor() const { return auditor_; }
  [[nodiscard]] metrics::LifecycleAuditor& auditor() { return auditor_; }
  /// Run the structural invariant sweep over every cluster right now
  /// (regardless of audit level), report findings into the auditor, and
  /// return them. Cheap enough to call after every test scenario.
  std::vector<std::string> audit_now();
  /// Oracle for the tick's caches: re-derives each one from the uncached
  /// path it replaces and returns one line per mismatch (empty = all
  /// exact). Checks each building's drained core count against its
  /// cluster's usable_cores() (unless a control-plane touch has moved the
  /// cluster since the drain read it), the folded regulator sums bit for
  /// bit against a fresh walk of the regulators, each per-building value
  /// the tick keeps next to its source (room range, tank and rating against
  /// the cluster's workers, grid region against the cluster's),
  /// that no lane snapshot outlived its tick, and, at obs kCounters and
  /// above, every city counter against the sum of the per-cluster counters
  /// and outcomes it mirrors. Observation only; the kFull audit sweep runs
  /// it every tick.
  [[nodiscard]] std::vector<std::string> verify_tick_caches() const;
  [[nodiscard]] metrics::EnergyLedger& df_energy() { return df_energy_; }
  /// The run's telemetry sink (trace ring + metric registry), or nullptr
  /// when the configured obs level is kOff. Export with
  /// obs::write_chrome_trace / obs::write_metrics_csv after the run.
  [[nodiscard]] obs::Observability* observability() { return obs_.get(); }
  [[nodiscard]] const obs::Observability* observability() const { return obs_.get(); }
  /// Mean room temperature across all rooms, per sample tick (Fig 4 input).
  [[nodiscard]] const util::TimeSeries& room_temperature_series() const { return temp_series_; }
  /// City usable cores sampled per tick (seasonality / capacity series, E9).
  [[nodiscard]] const util::TimeSeries& capacity_series() const { return capacity_series_; }
  /// Heat demand (W, city total) sampled per tick.
  [[nodiscard]] const util::TimeSeries& heat_demand_series() const { return demand_series_; }
  /// Outdoor temperature sampled per tick.
  [[nodiscard]] const util::TimeSeries& outdoor_series() const { return outdoor_series_; }
  /// Building `b`'s comfort record: once per tick, the room mean of
  /// |T - target| and of T (a boiler plant samples its store against the
  /// setpoint instead).
  [[nodiscard]] const metrics::ComfortMetrics& comfort(std::size_t b) const {
    return buildings_.at(b)->comfort_metrics;
  }
  /// Aggregate regulator tracking error across all room servers, as of the
  /// last tick: O(1), from the sums the tick's drain folds.
  [[nodiscard]] double regulator_relative_error() const;

  /// Room temperature of one room (tests).
  [[nodiscard]] util::Celsius room_temperature(std::size_t b, std::size_t r) const;

  /// Hot-water store temperature of a boiler building (tests/benches).
  [[nodiscard]] util::Celsius tank_temperature(std::size_t b) const;

  /// Dump the per-tick telemetry series as CSV (time_s, room_mean_c,
  /// usable_cores, heat_demand_w, outdoor_c) — the plotting input for
  /// every time-series figure.
  void export_series_csv(std::ostream& os) const;

 private:
  static SetupProbe setup_probe_;  ///< see set_setup_probe
  /// Struct-of-arrays per-room hot state — the *fleet*. The state each room
  /// owns lives in these contiguous arrays in building-major order (what a
  /// building's rooms share lives once, in Building), so the sweep streams
  /// through memory instead of chasing Building -> Cluster -> Worker
  /// pointer chains. Servers stay owned by their Worker (heap-stable behind
  /// a unique_ptr); the fleet keeps raw pointers as an index table.
  struct FleetState {
    std::vector<hw::DfServer*> server;
    std::vector<double> temp_c;               ///< room (air) temperature
    std::vector<double> env_c;                ///< 2R2C envelope temperature
    std::vector<double> last_demand_w;
    std::vector<double> energy_mark_j;        ///< server energy at last tick
    std::vector<HeatRegulator> regulator;
    // Per-tick scratch: written by the (parallel) physics phase, consumed
    // in building-major order by the serial reduction, which replays the
    // exact accumulation order of the old single-threaded sweep.
    std::vector<double> delta_j;
    std::vector<double> useful_j;
    /// Regulator mirrors, written right after record() (the only writer of
    /// the accumulators they copy): requested_total() and
    /// relative_error() * requested_total(). The drain folds them so
    /// regulator_relative_error() never walks the regulators. Sized with
    /// the shard map, once, rather than grown room by room: the growth
    /// fragments the heap of a small city measurably.
    std::vector<double> reg_requested_j;
    std::vector<double> reg_weighted_err_j;

    [[nodiscard]] std::size_t size() const { return server.size(); }
  };

  /// What a building's rooms (or its tank) share, derived once by
  /// plan_building: every value of the building's config the tick reads.
  struct RoomModel {
    thermal::ComfortProfile comfort;  ///< targets, night hours, heating cutoff
    double solar_peak_w = 0.0;  ///< solar + occupancy gain at high summer (W)
    double gains_w = 0.0;       ///< internal gains (W) of the configured model
    double hold_r = 0.0;        ///< resistance for holding_power (K/W); 1R1C: R
    double kp_w_per_k = 0.0;    ///< thermostat gain
    double rating_w = 0.0;      ///< thermostat and tank-demand clamp (chassis rating)
    double daily_hot_water_l = 0.0;  ///< a boiler plant's draw per day
    double r1_decay = 0.0;      ///< 1R1C exp(-tick/tau)
    thermal::Room2R2CParams r2c;  ///< 2R2C resistances and capacitances
    double r2_max_step = 0.0;   ///< 2R2C stability bound (s)
    double r2_h_last = 0.0;     ///< 2R2C final substep (s)
    std::uint32_t r2_n_full = 0;  ///< 2R2C full substeps per tick
    bool high_fidelity = false;   ///< rooms step the 2R2C model
    bool dual_pipe = false;     ///< heat vents outdoors off-season
  };

  struct TankUnit {
    thermal::WaterTank tank;
    HeatRegulator regulator;
    hw::DfServer* server = nullptr;
    util::Watts last_demand{0.0};
    util::Joules energy_mark{0.0};
    // Physics-phase scratch, consumed by the serial drain.
    double scratch_delta_j = 0.0;
    double scratch_useful_j = 0.0;
    double scratch_draw_lps = 0.0;

    explicit TankUnit(thermal::WaterTank t) : tank(std::move(t)) {}
  };

  /// The record of a building; its name is its cluster's.
  struct Building {
    net::NodeId gateway_node = 0;
    net::NodeId device_node = 0;
    net::NodeId wifi_node = 0;
    std::unique_ptr<Cluster> cluster;
    RoomModel model;
    /// Season of the last stepped control pass: the next physics pass runs
    /// the servers under it (a dual-pipe chassis vents outdoors when off).
    bool last_season = true;
    metrics::ComfortMetrics comfort_metrics;
  };

  /// A building checked and derived whole from its config, ready for
  /// add_building to commit.
  struct BuildingPlan {
    const hw::ServerModel* server = nullptr;  ///< every worker's chassis
    std::size_t servers = 0;                  ///< the boiler, or one per room
    RoomModel model;
    std::optional<thermal::WaterTank> tank;  ///< set for a digital-boiler plant
    double fabric_gbps = 0.0;  ///< the cluster's fabric, from the LAN
    std::size_t region = 0;    ///< grid region, when a plane is installed
  };

  /// One physics shard: a contiguous run of buildings (and so a contiguous
  /// slice of the fleet arrays) ticked as one parallel work item.
  struct Shard {
    std::size_t bld_begin = 0;
    std::size_t bld_end = 0;
  };

  void tick(sim::Time t);
  /// Rebuild every cluster's federation peer set: ring order, full mesh by
  /// default (so peers_[0] is always the next neighbor and the default
  /// "ring" selector reproduces the classic single-peer ring), or the
  /// `federation_degree` nearest ring neighbors when configured. Deferred:
  /// add_building only marks the wiring dirty and ensure_peers_wired()
  /// performs one O(n * degree) rebuild before anything observes peers.
  void wire_peers();
  void ensure_peers_wired();
  /// Rebuild the shard map (and the per-room scratch sized with it) after
  /// buildings changed. Packing is greedy in building order against
  /// config_.shard_rooms, so the room -> shard map is a pure function of
  /// the build sequence and the knob — stable across runs.
  void ensure_shards();
  /// Check every field of `cfg` and derive what the building's tick
  /// reads. Reads config_, the network's node names and the installed grid
  /// plane; changes nothing. Throws std::invalid_argument naming the field.
  [[nodiscard]] BuildingPlan plan_building(const BuildingConfig& cfg) const;
  /// Sets `out` to the name of network node `i` of building `building`,
  /// in the order add_building adds them: 0 the gateway, 1 the device, 2
  /// the Wi-Fi, then one per server (the boiler's, or one per room).
  static const std::string& building_node_name(std::string& out, const std::string& building,
                                               bool boiler, std::size_t i);
  /// Physics phase for one building: server/room/tank integration and
  /// per-building metrics. Touches only building-owned state, this
  /// building's slice of the fleet arrays and the lane's `q_scratch`, so
  /// buildings can run on any thread in any order without changing a
  /// single bit of the result. Returns the 2R2C substep accounting for the
  /// building's rooms.
  fleet::Substeps2R2C physics_building(std::size_t b, sim::Time t, util::Celsius t_out,
                                       util::Celsius seasonal, double hour, double* q_scratch);
  /// Lane stage of the control phase for one building (DESIGN.md §12):
  /// every control decision that touches only building-owned state —
  /// thermostat demand math, regulate(), inlet feedback, last-demand
  /// bookkeeping, the gated-path audit replay (findings buffered, not
  /// reported), the quiet-proof re-derivation, and the speed sync and core
  /// count of control-quiescent clusters. Never schedules events, never
  /// touches the ledger, auditor, city aggregates, or another building, so
  /// lanes can run it on any thread in any order without changing a single
  /// bit.
  void control_building_math(std::size_t b, double t_out_c, std::vector<std::string>& findings);
  /// City-wide sums the drain accumulates, building by building.
  struct TickSums {
    double city_demand_w = 0.0;
    double city_cores = 0.0;
    double temp_sum = 0.0;
    std::size_t room_count = 0;
    double reg_requested_j = 0.0;
    double reg_weighted_err_j = 0.0;
  };
  /// Boundary-drain stage for buildings [b_begin, b_end): everything
  /// cross-cutting the lane split — the order-sensitive ledger/city-
  /// aggregate reduction and the deferred sync_workers() (event re-arming +
  /// queue pumps). Runs serially in building-major order in every execution
  /// mode, which is what keeps the golden digests bit-identical at any lane
  /// count. Reads the flat per-building arrays and the fleet arrays; touches
  /// Building or Cluster only for a tank or a deferred sync.
  void control_reduce(std::size_t b_begin, std::size_t b_end,
                      metrics::EnergyLedger::Totals& energy, TickSums& sums);
  /// Record building `b`'s usable cores (and the control epoch they were
  /// read at) after its speed sync.
  void note_building_cores(std::size_t b);
  [[nodiscard]] Cluster* route_cloud_target();
  /// Put building `b` in region `r` of the installed plane and bind its
  /// cluster to the region's per-tick sample slot.
  void bind_building_grid(std::size_t b, std::size_t r);
  /// Edge intake: take the request's state and pay the device ->
  /// gateway (or -> worker 0, direct) transport.
  void deliver_to_cluster(workload::Request r, std::size_t b, bool direct, bool via_wifi);
  /// Cloud intake to a chosen cluster: take the request's state and pay
  /// the Internet -> gateway transport.
  void deliver_cloud(Cluster& target, workload::Request r);
  /// Terminal for a request lost on its intake transport.
  void drop_in_transport(RequestRef ref, workload::ServedBy where);
  /// Single funnel for terminal completion records: auditor first, then the
  /// flow metrics. Every sink and drop callback the platform installs must
  /// come through here so no terminal can bypass conservation accounting.
  void record_completion(const workload::CompletionRecord& rec);
  /// Open a causal journey at an intake point. Uses the owned sink directly
  /// (not the installed global) so manual injections between run() calls
  /// still start a journey.
  void open_journey(std::uint64_t id);
  /// Set the per-tick gauges from the tick's aggregates, the energy ledger
  /// and the SLO plane, then snapshot. O(1) in rooms and clusters; the
  /// counters are bumped at their event sites, not here. kCounters and
  /// above.
  void feed_metrics(sim::Time t, double room_mean_c, double city_cores, double city_demand_w,
                    double outdoor_c);

  PlatformConfig config_;
  sim::Simulation sim_;
  /// One record per request, from intake to terminal, shared by every
  /// cluster (declared before them, so it outlives them).
  RequestPool requests_;
  thermal::WeatherModel weather_;
  std::unique_ptr<net::Network> network_;
  net::NodeId internet_node_;
  std::unique_ptr<baselines::Datacenter> datacenter_;
  /// Stamp of the current tick's lane snapshots (Cluster::arm_lane_snapshot);
  /// advanced after the boundary drain, which expires them all at once.
  /// Declared before buildings_: every cluster holds its address.
  std::uint64_t lane_tick_ = 1;
  std::vector<std::unique_ptr<Building>> buildings_;
  std::vector<std::unique_ptr<workload::WorkloadSource>> sources_;
  std::unique_ptr<sim::PeriodicProcess> physics_;
  FleetState fleet_;
  /// Room range of every building, CSR style: building b's rooms are
  /// [bld_rooms_[b], bld_rooms_[b + 1]) in the fleet arrays. Like every
  /// bld_* array it is indexed by building, so the tick reads it without a
  /// load through Building.
  std::vector<std::size_t> bld_rooms_{0};
  [[nodiscard]] std::size_t room_begin(std::size_t b) const { return bld_rooms_[b]; }
  [[nodiscard]] std::size_t room_end(std::size_t b) const { return bld_rooms_[b + 1]; }
  /// A boiler building's hot-water store, owned out of line; nullptr for a
  /// building with rooms. The tick reads the pointer as the tank flag.
  std::vector<std::unique_ptr<TankUnit>> bld_tank_;
  /// Per-building scratch filled by the physics phase (comfort target and
  /// heating-season flag for the tick), consumed by the control phase.
  std::vector<double> bld_target_c_;
  std::vector<std::uint8_t> bld_season_;
  /// Last-tick heat demand per building (W) — the signal heat-aware
  /// routing reads. Written by the control phase, building-major.
  std::vector<double> bld_demand_w_;
  /// Usable cores per building as the drain summed them, and the cluster
  /// control epoch they were read at. Written by the lane right after its
  /// in-lane sync_workers(), or by the drain after a deferred one.
  std::vector<int> bld_cores_;
  std::vector<std::uint64_t> bld_cores_epoch_;
  /// Regulator sums folded by the last drain (see FleetState mirrors).
  double reg_requested_j_ = 0.0;
  double reg_weighted_err_j_ = 0.0;
  /// Shard (district) map over the fleet; rebuilt lazily after
  /// add_building. The parallel tick fans out one work item per shard.
  std::vector<Shard> shards_;
  bool shards_dirty_ = true;
  bool peers_dirty_ = false;
  /// Per-lane net heat input (W) of one building's rooms, staged by the
  /// scalar physics pass and consumed by the vector room-update kernels
  /// (fleet_kernel.hpp): lane s owns [s * stride, (s + 1) * stride), the
  /// stride being the largest building's room count.
  std::vector<double> lane_q_total_w_;
  std::size_t lane_q_stride_ = 0;
  /// Activity gating state. A building is *quiet* when its last control
  /// sweep left every regulator provably idle-stable (regulate() would be
  /// a bitwise no-op); the epoch pins the cluster state that proof was
  /// made against. bld_gated_ is per-tick scratch: physics decides, the
  /// control phase replays the decision.
  std::vector<std::uint8_t> bld_quiet_;
  std::vector<std::uint64_t> bld_quiet_epoch_;
  std::vector<std::uint8_t> bld_gated_;
  /// Per-tick scratch: 1 = the building's cluster was not control-quiescent
  /// during the lane stage, so its sync_workers() (event re-arms + pumps)
  /// runs in the serial boundary drain instead.
  std::vector<std::uint8_t> bld_sync_deferred_;
  /// Per-shard substep accounting scratch (parallel-written by shard, then
  /// reduced serially) and gating/substep run totals.
  std::vector<std::uint64_t> shard_substeps_run_;
  std::vector<std::uint64_t> shard_substeps_skipped_;
  std::uint64_t district_ticks_ = 0;
  std::uint64_t gated_district_ticks_ = 0;
  std::uint64_t substeps_run_ = 0;
  std::uint64_t substeps_skipped_ = 0;
  std::size_t tick_gated_districts_ = 0;
  /// Per-lane host-clock span scratch + interned lane obs track names, and
  /// the per-lane gated-replay finding buffers (appended by lanes under
  /// kFull audit, reported serially after the drain in lane order — which
  /// is building order, since lanes cover contiguous ascending ranges).
  std::vector<double> lane_span_begin_s_;
  std::vector<double> lane_span_end_s_;
  std::vector<std::string> lane_track_name_;
  std::vector<std::vector<std::string>> lane_findings_;
  std::uint64_t lane_parallel_ticks_ = 0;
  std::uint64_t lane_fallback_ticks_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created by the first parallel tick
  /// Cloud-routing decision policy; df-first unless overridden.
  std::unique_ptr<policy::RoutingPolicy> routing_;
  /// Per-pick scratch for routing policies that need cluster info.
  std::vector<policy::ClusterInfo> routing_scratch_;
  std::uint64_t routing_picks_ = 0;
  RoutingFillStats routing_fills_;
  std::uint64_t source_counter_ = 0;
  /// Grid-signal plane (DESIGN.md §15); nullptr = no grid, every grid code
  /// path disabled. grid_now_ holds the per-region sample of the current
  /// tick; sized once at install and never resized, so clusters can hold
  /// stable pointers into it. bld_region_ maps building -> region.
  std::unique_ptr<grid::GridPlane> grid_;
  std::vector<grid::GridSample> grid_now_;
  std::vector<std::size_t> bld_region_;
  /// (building, grid_region) for each building added with a region name
  /// while no plane is installed; install_grid resolves and drops them.
  std::vector<std::pair<std::size_t, std::string>> unbound_regions_;
  std::vector<RegionAccount> grid_accounts_;

  metrics::FlowMetrics flow_metrics_;
  metrics::LifecycleAuditor auditor_;
  metrics::EnergyLedger df_energy_;
  /// Telemetry sink; created in the constructor when config_.obs.level is
  /// above kOff (and the hooks are compiled in), installed as the process
  /// sink for the duration of each run() call.
  std::unique_ptr<obs::Observability> obs_;
  /// Registry handles for the metric feed. Gauges are set once per tick;
  /// counters are bumped where the event happens — by the clusters through
  /// `city`, by route_cloud_target and record_completion here — so the
  /// tick feeds no counter.
  struct ObsFeed {
    obs::MetricId room_mean_c, usable_cores, heat_demand_w, outdoor_c, regulator_err;
    obs::MetricId gated_districts;  ///< fleet/gated_districts gauge (per tick)
    obs::MetricId energy_it_j, energy_useful_j, energy_waste_j, energy_overhead_j, pue,
        heat_reuse;
    obs::MetricId completed, deadline_missed, rejected, dropped;
    obs::MetricId response_s;
    // Per-policy decision counters (DESIGN.md §11): routing here, the
    // ladder and pick counters in `city` (bound to every cluster).
    obs::MetricId routing_picks;
    CityCounters city;
    // Per-flow SLO gauges (DESIGN.md §14): rolling-window deadline-miss
    // ratio and response p99, one pair per workload::Flow.
    std::vector<obs::MetricId> slo_miss_ratio, slo_p99_s;
    // Per-region grid gauges (DESIGN.md §15), registered at install_grid.
    std::vector<obs::MetricId> grid_carbon, grid_price, grid_curtailed;
  } feed_;
  /// Bump one of this platform's own registry counters. Uses the owned
  /// sink, not the installed one: injections between run() calls happen
  /// with no Install scope.
  void count_obs(obs::MetricId id) {
    if (obs_) obs_->registry().at_counter(id).add();
  }
  util::TimeSeries temp_series_;
  util::TimeSeries capacity_series_;
  util::TimeSeries demand_series_;
  util::TimeSeries outdoor_series_;
};

}  // namespace df3::core
