#include "df3/core/platform.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "df3/policy/registry.hpp"
#include "df3/thermal/calendar.hpp"

namespace df3::core {

namespace {
/// Network/PSU overhead attributed to DF servers, as a fraction of IT
/// energy. Calibrated so an always-busy DF fleet reports PUE ~1.026, the
/// figure CloudandHeat claims and the paper cites (section II-A).
constexpr double kDfOverheadFraction = 0.026;
}  // namespace

Df3Platform::Df3Platform(PlatformConfig config)
    : config_(std::move(config)),
      weather_(config_.climate, config_.seed ^ 0x5ca1ab1eULL),
      auditor_(config_.audit) {
  if (!(config_.tick_s > 0.0)) throw std::invalid_argument("Df3Platform: tick must be positive");
  // 0 = one thread per hardware thread, resolved once: hardware_concurrency()
  // is a sysconf query, far too slow for the tick path.
  if (config_.threads == 0) {
    config_.threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (config_.obs.level != obs::TraceLevel::kOff) {
    obs_ = std::make_unique<obs::Observability>(config_.obs);
    // Register every instrument up front: the per-tick feed is pure
    // handle-indexed stores, no name hashing on the hot path.
    auto& reg = obs_->registry();
    feed_.room_mean_c = reg.gauge("city/room_mean_c");
    feed_.usable_cores = reg.gauge("city/usable_cores");
    feed_.heat_demand_w = reg.gauge("city/heat_demand_w");
    feed_.outdoor_c = reg.gauge("city/outdoor_c");
    feed_.gated_districts = reg.gauge("fleet/gated_districts");
    feed_.regulator_err = reg.gauge("regulator/rel_error");
    feed_.energy_it_j = reg.gauge("energy/it_j");
    feed_.energy_useful_j = reg.gauge("energy/useful_heat_j");
    feed_.energy_waste_j = reg.gauge("energy/waste_heat_j");
    feed_.energy_overhead_j = reg.gauge("energy/overhead_j");
    feed_.pue = reg.gauge("energy/pue");
    feed_.heat_reuse = reg.gauge("energy/heat_reuse_fraction");
    feed_.city.registry = &reg;
    feed_.city.preemptions = reg.counter("ladder/preemptions");
    feed_.city.offload_horizontal = reg.counter("ladder/offload_horizontal");
    feed_.city.offload_vertical = reg.counter("ladder/offload_vertical");
    feed_.city.edge_delays = reg.counter("ladder/edge_delays");
    feed_.completed = reg.counter("requests/completed");
    feed_.deadline_missed = reg.counter("requests/deadline_missed");
    feed_.rejected = reg.counter("requests/rejected");
    feed_.dropped = reg.counter("requests/dropped");
    feed_.response_s = reg.histogram("requests/response_s");
    // Decision-plane counters: one per seam plus one per configured ladder
    // rung (duplicate rung names intern to the same instrument and sum).
    feed_.routing_picks = reg.counter("policy/routing_picks");
    feed_.city.placement_picks = reg.counter("policy/placement_picks");
    feed_.city.peer_picks = reg.counter("policy/peer_picks");
    for (const std::string& rung : config_.cluster.edge_peak_ladder) {
      feed_.city.rung.push_back(reg.counter("policy/rung/" + rung));
    }
    for (int f = 0; f < 3; ++f) {
      const std::string flow = workload::flow_name(static_cast<workload::Flow>(f));
      feed_.slo_miss_ratio.push_back(reg.gauge("slo/" + flow + "/miss_ratio"));
      feed_.slo_p99_s.push_back(reg.gauge("slo/" + flow + "/p99_s"));
    }
  }
  routing_ = policy::Registry::global().make_routing("df-first");
  network_ = std::make_unique<net::Network>(sim_, "city-net");
  internet_node_ = network_->add_node("internet");
  if (config_.with_datacenter) {
    datacenter_ = std::make_unique<baselines::Datacenter>(sim_, config_.datacenter);
  }
  if (config_.start_time > 0.0) sim_.run_until(config_.start_time);
}

Df3Platform::SetupProbe Df3Platform::setup_probe_ = nullptr;

namespace {
/// Brackets one part of the setup work for the heap probe.
class SetupScope {
 public:
  SetupScope(Df3Platform::SetupProbe probe, Df3Platform::SetupPart part)
      : probe_(probe), part_(part) {
    if (probe_ != nullptr) probe_(part_, true);
  }
  ~SetupScope() {
    if (probe_ != nullptr) probe_(part_, false);
  }
  SetupScope(const SetupScope&) = delete;
  SetupScope& operator=(const SetupScope&) = delete;

 private:
  Df3Platform::SetupProbe probe_;
  Df3Platform::SetupPart part_;
};
}  // namespace

std::size_t Df3Platform::add_building(const BuildingConfig& cfg) {
  // One part is always open, from before the plan to after the last local
  // is destroyed, so every byte the call allocates lands in some part.
  std::optional<SetupScope> scope(std::in_place, setup_probe_, SetupPart::kCluster);
  BuildingPlan plan = plan_building(cfg);
  // The commit: it only appends, and nothing below throws but an
  // allocation.
  auto b = std::make_unique<Building>();
  b->model = plan.model;

  scope.emplace(setup_probe_, SetupPart::kNetwork);
  // Node ids are consecutive, in building_node_name's order.
  const auto first = static_cast<net::NodeId>(network_->node_count());
  std::string name;
  for (std::size_t i = 0; i < 3 + plan.servers; ++i) {
    network_->add_node(building_node_name(name, cfg.name, plan.tank.has_value(), i));
  }
  b->gateway_node = first;
  b->device_node = first + 1;
  b->wifi_node = first + 2;
  const net::NodeId first_server_node = first + 3;
  network_->add_link(b->device_node, b->gateway_node, cfg.device_link);
  network_->add_link(b->wifi_node, b->gateway_node, cfg.wifi_link);
  network_->add_link(b->gateway_node, internet_node_, cfg.uplink);
  for (std::size_t i = 0; i < plan.servers; ++i) {
    const net::NodeId node = first_server_node + static_cast<net::NodeId>(i);
    network_->add_link(b->gateway_node, node, cfg.lan);
    if (i == 0 && !plan.tank) {
      network_->add_link(b->device_node, node, cfg.device_link);
      network_->add_link(b->wifi_node, node, cfg.wifi_link);
    }
  }

  scope.emplace(setup_probe_, SetupPart::kCluster);
  b->cluster = std::make_unique<Cluster>(
      sim_, cfg.name, config_.cluster, *network_, b->gateway_node,
      [this](workload::CompletionRecord rec) { record_completion(rec); }, &requests_);
  Cluster& cluster = *b->cluster;
  cluster.set_fabric_gbps(plan.fabric_gbps);
  if (datacenter_) cluster.set_datacenter(datacenter_.get());
  if (obs_) cluster.bind_city_counters(&feed_.city);

  scope.emplace(setup_probe_, SetupPart::kWorkers);
  // Servers start cold-set: inlet = initial room temperature (the
  // boiler's, the tank setpoint).
  const util::Celsius inlet = plan.tank ? cfg.water_tank->setpoint : cfg.initial_temperature;
  cluster.reserve_workers(plan.servers);
  for (std::size_t i = 0; i < plan.servers; ++i) {
    const std::size_t widx =
        cluster.add_worker(*plan.server, first_server_node + static_cast<net::NodeId>(i));
    cluster.worker(widx).server().set_inlet_temperature(inlet);
  }

  scope.emplace(setup_probe_, SetupPart::kFleet);
  std::unique_ptr<TankUnit> tank;
  if (plan.tank) {
    // Digital-boiler plant: one chassis charging the hot-water store.
    tank = std::make_unique<TankUnit>(std::move(*plan.tank));
    tank->server = &cluster.worker(0).server();
  } else {
    for (std::size_t i = 0; i < plan.servers; ++i) {
      fleet_.server.push_back(&cluster.worker(i).server());
      fleet_.temp_c.push_back(inlet.value());
      fleet_.env_c.push_back(inlet.value());
      fleet_.last_demand_w.push_back(0.0);
      fleet_.energy_mark_j.push_back(0.0);
      fleet_.regulator.emplace_back();
      fleet_.delta_j.push_back(0.0);
      fleet_.useful_j.push_back(0.0);
    }
  }
  bld_rooms_.push_back(fleet_.size());
  bld_tank_.push_back(std::move(tank));
  bld_target_c_.push_back(0.0);
  bld_season_.push_back(0);
  bld_demand_w_.push_back(0.0);
  bld_cores_.push_back(cluster.usable_cores());
  bld_cores_epoch_.push_back(cluster.control_epoch());
  bld_region_.push_back(0);
  buildings_.push_back(std::move(b));
  const std::size_t index = buildings_.size() - 1;
  if (grid_) {
    bind_building_grid(index, plan.region);
  } else if (!cfg.grid_region.empty()) {
    unbound_regions_.emplace_back(index, cfg.grid_region);
  }
  peers_dirty_ = true;
  shards_dirty_ = true;
  return index;
}

void Df3Platform::wire_peers() {
  const std::size_t n = buildings_.size();
  if (n == 0) return;
  const std::size_t degree = config_.federation_degree == 0
                                 ? n - 1
                                 : std::min(config_.federation_degree, n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    Cluster& c = *buildings_[i]->cluster;
    c.clear_peers();
    for (std::size_t k = 1; k <= degree; ++k) {
      c.add_peer(buildings_[(i + k) % n]->cluster.get());
    }
  }
}

void Df3Platform::ensure_peers_wired() {
  if (!peers_dirty_) return;
  const SetupScope scope(setup_probe_, SetupPart::kCluster);
  wire_peers();
  peers_dirty_ = false;
}

Cluster& Df3Platform::cluster(std::size_t b) {
  ensure_peers_wired();
  return *buildings_.at(b)->cluster;
}

void Df3Platform::install_grid(grid::GridPlane plane) {
  if (grid_) throw std::logic_error("install_grid: a grid plane is already installed");
  if (plane.region_count() == 0) {
    throw std::invalid_argument("install_grid: plane has no regions");
  }
  // Every region resolves before anything changes, so an unknown name
  // leaves no plane installed.
  std::vector<std::size_t> regions(buildings_.size(), 0);
  for (const auto& [b, name] : unbound_regions_) regions[b] = plane.region_index(name);
  grid_ = std::make_unique<grid::GridPlane>(std::move(plane));
  unbound_regions_ = {};
  const std::size_t nr = grid_->region_count();
  // Sized once; clusters hold stable pointers into grid_now_ from here on.
  grid_now_.resize(nr);
  grid_accounts_.assign(nr, RegionAccount{});
  for (std::size_t r = 0; r < nr; ++r) grid_now_[r] = grid_->signal(r).sample(sim_.now());
  for (std::size_t b = 0; b < buildings_.size(); ++b) bind_building_grid(b, regions[b]);
  if (obs_) {
    auto& reg = obs_->registry();
    for (std::size_t r = 0; r < nr; ++r) {
      const std::string base = "grid/" + std::string(grid_->region_name(r));
      feed_.grid_carbon.push_back(reg.gauge(base + "/carbon_gco2_per_kwh"));
      feed_.grid_price.push_back(reg.gauge(base + "/price_eur_per_kwh"));
      feed_.grid_curtailed.push_back(reg.gauge(base + "/curtailed"));
    }
  }
}

void Df3Platform::bind_building_grid(std::size_t b, std::size_t r) {
  bld_region_[b] = r;
  buildings_[b]->cluster->bind_grid(grid_.get(), &grid_now_[r], r);
}

void Df3Platform::ensure_shards() {
  if (!shards_dirty_) return;
  const SetupScope scope(setup_probe_, SetupPart::kFleet);
  const std::size_t nb = buildings_.size();
  const std::size_t target = std::max<std::size_t>(1, config_.shard_rooms);
  shards_.clear();
  std::size_t begin = 0;
  std::size_t weight = 0;
  lane_q_stride_ = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t rooms = room_end(b) - room_begin(b);
    lane_q_stride_ = std::max(lane_q_stride_, rooms);
    // Boiler plants have no fleet rooms but still cost one building's
    // control work; weight them as one room so they pack, not pile up.
    weight += std::max<std::size_t>(1, rooms);
    if (weight >= target) {
      shards_.push_back({begin, b + 1});
      begin = b + 1;
      weight = 0;
    }
  }
  if (begin < nb) shards_.push_back({begin, nb});
  fleet_.reg_requested_j.assign(fleet_.size(), 0.0);
  fleet_.reg_weighted_err_j.assign(fleet_.size(), 0.0);
  bld_gated_.assign(nb, 0);
  // Quiet flags survive a rebuild only if the building set is unchanged
  // (rebuilds mid-run happen only when buildings were added, which resets
  // the proof anyway).
  if (bld_quiet_.size() != nb) {
    bld_quiet_.assign(nb, 0);
    bld_quiet_epoch_.assign(nb, 0);
  }
  const std::size_t ns = shards_.size();
  lane_q_total_w_.assign(ns * lane_q_stride_, 0.0);
  shard_substeps_run_.assign(ns, 0);
  shard_substeps_skipped_.assign(ns, 0);
  // Control-lane scratch: one lane per shard (DESIGN.md §12).
  bld_sync_deferred_.assign(nb, 0);
  lane_span_begin_s_.assign(ns, 0.0);
  lane_span_end_s_.assign(ns, 0.0);
  lane_findings_.assign(ns, {});
  lane_track_name_.clear();
  lane_track_name_.reserve(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    lane_track_name_.push_back("lane-" + std::to_string(s));
  }
  shards_dirty_ = false;
}

std::size_t Df3Platform::shard_count() {
  ensure_shards();
  return shards_.size();
}

void Df3Platform::add_edge_source(std::size_t b, workload::RequestFactory factory,
                                  double rate_per_s, bool direct, bool via_wifi) {
  add_edge_source(b, std::move(factory), std::make_unique<workload::PoissonArrivals>(rate_per_s),
                  direct, via_wifi);
}

void Df3Platform::add_edge_source(std::size_t b, workload::RequestFactory factory,
                                  std::unique_ptr<workload::ArrivalProcess> arrivals,
                                  bool direct, bool via_wifi) {
  if (b >= buildings_.size()) throw std::out_of_range("add_edge_source: bad building");
  const auto name = "edge-src-" + std::to_string(source_counter_++);
  sources_.push_back(std::make_unique<workload::WorkloadSource>(
      sim_, name, config_.seed, std::move(arrivals), std::move(factory),
      [this, b, direct, via_wifi](workload::Request r) {
        r.flow = direct ? workload::Flow::kEdgeDirect : workload::Flow::kEdgeIndirect;
        deliver_to_cluster(std::move(r), b, direct, via_wifi);
      }));
  sources_.back()->start();
}

void Df3Platform::add_cloud_source(workload::RequestFactory factory, double rate_per_s) {
  add_cloud_source(std::move(factory), std::make_unique<workload::PoissonArrivals>(rate_per_s));
}

void Df3Platform::add_cloud_source(workload::RequestFactory factory,
                                   std::unique_ptr<workload::ArrivalProcess> arrivals) {
  const auto name = "cloud-src-" + std::to_string(source_counter_++);
  sources_.push_back(std::make_unique<workload::WorkloadSource>(
      sim_, name, config_.seed, std::move(arrivals), std::move(factory),
      [this](workload::Request r) {
        r.flow = workload::Flow::kCloud;
        auditor_.on_submitted(r);
        open_journey(r.id);
        Cluster* target = route_cloud_target();
        if (target == nullptr) {
          if (!datacenter_) {
            record_completion({.request = std::move(r), .outcome = workload::Outcome::kRejected,
                               .completed_at = sim_.now(),
                               .served_by = workload::ServedBy::kNowhere});
            return;
          }
          datacenter_->submit(std::move(r), internet_node_,
                              [this](workload::CompletionRecord rec) {
                                record_completion(rec);
                              });
          return;
        }
        deliver_cloud(*target, std::move(r));
      }));
  sources_.back()->start();
}

void Df3Platform::stop_sources() {
  for (auto& s : sources_) s->stop();
}

void Df3Platform::inject_edge(std::size_t b, workload::Request r, bool direct) {
  if (b >= buildings_.size()) throw std::out_of_range("inject_edge: bad building");
  ensure_peers_wired();
  r.arrival = sim_.now();
  r.flow = direct ? workload::Flow::kEdgeDirect : workload::Flow::kEdgeIndirect;
  deliver_to_cluster(std::move(r), b, direct, /*via_wifi=*/false);
}

void Df3Platform::inject_cloud_at(std::size_t b, workload::Request r) {
  if (b >= buildings_.size()) throw std::out_of_range("inject_cloud_at: bad building");
  ensure_peers_wired();
  r.arrival = sim_.now();
  r.flow = workload::Flow::kCloud;
  auditor_.on_submitted(r);
  open_journey(r.id);
  // Same Internet -> gateway transport (and partition drop path) as the
  // routed cloud-source arrivals; only the target choice differs.
  deliver_cloud(*buildings_[b]->cluster, std::move(r));
}

void Df3Platform::inject_pinned(std::size_t b, std::size_t w, workload::Request r) {
  if (b >= buildings_.size()) throw std::out_of_range("inject_pinned: bad building");
  ensure_peers_wired();
  r.arrival = sim_.now();
  r.flow = workload::Flow::kEdgeDirect;
  auditor_.on_submitted(r);
  open_journey(r.id);
  buildings_[b]->cluster->run_pinned(
      std::move(r), w, [this](workload::CompletionRecord rec) { record_completion(rec); });
}

void Df3Platform::set_cloud_routing(const std::string& name) {
  routing_ = policy::Registry::global().make_routing(name);
}

void Df3Platform::set_routing_policy(std::unique_ptr<policy::RoutingPolicy> p) {
  if (!p) throw std::invalid_argument("set_routing_policy: null policy");
  routing_ = std::move(p);
}

Cluster* Df3Platform::route_cloud_target() {
  if (buildings_.empty()) return nullptr;
  policy::RoutingView view;
  view.cluster_count = buildings_.size();
  view.has_datacenter = datacenter_ != nullptr;
  // The view is filled lazily per the policy's declared needs so that the
  // cheap policies keep the per-arrival cost of the old enum dispatch.
  if (routing_->needs_season()) {
    ++routing_fills_.season;
    view.seasonal_outdoor_c = weather_.seasonal_component(sim_.now()).value();
    view.heating_cutoff_c = buildings_.front()->model.comfort.heating_cutoff_outdoor.value();
  }
  const bool want_info = routing_->needs_cluster_info();
  const bool want_grid = routing_->needs_grid();
  if (want_info || want_grid) {
    // Refill from scratch (zeroed) so a policy can never observe a stale
    // field it did not ask for on this pick.
    routing_scratch_.assign(buildings_.size(), policy::ClusterInfo{});
    if (want_info) {
      ++routing_fills_.cluster;
      for (std::size_t b = 0; b < buildings_.size(); ++b) {
        const Cluster& c = *buildings_[b]->cluster;
        const double cores = static_cast<double>(std::max(1, c.usable_cores()));
        routing_scratch_[b].backlog_gc_per_core = c.queued_gigacycles() / cores;
        routing_scratch_[b].heat_demand_w_per_core = bld_demand_w_[b] / cores;
      }
    }
    if (want_grid && grid_) {
      ++routing_fills_.grid;
      view.grid_valid = true;
      for (std::size_t b = 0; b < buildings_.size(); ++b) {
        const grid::GridSample& s = grid_now_[bld_region_[b]];
        routing_scratch_[b].carbon_gco2_per_kwh = s.carbon_gco2_per_kwh;
        routing_scratch_[b].price_eur_per_kwh = s.price_eur_per_kwh;
        routing_scratch_[b].renewable_fraction = s.renewable_fraction;
      }
    }
    view.clusters = routing_scratch_;
  }
  const std::size_t pick = routing_->pick(view);
  ++routing_picks_;
  count_obs(feed_.routing_picks);
  if (pick == policy::kRouteToDatacenter) return nullptr;
  if (pick >= buildings_.size()) {
    throw std::out_of_range("routing policy '" + std::string(routing_->name()) +
                            "' picked a cluster out of range");
  }
  return buildings_[pick]->cluster.get();
}

void Df3Platform::deliver_to_cluster(workload::Request r, std::size_t b, bool direct,
                                     bool via_wifi) {
  Building& building = *buildings_[b];
  auditor_.on_submitted(r);
  open_journey(r.id);
  const net::NodeId origin = via_wifi ? building.wifi_node : building.device_node;
  // Const worker access: reading the entry node must not bump the cluster's
  // control epoch (that would un-gate the district on every direct arrival).
  const net::NodeId entry = direct ? std::as_const(*building.cluster).worker(0).node()
                                   : building.cluster->gateway_node();
  const RequestRef ref = requests_.acquire(std::move(r));
  network_->send(
      net::Message{origin, entry, ref->request.input_size, ref->request.id,
                   obs::HopKind::kTransport},
      [this, ref, cluster = building.cluster.get(), origin, direct] {
        if (direct) {
          cluster->submit_direct(ref, origin, 0);
        } else {
          cluster->submit(ref, origin);
        }
      },
      [this, ref] { drop_in_transport(ref, workload::ServedBy::kLanPartition); });
}

void Df3Platform::deliver_cloud(Cluster& target, workload::Request r) {
  const RequestRef ref = requests_.acquire(std::move(r));
  network_->send(
      net::Message{internet_node_, target.gateway_node(), ref->request.input_size,
                   ref->request.id, obs::HopKind::kTransport},
      [this, ref, cluster = &target] { cluster->submit(ref, internet_node_); },
      [this, ref] { drop_in_transport(ref, workload::ServedBy::kUplinkPartition); });
}

void Df3Platform::drop_in_transport(RequestRef ref, workload::ServedBy where) {
  const workload::CompletionRecord rec{.request = std::move(ref->request),
                                       .outcome = workload::Outcome::kDropped,
                                       .completed_at = sim_.now(), .served_by = where};
  requests_.release(ref);
  record_completion(rec);
}

namespace {
constexpr obs::Phase terminal_phase(workload::Outcome o) {
  switch (o) {
    case workload::Outcome::kCompleted: return obs::Phase::kCompleted;
    case workload::Outcome::kDeadlineMissed: return obs::Phase::kDeadlineMissed;
    case workload::Outcome::kRejected: return obs::Phase::kRejected;
    case workload::Outcome::kDropped: return obs::Phase::kDropped;
  }
  return obs::Phase::kCompleted;
}

constexpr obs::SloOutcome slo_outcome(workload::Outcome o) {
  switch (o) {
    case workload::Outcome::kCompleted: return obs::SloOutcome::kOk;
    case workload::Outcome::kDeadlineMissed: return obs::SloOutcome::kMissed;
    case workload::Outcome::kRejected:
    case workload::Outcome::kDropped: return obs::SloOutcome::kFailed;
  }
  return obs::SloOutcome::kFailed;
}

/// Flow carried on journey arrival/terminal links: 0 = unknown, else flow+1.
constexpr std::uint32_t journey_flow_attr(workload::Flow f) {
  return static_cast<std::uint32_t>(f) + 1;
}
}  // namespace

void Df3Platform::open_journey(std::uint64_t id) {
  // The owned sink, not the installed global: manual injections happen
  // between run() calls, when no Install scope is active.
  if (obs_) obs_->journey_open(id);
}

void Df3Platform::record_completion(const workload::CompletionRecord& rec) {
  auditor_.on_terminal(rec);
  flow_metrics_.record(rec);
  switch (rec.outcome) {
    case workload::Outcome::kCompleted: count_obs(feed_.completed); break;
    case workload::Outcome::kDeadlineMissed: count_obs(feed_.deadline_missed); break;
    case workload::Outcome::kRejected: count_obs(feed_.rejected); break;
    case workload::Outcome::kDropped: count_obs(feed_.dropped); break;
  }
  DF3_OBS_IF(o) {
    if (rec.outcome == workload::Outcome::kCompleted) {
      o->registry().at_histogram(feed_.response_s).add(rec.response_time());
    }
    // Per-flow SLO plane: every terminal feeds the rolling window, so the
    // deadline-miss ratio and response quantiles are queryable live.
    o->slo().record(static_cast<std::uint32_t>(rec.request.flow), slo_outcome(rec.outcome),
                    rec.response_time(), rec.completed_at);
    if (o->tracing()) {
      o->journey_terminal(this, "lifecycle", terminal_phase(rec.outcome), rec.completed_at,
                          rec.request.id, journey_flow_attr(rec.request.flow));
    }
  }
}

std::vector<std::string> Df3Platform::audit_now() {
  std::vector<std::string> findings;
  for (const auto& b : buildings_) b->cluster->audit(findings);
  for (const auto& f : findings) auditor_.report(f);
  return findings;
}

fleet::Substeps2R2C Df3Platform::physics_building(std::size_t b, sim::Time t,
                                                  util::Celsius t_out, util::Celsius seasonal,
                                                  double hour, double* q_scratch) {
  const double dt = config_.tick_s;
  const util::Seconds dts{dt};
  Building& bd = *buildings_[b];
  const RoomModel& m = bd.model;
  const bool heating_season = seasonal < m.comfort.heating_cutoff_outdoor;
  const util::Celsius target = m.comfort.target_at_hour(hour);
  bld_season_[b] = heating_season ? 1 : 0;
  bld_target_c_[b] = target.value();
  // Activity-gate decision for this tick: the last ungated control sweep
  // proved every regulator idle-stable (regulate() is a bitwise no-op) and
  // no exogenous control-plane touch has invalidated the proof since. The
  // control phase replays the decision from bld_gated_.
  const bool gated = config_.activity_gating && !heating_season && bld_quiet_[b] != 0 &&
                     bd.cluster->control_epoch() == bld_quiet_epoch_[b];
  bld_gated_[b] = gated ? 1 : 0;
  // Solar/occupancy gains ramp with the season (zero in deep winter);
  // identical for every room of the building.
  const double solar_frac = std::clamp((seasonal.value() - 5.0) / 12.0, 0.0, 1.0);
  const double solar_w = m.solar_peak_w * solar_frac;
  const std::size_t begin = room_begin(b);
  const std::size_t end = room_end(b);
  const bool last_season = bd.last_season;
  const bool indoors = !m.dual_pipe || last_season;
  fleet::Substeps2R2C sub;

  // Pass A (scalar, per room): integrate the interval that just elapsed at
  // the server's current operating point (piecewise-constant at tick
  // scale), stage the room's net heat input for the vector kernel, and
  // stage the energy split and regulator mirrors for the serial ledger
  // reduction. Relative to the old fused per-room loop this only hoists
  // the temperature update out of the middle: nothing here reads temp_c,
  // so the split is bit-free.
  for (std::size_t i = begin; i < end; ++i) {
    hw::DfServer& server = *fleet_.server[i];
    server.advance(dts, last_season);
    const double delta_j = server.energy_consumed().value() - fleet_.energy_mark_j[i];
    fleet_.energy_mark_j[i] = server.energy_consumed().value();
    const double emitted_w = delta_j / dt;
    const double q_heat = (indoors ? emitted_w : 0.0) + solar_w;
    q_scratch[i - begin] = q_heat + m.gains_w;
    const double wanted_j = fleet_.last_demand_w[i] * dt;
    fleet_.delta_j[i] = delta_j;
    fleet_.useful_j[i] = std::min(delta_j, wanted_j);
    HeatRegulator& reg = fleet_.regulator[i];
    reg.record(dts, util::Watts{emitted_w}, util::Watts{fleet_.last_demand_w[i]});
    const double requested_j = reg.requested_total().value();
    fleet_.reg_requested_j[i] = requested_j;
    fleet_.reg_weighted_err_j[i] = reg.relative_error() * requested_j;
  }

  // Pass B (vector): the room-temperature update over the whole contiguous
  // slice, under the building's one room model. The kernels mirror
  // Room/Room2R2C::advance term for term (bit-exact), with the decay factor
  // and substep schedule precomputed at add_building.
  if (const std::size_t n = end - begin; n > 0) {
    if (!m.high_fidelity) {
      fleet::step_rooms_1r1c(n, t_out.value(), q_scratch, m.hold_r, m.r1_decay,
                             fleet_.temp_c.data() + begin);
    } else {
      // A gated (quiescent) district may stop substepping at a bitwise
      // fixed point — provably identical to running every substep.
      const thermal::Room2R2CParams& p = m.r2c;
      sub = fleet::step_rooms_2r2c(
          n, t_out.value(), q_scratch, p.r_air_env_k_per_w, p.r_env_out_k_per_w, p.c_air_j_per_k,
          p.c_env_j_per_k, m.r2_max_step, m.r2_h_last, m.r2_n_full, /*allow_early_exit=*/gated,
          fleet_.temp_c.data() + begin, fleet_.env_c.data() + begin);
    }
  }

  // Pass C (scalar): comfort against the post-update temperatures. Samples
  // at one instant replace each other, so the building records its room
  // means once per tick.
  if (end > begin) {
    double dev_sum = 0.0;
    double temp_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      dev_sum += std::abs(fleet_.temp_c[i] - target.value());
      temp_sum += fleet_.temp_c[i];
    }
    const auto n = static_cast<double>(end - begin);
    bd.comfort_metrics.record(t, dev_sum / n, temp_sum / n);
  }

  if (bld_tank_[b]) {
    // Digital-boiler plant: the hot-water store is the "thermostat" and it
    // wants heat in every season.
    TankUnit& tu = *bld_tank_[b];
    hw::DfServer& server = *tu.server;
    server.advance(dts, /*heating_season=*/true);
    const double delta_j = server.energy_consumed().value() - tu.energy_mark.value();
    tu.energy_mark = server.energy_consumed();
    const util::Watts emitted{delta_j / dt};
    const double draw = thermal::hot_water_draw_lps(t, m.daily_hot_water_l);
    tu.tank.advance(dts, emitted, draw);
    tu.regulator.record(dts, emitted, tu.last_demand);
    bd.comfort_metrics.sample(t, tu.tank.temperature(), tu.tank.params().setpoint);
    const util::Joules wanted = tu.last_demand * dts;
    tu.scratch_delta_j = delta_j;
    tu.scratch_useful_j = std::min(delta_j, wanted.value());
    tu.scratch_draw_lps = draw;
  }
  return sub;
}

void Df3Platform::control_building_math(std::size_t b, double t_out_c,
                                        std::vector<std::string>& findings) {
  Building& bd = *buildings_[b];
  const GatingPolicy gating = config_.regulator.gating;
  if (bld_gated_[b] != 0) {
    // Activity-gated fast path, lane half. The building was proved quiet:
    // off season the thermostat demand chain is identically zero, every
    // regulator's regulate() is a bitwise no-op against the observed
    // server state, and last_demand/last_season already hold zero. Only
    // the inlet feedback (it drives the thermal throttle and thus
    // usable_cores) and the kFull no-op replay run here; the ledger and
    // temperature aggregates belong to the boundary drain.
    const bool full_audit = auditor_.level() == metrics::AuditLevel::kFull;
    for (std::size_t i = room_begin(b); i < room_end(b); ++i) {
      hw::DfServer& server = *fleet_.server[i];
      if (full_audit) {
        // Replay the skipped regulate() and flag any state change: the
        // gate's no-op proof must hold bit-for-bit. (The replay itself
        // keeps the trajectory identical — it is exactly what the stepped
        // path would have executed.) Findings buffer per lane — the
        // auditor is shared — and report after the drain in lane order.
        const bool powered0 = server.powered();
        const std::size_t pstate0 = server.pstate();
        const int filler0 = server.filler_cores();
        const int busy0 = server.busy_cores();
        fleet_.regulator[i].regulate(server, thermal::HeatDemand{util::Watts{0.0}, false},
                                     gating);
        if (server.powered() != powered0 || server.pstate() != pstate0 ||
            server.filler_cores() != filler0 || server.busy_cores() != busy0) {
          findings.push_back("activity-gate: regulate() mutated a quiet server in building " +
                             bd.cluster->name());
        }
      }
      server.set_inlet_temperature(util::Celsius{fleet_.temp_c[i]});
    }
    bld_demand_w_[b] = 0.0;
  } else {
    const bool heating_season = bld_season_[b] != 0;
    const double target_c = bld_target_c_[b];
    const RoomModel& m = bd.model;
    const double kp_w_per_k = m.kp_w_per_k;
    // Per-building demand accumulates separately from the city total so the
    // city_demand_w addition chain (and thus the golden digests) is
    // untouched; heat-aware routing reads this between ticks.
    double bld_demand_w = 0.0;
    for (std::size_t i = room_begin(b); i < room_end(b); ++i) {
      // Modulating thermostat (pure math, mirrored from
      // ModulatingThermostat::demand + holding_power of the room model).
      double demand_w = 0.0;
      if (heating_season) {
        const double needed = (target_c - t_out_c) / m.hold_r - m.gains_w;
        const double hold = std::max(0.0, needed);
        const double raw = hold + kp_w_per_k * (target_c - fleet_.temp_c[i]);
        demand_w = std::clamp(raw, 0.0, m.rating_w);
      }
      hw::DfServer& server = *fleet_.server[i];
      fleet_.regulator[i].regulate(
          server, thermal::HeatDemand{util::Watts{demand_w}, heating_season}, gating);
      server.set_inlet_temperature(util::Celsius{fleet_.temp_c[i]});
      fleet_.last_demand_w[i] = demand_w;
      bld_demand_w += demand_w;
    }
    bd.last_season = heating_season;
    TankUnit* const tank = bld_tank_[b].get();
    if (tank != nullptr) {
      TankUnit& tu = *tank;
      const auto demand = tu.tank.demand(tu.scratch_draw_lps, util::Watts{m.rating_w});
      tu.regulator.regulate(*tu.server, demand, gating);
      // The immersion oil returns cooled from the tank heat exchanger:
      // inlet sits a design approach (~15 K) below the store, so a store
      // at setpoint keeps the boiler inside its thermal envelope while an
      // overheating store still triggers the throttle.
      tu.server->set_inlet_temperature(util::Celsius{tu.tank.temperature().value() - 15.0});
      tu.last_demand = demand.power;
      bld_demand_w += demand.power.value();
    }
    bld_demand_w_[b] = bld_demand_w;
    // Re-derive the quiet proof from the post-regulate server state: the
    // gate may fire next tick only if regulate() left every chassis where
    // its idle branch's setters early-return (so replaying it cannot move a
    // bit). The cluster epoch pins the proof; any exogenous control-plane
    // touch (fault injector, pinned run, test poking a worker) bumps it
    // and forces the stepped path until the proof is re-established here.
    if (config_.activity_gating) {
      bool quiet = !heating_season && tank == nullptr && room_end(b) > room_begin(b);
      if (quiet) {
        const bool aggressive = gating == GatingPolicy::kAggressive;
        for (std::size_t i = room_begin(b); quiet && i < room_end(b); ++i) {
          const hw::DfServer& server = *fleet_.server[i];
          quiet = aggressive ? (!server.powered() && server.busy_cores() == 0 &&
                                server.filler_cores() == 0)
                             : (server.powered() && server.pstate() == 0 &&
                                server.filler_cores() == 0);
        }
      }
      bld_quiet_[b] = quiet ? 1 : 0;
      if (quiet) bld_quiet_epoch_[b] = bd.cluster->control_epoch();
    }
  }
  // Speed sync: a control-quiescent cluster (nothing queued, nothing
  // running) has an engine-free sync_workers() and finishes it here inside
  // the lane, then counts its cores while the servers are still in this
  // core's cache; the rest defer both to the boundary drain, where event
  // re-arms and queue pumps replay serially in building-major order.
  if (bd.cluster->control_quiescent()) {
    bd.cluster->sync_workers();
    note_building_cores(b);
    bld_sync_deferred_[b] = 0;
  } else {
    bld_sync_deferred_[b] = 1;
  }
}

void Df3Platform::note_building_cores(std::size_t b) {
  const Cluster& c = *buildings_[b]->cluster;
  bld_cores_[b] = c.usable_cores();
  bld_cores_epoch_[b] = c.control_epoch();
}

void Df3Platform::control_reduce(std::size_t b_begin, std::size_t b_end,
                                 metrics::EnergyLedger::Totals& energy_out,
                                 TickSums& sums_out) {
  // The running totals stay in locals for the whole range: through the
  // references every add would be a store and a reload, room after room.
  // Same adds, same order, so the same bits.
  metrics::EnergyLedger::Totals energy = energy_out;
  TickSums sums = sums_out;
  const double* const delta_j = fleet_.delta_j.data();
  const double* const useful_j = fleet_.useful_j.data();
  const double* const demand_w = fleet_.last_demand_w.data();
  const double* const temp_c = fleet_.temp_c.data();
  const double* const reg_requested_j = fleet_.reg_requested_j.data();
  const double* const reg_weighted_err_j = fleet_.reg_weighted_err_j.data();
  for (std::size_t b = b_begin; b < b_end; ++b) {
    const std::size_t begin = room_begin(b);
    const std::size_t end = room_end(b);
    if (bld_gated_[b] != 0) {
      // Gated drain half: the ledger split (servers draw standby power even
      // gated off) and the temperature aggregates. useful_j is exactly +0.0
      // (last demand was zero), so the useful-heat add is skipped and waste
      // takes the full delta whether or not the heat stays indoors; the
      // city/building demand adds would be +0.0 and are elided, as in the
      // fused sweep.
      for (std::size_t i = begin; i < end; ++i) {
        const util::Joules delta{delta_j[i]};
        energy.add_it(delta);
        energy.add_overhead(delta * kDfOverheadFraction);
        energy.add_waste_heat(delta);
        sums.temp_sum += temp_c[i];
        ++sums.room_count;
        sums.reg_requested_j += reg_requested_j[i];
        sums.reg_weighted_err_j += reg_weighted_err_j[i];
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const util::Joules delta{delta_j[i]};
        energy.add_it(delta);
        energy.add_overhead(delta * kDfOverheadFraction);
        // A dual-pipe chassis vents outdoors only after an off-season
        // control pass, whose demand was zero: useful_j is then +0.0, so
        // this split books the whole delta as waste.
        const util::Joules useful{useful_j[i]};
        energy.add_useful_heat(useful);
        energy.add_waste_heat(delta - useful);
        // last_demand_w was written by the lane stage this tick, so this is
        // the same value (and the same accumulation order) the fused sweep
        // added.
        sums.city_demand_w += demand_w[i];
        sums.temp_sum += temp_c[i];
        ++sums.room_count;
        sums.reg_requested_j += reg_requested_j[i];
        sums.reg_weighted_err_j += reg_weighted_err_j[i];
      }
      if (const TankUnit* const tank = bld_tank_[b].get()) {
        const util::Joules delta{tank->scratch_delta_j};
        energy.add_it(delta);
        energy.add_overhead(delta * kDfOverheadFraction);
        const util::Joules useful{tank->scratch_useful_j};
        energy.add_useful_heat(useful);
        energy.add_waste_heat(delta - useful);
        sums.city_demand_w += tank->last_demand.value();
      }
    }
    // Deferred speed sync: the event-calendar half of the control loop
    // (settle + re-arm completions, queue pumps, peer hand-offs) happens
    // here, in the same building-major sequence the fused serial sweep
    // produced — the deterministic merge point of every lane's outbound
    // effects. The core count sums in building order either way: the
    // values are integers, so the double chain is the one the live walk
    // added.
    if (bld_sync_deferred_[b] != 0) {
      buildings_[b]->cluster->sync_workers();
      note_building_cores(b);
    }
    sums.city_cores += bld_cores_[b];
  }
  energy_out = energy;
  sums_out = sums;
}

void Df3Platform::tick(sim::Time t) {
  ensure_shards();
  const util::Celsius t_out = weather_.outdoor_temperature(t);
  const util::Celsius seasonal = weather_.seasonal_component(t);
  const double hour = thermal::hour_of_day(t);
  const std::size_t nb = buildings_.size();
  const std::size_t ns = shards_.size();

  // Sample every grid region once per tick, next to the weather sample —
  // the one read the whole tick (policies, accounting, gauges) shares.
  if (grid_) {
    for (std::size_t r = 0; r < grid_now_.size(); ++r) {
      grid_now_[r] = grid_->signal(r).sample(t);
    }
  }

  // Reduction state. The drain replays the exact accumulation order of
  // the fused serial walk (ledger adds and city aggregates are
  // floating-point order-sensitive) whatever the thread count; the ledger
  // accumulator holds the four energy slots for the whole tick, and
  // control_reduce keeps them in locals with the identical per-room add
  // sequence.
  TickSums sums;
  metrics::EnergyLedger::Accumulator ledger(df_energy_);
  metrics::EnergyLedger::Totals& energy = ledger.totals();

  // Each building passes through three stages (DESIGN.md §12):
  //   physics(b)  server/room/tank integration (physics_building)
  //   math(b)     building-local control decisions — thermostat,
  //               regulate(), inlet feedback, quiet proof
  //               (control_building_math)
  //   reduce(b)   the boundary drain: ledger and city aggregates, event
  //               re-arms, queue pumps, peer hand-offs
  //               (control_reduce)
  // physics(b) and math(b) touch only building-b state, and peer views are
  // pinned by the pre-control lane snapshots; within the conservative
  // horizon `now + Network::min_peer_latency()` no cross-cluster influence
  // can reach another building. So both execution shapes perform the
  // identical operation sequence on every shared accumulator and on the
  // event calendar — same bits:
  //   serial    when some cluster has queued work, arm every snapshot up
  //             front; then physics(0), math(0), reduce(0), physics(1), ...
  //             (one pass over each server's cache lines)
  //   parallel  one lane per district shard on the pool runs arm(b),
  //             physics(b), math(b) for the shard's buildings; then
  //             reduce(0..n) serially in building-major order, the
  //             deterministic merge of every lane's outbound effects.
  // reduce(b) reads the flat bld_* arrays and the fleet arrays; it follows
  // the pointer to Building and Cluster only for a tank or a deferred sync,
  // so the parallel shape's serial section makes no O(buildings) pass
  // through them. Advancing lane_tick_ after the drain expires every
  // snapshot at once, so event-time picks read live state.
  // Tick-phase scopes run on the *host* clock: every sub-phase of a tick
  // happens at one simulated instant, so only wall time gives the spans
  // extent. Trace content for these spans is machine-dependent by nature;
  // the simulated trajectory stays bit-identical (hooks observe only).
  obs::Observability* const sink = obs::current();
  const bool phase_scopes = sink != nullptr && sink->tracing();
  double phase_mark_s = phase_scopes ? sink->trace().host_now_s() : 0.0;
  const auto close_phase = [&](obs::Phase p) {
    const double end_s = sink->trace().host_now_s();
    sink->host_span(this, "tick", p, phase_mark_s, end_s);
    phase_mark_s = end_s;
  };

  // The effective thread count clamps to the shard count: a fleet with
  // fewer districts than cores must not wake workers that would find no
  // work to claim. A zero-latency link collapses the conservative horizon
  // to the tick instant itself, so the tick falls back to the serial walk
  // instead of risking a same-instant cross-lane delivery.
  std::size_t threads = std::min(config_.threads, std::max<std::size_t>(1, ns));
  if (threads > 1 && !(network_->min_peer_latency().value() > 0.0)) {
    threads = 1;
    ++lane_fallback_ticks_;
  }

  // One lane: physics and control math for every building of shard s in
  // building-major order; the serial walk fuses the drain in as well. A
  // parallel lane first freezes the peer-visible load signals of each of
  // its clusters (the pre-control lane snapshot): a drain-time pump then
  // observes every peer as it stood at the start of the conservative
  // window, independent of lane interleaving. Physics moves no queue and
  // no core count, and no other lane touches the cluster, so these are the
  // values an up-front pass would have read.
  const auto run_lane = [&](std::size_t s, bool fused_drain) {
    const Shard& sh = shards_[s];
    std::uint64_t run = 0;
    std::uint64_t skipped = 0;
    double* const q_scratch = lane_q_total_w_.data() + s * lane_q_stride_;
    for (std::size_t b = sh.bld_begin; b < sh.bld_end; ++b) {
      if (!fused_drain) buildings_[b]->cluster->arm_lane_snapshot(lane_tick_);
      const fleet::Substeps2R2C sub = physics_building(b, t, t_out, seasonal, hour, q_scratch);
      run += sub.full_steps_run;
      skipped += sub.full_steps_skipped;
      control_building_math(b, t_out.value(), lane_findings_[s]);
      if (fused_drain) control_reduce(b, b + 1, energy, sums);
    }
    shard_substeps_run_[s] = run;
    shard_substeps_skipped_[s] = skipped;
  };

  if (threads == 1) {
    // The fused walk pumps while later buildings are still pre-control, so
    // it arms every snapshot first. Only needed when some cluster can
    // actually pump this tick (non-empty queue); the scan itself reads
    // pre-control state.
    const bool any_queued = std::any_of(buildings_.begin(), buildings_.end(),
                                        [](const auto& b) { return b->cluster->queued() > 0; });
    if (any_queued) {
      for (const auto& b : buildings_) b->cluster->arm_lane_snapshot(lane_tick_);
    }
    // The whole fused sweep is reported as one physics-phase span.
    for (std::size_t s = 0; s < ns; ++s) run_lane(s, /*fused_drain=*/true);
    if (phase_scopes) close_phase(obs::Phase::kPhysicsPhase);
  } else {
    ++lane_parallel_ticks_;
    const std::size_t helpers = threads - 1;
    if (!pool_ || pool_->size() < helpers) pool_ = std::make_unique<util::ThreadPool>(helpers);
    // Lane workers only time-stamp their spans (the trace ring is
    // single-writer); the serial section emits them on per-lane tracks.
    pool_->for_each_index(ns, [&](std::size_t s) {
      if (phase_scopes) lane_span_begin_s_[s] = sink->trace().host_now_s();
      run_lane(s, /*fused_drain=*/false);
      if (phase_scopes) lane_span_end_s_[s] = sink->trace().host_now_s();
    });
    if (phase_scopes) {
      close_phase(obs::Phase::kPhysicsPhase);
      for (std::size_t s = 0; s < ns; ++s) {
        sink->host_span(&lane_track_name_[s], lane_track_name_[s], obs::Phase::kLaneControl,
                        lane_span_begin_s_[s], lane_span_end_s_[s]);
      }
    }
    control_reduce(0, nb, energy, sums);
    if (phase_scopes) close_phase(obs::Phase::kControlPhase);
  }

  // Gated-replay findings (buffered per lane under kFull audit) report in
  // lane order — which is building order, since lanes cover contiguous
  // ascending building ranges — identically in every execution mode.
  if (auditor_.level() == metrics::AuditLevel::kFull) {
    for (auto& lane : lane_findings_) {
      for (auto& f : lane) auditor_.report(std::move(f));
      lane.clear();
    }
  }
  ++lane_tick_;  // expires every lane snapshot of this tick
  ledger.commit();
  reg_requested_j_ = sums.reg_requested_j;
  reg_weighted_err_j_ = sums.reg_weighted_err_j;

  // Grid attribution (DESIGN.md §15), after the ledger commit so it reads
  // the same per-room deltas the reduction consumed. Each building's
  // facility joules this tick — IT plus its overhead share — accrue to its
  // region's account at the sample active *now*, which is what makes the
  // economics spend-time-weighted rather than end-of-run averages. A
  // separate pass over the scratch arrays: the existing ledger float
  // chains are untouched, so no-grid runs stay bit-for-bit identical.
  if (grid_) {
    for (std::size_t b = 0; b < nb; ++b) {
      double bld_j = 0.0;
      for (std::size_t i = room_begin(b); i < room_end(b); ++i) bld_j += fleet_.delta_j[i];
      if (bld_tank_[b]) bld_j += bld_tank_[b]->scratch_delta_j;
      bld_j *= 1.0 + kDfOverheadFraction;
      const grid::GridSample& s = grid_now_[bld_region_[b]];
      RegionAccount& acct = grid_accounts_[bld_region_[b]];
      acct.energy_j += bld_j;
      const double kwh = bld_j / 3.6e6;
      acct.cost_eur += kwh * s.price_eur_per_kwh;
      acct.co2_g += kwh * s.carbon_gco2_per_kwh;
      df_energy_.add_grid_spend(util::Joules{bld_j}, s.price_eur_per_kwh,
                                s.carbon_gco2_per_kwh);
    }
    for (std::size_t r = 0; r < grid_accounts_.size(); ++r) {
      if (grid_->curtailed(r)) ++grid_accounts_[r].curtailed_ticks;
    }
  }

  // Gating & substep accounting: a district counts as gated only when
  // every one of its buildings took the fast path this tick.
  tick_gated_districts_ = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    const Shard& sh = shards_[s];
    bool all_gated = sh.bld_end > sh.bld_begin;
    for (std::size_t b = sh.bld_begin; all_gated && b < sh.bld_end; ++b) {
      all_gated = bld_gated_[b] != 0;
    }
    if (all_gated) ++tick_gated_districts_;
    substeps_run_ += shard_substeps_run_[s];
    substeps_skipped_ += shard_substeps_skipped_[s];
  }
  district_ticks_ += ns;
  gated_district_ticks_ += tick_gated_districts_;

  const double room_mean =
      sums.room_count > 0 ? sums.temp_sum / static_cast<double>(sums.room_count) : 0.0;
  temp_series_.add(t, room_mean);
  capacity_series_.add(t, sums.city_cores);
  demand_series_.add(t, sums.city_demand_w);
  outdoor_series_.add(t, t_out.value());
  if (sink != nullptr) {
    feed_metrics(t, room_mean, sums.city_cores, sums.city_demand_w, t_out.value());
  }

  // Heavyweight structural sweep (EDF lane order, busy-core consistency,
  // per-cluster conservation) once per physics tick at kFull only; the
  // default level keeps auditing to O(1) counter deltas per request.
  if (auditor_.level() == metrics::AuditLevel::kFull) {
    std::vector<std::string> findings = verify_tick_caches();
    for (const auto& b : buildings_) b->cluster->audit(findings);
    for (auto& f : findings) auditor_.report(std::move(f));
    if (phase_scopes) {
      // Reported from the control/feed mark: the sweep span absorbs the
      // (sub-microsecond) series/feed work preceding it.
      close_phase(obs::Phase::kAuditSweep);
    }
  }
}

void Df3Platform::feed_metrics(sim::Time t, double room_mean_c, double city_cores,
                               double city_demand_w, double outdoor_c) {
  auto& reg = obs_->registry();
  reg.at_gauge(feed_.room_mean_c).set(room_mean_c);
  reg.at_gauge(feed_.usable_cores).set(city_cores);
  reg.at_gauge(feed_.heat_demand_w).set(city_demand_w);
  reg.at_gauge(feed_.outdoor_c).set(outdoor_c);
  reg.at_gauge(feed_.gated_districts).set(static_cast<double>(tick_gated_districts_));
  reg.at_gauge(feed_.regulator_err).set(regulator_relative_error());
  reg.at_gauge(feed_.energy_it_j).set(df_energy_.it().value());
  reg.at_gauge(feed_.energy_useful_j).set(df_energy_.useful_heat().value());
  reg.at_gauge(feed_.energy_waste_j).set(df_energy_.waste_heat().value());
  reg.at_gauge(feed_.energy_overhead_j).set(df_energy_.overhead().value());
  reg.at_gauge(feed_.pue).set(df_energy_.pue());
  reg.at_gauge(feed_.heat_reuse).set(df_energy_.heat_reuse_fraction());
  // Empty vectors (and thus no loop) unless install_grid registered them.
  for (std::size_t r = 0; r < feed_.grid_carbon.size(); ++r) {
    reg.at_gauge(feed_.grid_carbon[r]).set(grid_now_[r].carbon_gco2_per_kwh);
    reg.at_gauge(feed_.grid_price[r]).set(grid_now_[r].price_eur_per_kwh);
    reg.at_gauge(feed_.grid_curtailed[r]).set(grid_->curtailed(r) ? 1.0 : 0.0);
  }

  // Staleness-bounded SLO gauges: a flow that has gone quiet for a full
  // window reports zero rather than a frozen last value.
  for (std::size_t f = 0; f < feed_.slo_miss_ratio.size(); ++f) {
    const obs::SloMonitor::FlowReport sr =
        obs_->slo().report(static_cast<std::uint32_t>(f), t);
    reg.at_gauge(feed_.slo_miss_ratio[f]).set(sr.stale ? 0.0 : sr.miss_ratio);
    reg.at_gauge(feed_.slo_p99_s[f]).set(sr.stale ? 0.0 : sr.p99_s);
  }

  reg.snapshot(t);
}

void Df3Platform::run(util::Seconds duration) {
  if (!(duration.value() >= 0.0)) throw std::invalid_argument("run: negative or NaN duration");
  ensure_peers_wired();
  if (!physics_) {
    const SetupScope scope(setup_probe_, SetupPart::kFleet);
    physics_ = std::make_unique<sim::PeriodicProcess>(
        sim_, sim_.now() + config_.tick_s, config_.tick_s, [this](sim::Time t) { tick(t); });
  }
  // Scope this platform's telemetry sink to the event loop: every request /
  // network / fault hook in the process records here while (and only while)
  // this platform is the one running.
  obs::Install obs_scope(obs_.get());
  sim_.run_until(sim_.now() + duration.value());
}

double Df3Platform::regulator_relative_error() const {
  return reg_requested_j_ <= 0.0 ? 0.0 : reg_weighted_err_j_ / reg_requested_j_;
}

std::vector<std::string> Df3Platform::verify_tick_caches() const {
  std::vector<std::string> out;
  const std::size_t nb = buildings_.size();
  if (bld_rooms_.size() != nb + 1 || bld_rooms_.back() != fleet_.size()) {
    out.push_back("tick cache: the room ranges do not end at the fleet's " +
                  std::to_string(fleet_.size()) + " rooms");
    return out;
  }
  for (std::size_t b = 0; b < nb; ++b) {
    const Building& bd = *buildings_[b];
    const Cluster& c = *bd.cluster;
    const std::string where = "tick cache: building " + c.name();
    if (c.control_epoch() == bld_cores_epoch_[b] && c.usable_cores() != bld_cores_[b]) {
      out.push_back(where + " drained " + std::to_string(bld_cores_[b]) +
                    " usable cores, cluster has " + std::to_string(c.usable_cores()));
    }
    // The room range and the tank against the cluster they index: a room
    // building's rooms are its workers in order, a boiler plant has no
    // room and one worker, the store's chassis.
    const TankUnit* const tank = bld_tank_[b].get();
    const std::size_t rooms = room_end(b) - room_begin(b);
    if (tank != nullptr ? rooms != 0 || c.worker_count() != 1
                        : rooms == 0 || rooms != c.worker_count()) {
      out.push_back(where + " owns rooms [" + std::to_string(room_begin(b)) + ", " +
                    std::to_string(room_end(b)) + ") for " + std::to_string(c.worker_count()) +
                    " workers");
    } else {
      for (std::size_t w = 0; w < rooms; ++w) {
        if (fleet_.server[room_begin(b) + w] != &c.worker(w).server()) {
          out.push_back(where + ": room " + std::to_string(w) + " ticks a server other than " +
                        "worker " + std::to_string(w) + "'s");
        }
      }
    }
    if (tank != nullptr && tank->server != &c.worker(0).server()) {
      out.push_back(where + ": the tank's chassis is not its worker 0's");
    }
    if (c.worker_count() > 0 &&
        bd.model.rating_w != c.worker(0).server().spec().rated_power().value()) {
      out.push_back(where + ": the rating is not its worker 0's chassis rating");
    }
    if (grid_ && bld_region_[b] != c.grid_region()) {
      out.push_back(where + " is in region " + std::to_string(bld_region_[b]) +
                    ", its cluster in " + std::to_string(c.grid_region()));
    }
    if (c.lane_snapshot_current()) out.push_back(where + ": a lane snapshot outlived its tick");
  }
  // The fresh walk: same building-major room order as the drain's fold.
  double req = 0.0, err = 0.0;
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t i = room_begin(b); i < room_end(b); ++i) {
      const HeatRegulator& reg = fleet_.regulator[i];
      req += reg.requested_total().value();
      err += reg.relative_error() * reg.requested_total().value();
    }
  }
  if (std::bit_cast<std::uint64_t>(req) != std::bit_cast<std::uint64_t>(reg_requested_j_) ||
      std::bit_cast<std::uint64_t>(err) != std::bit_cast<std::uint64_t>(reg_weighted_err_j_)) {
    std::ostringstream os;
    os.precision(17);
    os << "tick cache: folded regulator sums (" << reg_requested_j_ << ", "
       << reg_weighted_err_j_ << ") differ from a fresh walk (" << req << ", " << err << ")";
    out.push_back(os.str());
  }
  if (!obs_) return out;
  obs::MetricRegistry& reg = obs_->registry();
  // Instrument index -> the sum of every source feeding it. Repeated rung
  // names share an id, so their hits land in one entry.
  std::map<std::uint32_t, std::uint64_t> expect;
  const auto add = [&expect](obs::MetricId id, std::uint64_t n) { expect[id.index] += n; };
  const CityCounters& city = feed_.city;
  for (const auto& b : buildings_) {
    const ClusterStats& s = b->cluster->stats();
    const Cluster::PolicyCounters& pc = b->cluster->policy_counters();
    add(city.preemptions, s.preemptions);
    add(city.offload_horizontal, s.offloaded_horizontal_out);
    add(city.offload_vertical, s.offloaded_vertical);
    add(city.edge_delays, s.edge_delays);
    add(city.placement_picks, pc.placement_picks);
    add(city.peer_picks, pc.peer_picks);
    for (std::size_t i = 0; i < city.rung.size(); ++i) {
      add(city.rung[i], i < pc.rung_hits.size() ? pc.rung_hits[i] : 0);
    }
  }
  const metrics::FlowMetrics::Slice& all = flow_metrics_.overall();
  add(feed_.routing_picks, routing_picks_);
  add(feed_.completed, all.completed);
  add(feed_.deadline_missed, all.deadline_missed);
  add(feed_.rejected, all.rejected);
  add(feed_.dropped, all.dropped);
  for (const auto& [index, sum] : expect) {
    const std::uint64_t have = reg.at_counter(obs::MetricId{index}).value();
    if (have != sum) {
      out.push_back("tick cache: counter " + reg.instruments()[index].name + " reads " +
                    std::to_string(have) + ", its sources sum to " + std::to_string(sum));
    }
  }
  return out;
}

util::Celsius Df3Platform::room_temperature(std::size_t b, std::size_t r) const {
  if (b >= buildings_.size()) throw std::out_of_range("Df3Platform::room_temperature: bad building");
  if (r >= room_end(b) - room_begin(b)) {
    throw std::out_of_range("Df3Platform::room_temperature: bad room index");
  }
  return util::Celsius{fleet_.temp_c[room_begin(b) + r]};
}

void Df3Platform::export_series_csv(std::ostream& os) const {
  os << "time_s,room_mean_c,usable_cores,heat_demand_w,outdoor_c\n";
  const auto old_precision = os.precision(10);
  // All four series are appended once per tick (the room column records 0.0
  // for cities without rooms), so rows index them in lockstep.
  for (std::size_t i = 0; i < capacity_series_.size(); ++i) {
    os << capacity_series_.times[i] << ',' << temp_series_.values[i] << ','
       << capacity_series_.values[i] << ',' << demand_series_.values[i] << ','
       << outdoor_series_.values[i] << '\n';
  }
  os.precision(old_precision);
}

util::Celsius Df3Platform::tank_temperature(std::size_t b) const {
  const auto& unit = bld_tank_.at(b);
  if (!unit) throw std::logic_error("tank_temperature: not a boiler building");
  return unit->tank.temperature();
}

}  // namespace df3::core
