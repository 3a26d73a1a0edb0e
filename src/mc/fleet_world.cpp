#include "df3/mc/fleet_world.hpp"

#include <algorithm>
#include <stdexcept>

#include "df3/mc/snapshot.hpp"

namespace df3::mc {

namespace {

/// Id namespace for checker-injected requests: top 16 bits "MC", so they
/// can never collide with WorkloadSource ids (which tag the top 32 bits
/// with a name hash and are not attached in this fixture anyway).
constexpr std::uint64_t kIdTag = 0x4d43ULL << 48;

/// add_building wires links in a fixed order (see Df3Platform::add_building):
/// dev-gw, wifi-gw, gw-internet, then per room gw-srvN (+ dev-srv0/wifi-srv0
/// for room 0). With 2 rooms that is 7 links per building; the uplink is the
/// third, and gw-srv0, in the {gw, dev, wifi, srv0} cycle, the fourth.
constexpr std::size_t kLinksPerBuilding = 7;
constexpr std::size_t kUplinkOffset = 2;
constexpr std::size_t kLanOffset = 3;

}  // namespace

FleetWorld::FleetWorld(FleetWorldConfig config) : config_(std::move(config)) {
  if (config_.clusters < 2 || config_.clusters > 3) {
    throw std::invalid_argument("FleetWorld: clusters must be 2 or 3");
  }
}

FleetWorld::~FleetWorld() = default;

workload::Request FleetWorld::make_request(const char* app, double work_gc) {
  workload::Request r;
  r.id = kIdTag | next_id_++;
  r.app = app;
  r.work_gigacycles = work_gc;
  r.tasks = 1;
  r.input_size = util::Bytes{2048.0};
  r.output_size = util::Bytes{1024.0};
  return r;
}

void FleetWorld::reset() {
  // Tear down the previous branch first: the injectors hold references
  // into the old platform.
  actions_.clear();
  churn_.clear();
  flapper_.reset();
  city_.reset();
  next_id_ = 0;
  route_checks_ = 0;
  tick_checks_ = 0;

  core::PlatformConfig pc;
  pc.seed = config_.seed;
  pc.tick_s = config_.tick_s;
  pc.with_datacenter = true;
  pc.audit = metrics::AuditLevel::kFull;
  pc.cluster.discipline = core::QueueDiscipline::kEdf;
  pc.cluster.edge_peak_ladder = {"preempt", "horizontal", "vertical", "delay"};
  city_ = std::make_unique<core::Df3Platform>(pc);

  // Single-core chassis: one shard saturates a worker, so every placement,
  // preemption and escalation decision is individually observable.
  hw::ServerSpec spec;
  spec.family = "mc-1core";
  spec.cpu = hw::qrad_cpu_spec();
  spec.cpu.cores = 1;
  spec.cpu_count = 1;

  for (std::size_t c = 0; c < config_.clusters; ++c) {
    core::BuildingConfig bc;
    bc.name = "b" + std::to_string(c);
    bc.rooms = 2;
    bc.server = spec;
    city_->add_building(bc);
  }

  // Injectors: wired but never start()ed — every toggle is an enumerated
  // choice point via force_toggle, not an RNG arrival. Flapper slots: the
  // uplinks first, then the gw-srv0 links.
  net::LinkFlapConfig fc;
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    fc.links.push_back(c * kLinksPerBuilding + kUplinkOffset);
  }
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    fc.links.push_back(c * kLinksPerBuilding + kLanOffset);
  }
  flapper_ = std::make_unique<net::LinkFlapper>(city_->simulation(), "mc-flap", city_->network(),
                                                fc, util::RngStream(config_.seed, "mc-flap"));
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    core::WorkerChurnConfig wc;
    wc.workers = {0};
    wc.kind = core::OutageKind::kPowerGate;
    const auto name = "mc-churn-b" + std::to_string(c);
    churn_.push_back(std::make_unique<core::WorkerChurn>(
        city_->simulation(), name, city_->cluster(c), wc, util::RngStream(config_.seed, name)));
  }

  // Settle the physics loop (first tick fires, regulators power the fleet
  // for the January heat demand), then declare the branch epoch: the
  // auditor forgets the warm-up so every branch audits exactly the traffic
  // of its own interleaving plus the background load below.
  city_->run(util::Seconds{1.0});
  city_->auditor().reset();

  // Background load pinning the root state (see header). b0: two
  // non-preemptible cloud fillers. Others: one preemptible victim (worker
  // 0 by first-fit) + one non-preemptible filler (worker 1).
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    auto victim = make_request("mc-bg", config_.background_work_gc);
    victim.preemptible = (c != 0);
    city_->inject_cloud_at(c, std::move(victim));
    auto filler = make_request("mc-bg", config_.background_work_gc);
    filler.preemptible = false;
    city_->inject_cloud_at(c, std::move(filler));
  }
  city_->run(util::Seconds{2.0});

  // The whole fixture depends on every core being pinned at the root;
  // fail loudly if staging/placement did not land as designed.
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    const core::Cluster& cc = city_->cluster(c);
    for (std::size_t w = 0; w < cc.worker_count(); ++w) {
      if (cc.worker(w).busy_cores() != 1) {
        throw std::runtime_error("FleetWorld: background load failed to pin b" +
                                 std::to_string(c) + "/w" + std::to_string(w));
      }
    }
  }

  build_actions();
}

void FleetWorld::build_actions() {
  std::vector<std::pair<std::string, std::function<void()>>> all;
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    all.emplace_back("edge(b" + std::to_string(c) + ")", [this, c] {
      auto r = make_request("mc-edge", 5.0);
      r.deadline_s = 30.0;
      city_->inject_edge(c, std::move(r));
    });
  }
  all.emplace_back("edge2(b1)", [this] {
    auto r = make_request("mc-edge2", 5.0);
    r.deadline_s = 30.0;
    r.tasks = 2;
    city_->inject_edge(1, std::move(r));
  });
  all.emplace_back("cloud_dl(b1)", [this] {
    auto r = make_request("mc-cloud-dl", 5.0);
    r.deadline_s = 120.0;
    city_->inject_cloud_at(1, std::move(r));
  });
  all.emplace_back("pinned(b0/w0)", [this] {
    city_->inject_pinned(0, 0, make_request("mc-pinned", 5.0));
  });
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    all.emplace_back("flap(up-b" + std::to_string(c) + ")",
                     [this, c] { flapper_->force_toggle(c); });
  }
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    all.emplace_back("flap(lan-b" + std::to_string(c) + ")",
                     [this, c] { flapper_->force_toggle(config_.clusters + c); });
  }
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    all.emplace_back("gate(b" + std::to_string(c) + "/w0)",
                     [this, c] { churn_[c]->force_toggle(0); });
  }
  all.emplace_back("step", [this] { city_->run(util::Seconds{config_.step_s}); });
  all.emplace_back("tick", [this] { city_->run(util::Seconds{config_.tick_s}); });

  if (config_.alphabet.empty()) {
    actions_ = std::move(all);
    return;
  }
  for (const auto& want : config_.alphabet) {
    if (std::none_of(all.begin(), all.end(),
                     [&](const auto& a) { return a.first == want; })) {
      throw std::invalid_argument("FleetWorld: unknown action '" + want + "'");
    }
  }
  // Canonical order regardless of how the restriction was listed.
  for (auto& a : all) {
    if (std::find(config_.alphabet.begin(), config_.alphabet.end(), a.first) !=
        config_.alphabet.end()) {
      actions_.push_back(std::move(a));
    }
  }
}

std::vector<std::string> FleetWorld::enabled() {
  std::vector<std::string> out;
  out.reserve(actions_.size());
  for (const auto& [label, thunk] : actions_) out.push_back(label);
  return out;
}

void FleetWorld::apply(const std::string& action) {
  for (auto& [label, thunk] : actions_) {
    if (label == action) {
      thunk();
      return;
    }
  }
  throw std::invalid_argument("FleetWorld: unknown action '" + action + "'");
}

void FleetWorld::check_routes(std::vector<std::string>& out) {
  // df3mc is the route cache's oracle: once a branch has flapped, every
  // route the cache would serve must equal a fresh search.
  if (flapper_->flaps() == 0) return;
  const net::Network& n = city_->network();
  route_checks_ += n.route_cache_entries();
  for (auto& line : n.verify_route_cache()) out.push_back(std::move(line));
}

std::vector<std::string> FleetWorld::check() {
  auto out = city_->audit_now();
  check_routes(out);
  // The tick's caches against the uncached paths they replace, at every
  // choice point — not just at the ticks the kFull sweep sees.
  ++tick_checks_;
  for (auto& line : city_->verify_tick_caches()) out.push_back(std::move(line));
  return out;
}

std::vector<std::string> FleetWorld::finalize() {
  std::vector<std::string> out;
  // Heal every injected fault so the drain can complete: links up, workers
  // powered. force_toggle keeps the normal accounting, so coverage still
  // sees the earlier outages.
  for (std::size_t s = 0; s < flapper_->slot_count(); ++s) {
    if (flapper_->is_down(s)) flapper_->force_toggle(s);
  }
  for (auto& ch : churn_) {
    for (std::size_t s = 0; s < ch->slot_count(); ++s) {
      if (ch->is_down(s)) ch->force_toggle(s);
    }
  }
  // Drain to quiescence: background fillers finish, delayed/preempted
  // shards place and complete, offloads round-trip.
  int guard = 0;
  while (city_->auditor().open_requests() != 0 && guard++ < 40) {
    city_->run(util::Seconds{600.0});
  }
  if (city_->auditor().open_requests() != 0) {
    out.push_back("drain: " + std::to_string(city_->auditor().open_requests()) +
                  " request(s) still open after 24000 s of quiescence drain");
  }
  // Fold a final structural sweep into the auditor, then collect the full
  // conservation verdict (stored violations + unresolved ids).
  (void)city_->audit_now();
  for (auto& v : city_->auditor().check_quiescent()) out.push_back(std::move(v));
  check_routes(out);  // the heals above flipped links up
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    const core::Cluster& cc = city_->cluster(c);
    if (cc.in_flight() != 0) {
      out.push_back("b" + std::to_string(c) + ": " + std::to_string(cc.in_flight()) +
                    " request(s) still in flight after drain");
    }
    if (cc.queued() != 0) {
      out.push_back("b" + std::to_string(c) + ": " + std::to_string(cc.queued()) +
                    " shard(s) still queued after drain");
    }
  }
  return out;
}

std::uint64_t FleetWorld::digest() {
  StateDigest d;
  d.mix_f64(city_->now());
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    const core::Cluster& cc = city_->cluster(c);
    const core::ClusterStats& st = cc.stats();
    d.mix_u64(st.received_edge);
    d.mix_u64(st.received_cloud);
    d.mix_u64(st.received_pinned);
    d.mix_u64(st.completed);
    d.mix_u64(st.preemptions);
    d.mix_u64(st.edge_delays);
    d.mix_u64(st.offloaded_vertical);
    d.mix_u64(st.offloaded_horizontal_out);
    d.mix_u64(st.offloaded_horizontal_in);
    d.mix_u64(st.rejected);
    d.mix_u64(st.dropped);
    d.mix_u64(st.deadline_missed);
    d.mix_f64(st.foreign_gigacycles);
    // Queue, in pop order (deterministic deque walk).
    d.mix_u64(cc.queued());
    cc.task_queue().for_each([&](const core::Task& t, core::Priority p) {
      d.mix_u64(t.request->request.id);
      d.mix_u64(static_cast<std::uint64_t>(t.shard_index));
      d.mix_f64(t.remaining_gigacycles);
      d.mix_byte(static_cast<std::uint8_t>(p));
    });
    // Pending map: unordered container, canonicalized by request id.
    std::vector<core::Cluster::PendingView> pending;
    cc.for_each_pending([&](const core::Cluster::PendingView& p) { pending.push_back(p); });
    std::sort(pending.begin(), pending.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    d.mix_u64(pending.size());
    for (const auto& p : pending) {
      d.mix_u64(p.id);
      d.mix_u64(p.preferred_worker);
      d.mix_u64(p.served_worker);
      d.mix_bool(p.foreign);
      d.mix_bool(p.local_only);
    }
    // Workers: chassis control state + running set in core-acquisition
    // order (deterministic vector walk).
    for (std::size_t w = 0; w < cc.worker_count(); ++w) {
      const core::Worker& wk = cc.worker(w);
      d.mix_bool(wk.server().powered());
      d.mix_u64(wk.server().effective_pstate());
      d.mix_u64(static_cast<std::uint64_t>(wk.busy_cores()));
      wk.for_each_running([&](const core::Task& t, double speed) {
        d.mix_u64(t.request->request.id);
        d.mix_u64(static_cast<std::uint64_t>(t.shard_index));
        d.mix_f64(t.remaining_gigacycles);
        d.mix_f64(speed);
      });
    }
  }
  // Injector state.
  d.mix_u64(flapper_->flaps());
  for (std::size_t s = 0; s < flapper_->slot_count(); ++s) d.mix_bool(flapper_->is_down(s));
  for (const auto& ch : churn_) {
    d.mix_u64(ch->outages());
    for (std::size_t s = 0; s < ch->slot_count(); ++s) d.mix_bool(ch->is_down(s));
  }
  // Auditor counters (branch-scoped since the epoch reset).
  const metrics::LifecycleAuditor& a = city_->auditor();
  d.mix_u64(a.submitted());
  d.mix_u64(a.terminals());
  d.mix_u64(a.completed());
  d.mix_u64(a.rejected());
  d.mix_u64(a.dropped());
  d.mix_u64(a.deadline_missed());
  d.mix_u64(a.violation_count());
  return d.value();
}

std::vector<std::pair<std::string, std::uint64_t>> FleetWorld::coverage() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  // Rung firings, summed across clusters; rung_hits is parallel to the
  // configured ladder.
  const std::vector<std::string> ladder = {"preempt", "horizontal", "vertical", "delay"};
  std::vector<std::uint64_t> rung(ladder.size(), 0);
  std::uint64_t handoffs = 0, verticals = 0, preemptions = 0, delays = 0, pinned = 0,
                completed = 0;
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    const core::Cluster& cc = city_->cluster(c);
    const auto& hits = cc.policy_counters().rung_hits;
    for (std::size_t i = 0; i < ladder.size() && i < hits.size(); ++i) rung[i] += hits[i];
    handoffs += cc.stats().offloaded_horizontal_out;
    verticals += cc.stats().offloaded_vertical;
    preemptions += cc.stats().preemptions;
    delays += cc.stats().edge_delays;
    pinned += cc.stats().received_pinned;
    completed += cc.stats().completed;
  }
  // Partition losses via the auditor, not cluster stats: a hand-off dropped
  // on a flapped link is deliberately *not* a cluster-side drop (the
  // sender's responsibility ended at offloaded_horizontal_out), but every
  // kDropped terminal record reaches the platform auditor.
  const std::uint64_t dropped = city_->auditor().dropped();
  for (std::size_t i = 0; i < ladder.size(); ++i) out.emplace_back("rung:" + ladder[i], rung[i]);
  out.emplace_back("handoffs", handoffs);
  out.emplace_back("vertical-offloads", verticals);
  out.emplace_back("preemptions", preemptions);
  out.emplace_back("delays", delays);
  out.emplace_back("drops", dropped);
  out.emplace_back("pinned", pinned);
  out.emplace_back("completed", completed);
  std::uint64_t outages = 0;
  for (const auto& ch : churn_) outages += ch->outages();
  out.emplace_back("flaps", flapper_->flaps());
  out.emplace_back("outages", outages);
  out.emplace_back("route_checks", route_checks_);
  out.emplace_back("tick_checks", tick_checks_);
  return out;
}

}  // namespace df3::mc
