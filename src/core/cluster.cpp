#include "df3/core/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "df3/grid/signal.hpp"
#include "df3/obs/obs.hpp"
#include "df3/policy/registry.hpp"

namespace df3::core {

namespace {
/// Journey-link attribute for arrival/terminal records: flow + 1, so 0 can
/// mean "unknown" in the analyzers (obs/journey.hpp).
constexpr std::uint32_t journey_flow_attr(workload::Flow f) {
  return static_cast<std::uint32_t>(f) + 1u;
}

/// kDeadlineMissed when a result lands after the request's deadline.
workload::Outcome outcome_at(const workload::Request& r, sim::Time t) {
  const auto deadline = r.absolute_deadline();
  return (deadline && t > *deadline) ? workload::Outcome::kDeadlineMissed
                                     : workload::Outcome::kCompleted;
}
}  // namespace

bool Cluster::test_skip_reslot_ = false;

Cluster::Cluster(sim::Simulation& sim, std::string name, ClusterConfig config,
                 net::Network& network, net::NodeId gateway_node, CompletionSink sink,
                 RequestPool* requests)
    : WorkerHost(sim, std::move(name)),
      config_(std::move(config)),
      network_(network),
      gateway_node_(gateway_node),
      sink_(std::move(sink)),
      own_requests_(requests == nullptr ? std::make_unique<RequestPool>() : nullptr),
      requests_(requests == nullptr ? own_requests_.get() : requests),
      queue_(config_.discipline) {
  if (!sink_) throw std::invalid_argument("Cluster: null completion sink");
  check_config(config_);
  const auto& registry = policy::Registry::global();
  ladder_ = registry.make_ladder(config_.edge_peak_ladder);
  placement_ = registry.make_placement(config_.placement);
  peer_selector_ = registry.make_peer_selector(config_.peer_select);
  policy_counters_.rung_hits.assign(ladder_.size(), 0);
  for (const auto& rung : ladder_) ladder_needs_grid_ = ladder_needs_grid_ || rung->needs_grid();
  peer_needs_grid_ = peer_selector_->needs_grid();
}

void Cluster::check_config(const ClusterConfig& config) {
  if (config.dedicated_edge_workers < 0) {
    throw std::invalid_argument("Cluster: negative dedicated_edge_workers");
  }
  if (config.fabric_gbps <= 0.0 || config.reference_fabric_gbps <= 0.0) {
    throw std::invalid_argument("Cluster: fabric bandwidths must be positive");
  }
  if (config.preemption_overhead_gc < 0.0) {
    throw std::invalid_argument("Cluster: negative preemption overhead");
  }
  // Resolve the decision plane's names without building the objects;
  // unknown ones throw here (listing the known ones) rather than silently
  // defaulting.
  const auto& registry = policy::Registry::global();
  for (const std::string& rung : config.edge_peak_ladder) registry.require_rung(rung);
  registry.require_placement(config.placement);
  registry.require_peer_selector(config.peer_select);
}

void Cluster::add_peer(Cluster* peer) {
  if (peer == nullptr) throw std::invalid_argument("add_peer: null peer");
  if (peer == this) throw std::invalid_argument("add_peer: cluster cannot peer with itself");
  if (std::find(peers_.begin(), peers_.end(), peer) != peers_.end()) {
    throw std::invalid_argument("add_peer: duplicate peer " + peer->name());
  }
  peers_.push_back(peer);
}

std::size_t Cluster::add_worker(const hw::ServerModel& model, net::NodeId node) {
  const auto idx = workers_.size();
  workers_.emplace_back(*this, idx, model, node);
  return idx;
}

int Cluster::free_cores() const {
  int n = 0;
  for (const auto& w : workers_) n += w.free_cores();
  return n;
}

double Cluster::slowdown_for(const workload::Request& r) const {
  if (r.comm_fraction <= 0.0 || r.tasks <= 1) return 1.0;
  // A coupled app written for the reference fabric spends comm_fraction of
  // its time communicating there; on our fabric that part stretches by the
  // bandwidth ratio.
  const double stretch = config_.reference_fabric_gbps / config_.fabric_gbps;
  return (1.0 - r.comm_fraction) + r.comm_fraction * stretch;
}

void Cluster::submit(RequestRef ref, net::NodeId origin) {
  const workload::Request& r = ref->request;
  (workload::is_edge(r.flow) ? stats_.received_edge : stats_.received_cloud)++;
  DF3_OBS_TRACE_IF(o) {
    o->journey_instant(this, name(), obs::Phase::kArrival, now(), r.id, -1,
                       journey_flow_attr(r.flow));
  }
  // Hybrid-infrastructure relief valve: deep cloud backlog goes straight to
  // the datacenter (Qarnot processes surplus Internet requests in classic
  // datacenter nodes when heaters cannot absorb them).
  if (!workload::is_edge(r.flow) && datacenter_ != nullptr && !r.privacy_sensitive) {
    const int cores = std::max(1, usable_cores());
    const double backlog_per_core =
        (queue_.backlog_gigacycles() + r.total_work()) / static_cast<double>(cores);
    if (backlog_per_core > config_.cloud_offload_backlog_gc_per_core) {
      count(stats_.offloaded_vertical, &CityCounters::offload_vertical);
      DF3_OBS_TRACE_IF(o) {
        o->journey_span(this, name(), obs::Phase::kOffloadVertical, now(), now(), r.id);
      }
      datacenter_->submit(take(ref), origin, sink_);
      return;
    }
  }
  stage_and_enqueue(ref, origin, /*foreign=*/false, nullptr);
}

void Cluster::submit_direct(RequestRef ref, net::NodeId origin, std::size_t widx) {
  if (widx >= workers_.size()) {
    requests_->release(ref);
    throw std::out_of_range("submit_direct: bad worker index");
  }
  ++stats_.received_edge;
  DF3_OBS_TRACE_IF(o) {
    o->journey_instant(this, name(), obs::Phase::kArrival, now(), ref->request.id, -1,
                       journey_flow_attr(ref->request.flow));
  }
  // The device talked to the worker directly; input is already on it.
  ref->origin = origin;
  ref->preferred_worker = widx;
  track(*ref);
  enqueue_ready(ref);
}

void Cluster::run_pinned(workload::Request r, std::size_t widx, CompletionSink done) {
  if (widx >= workers_.size()) throw std::out_of_range("run_pinned: bad worker index");
  if (!done) throw std::invalid_argument("run_pinned: null completion callback");
  // Pinned execution bypasses the eligibility checks of regular placement,
  // so it can load a worker the regulators believed idle — invalidate any
  // activity gate watching this cluster.
  ++control_epoch_;
  ++stats_.received_pinned;
  // Journey root for pinned injections (the platform opens the journey at
  // intake). Composition stages share ids and are never opened, so this
  // emits nothing for them and their traces are unchanged.
  DF3_OBS_TRACE_IF(o) {
    o->journey_instant_if_open(this, name(), obs::Phase::kArrival, now(), r.id, -1,
                               journey_flow_attr(r.flow));
  }
  const RequestRef ref = requests_->acquire(std::move(r));
  ref->origin = workers_[widx].node();
  ref->preferred_worker = widx;
  ref->local_only = true;
  ref->sink = std::move(done);
  track(*ref);
  enqueue_ready(ref);
}

void Cluster::submit_offloaded(workload::Request r, net::NodeId origin,
                               CompletionSink peer_sink) {
  ++stats_.offloaded_horizontal_in;
  DF3_OBS_TRACE_IF(o) {
    o->journey_instant(this, name(), obs::Phase::kArrival, now(), r.id, -1,
                       journey_flow_attr(r.flow));
  }
  stage_and_enqueue(requests_->acquire(std::move(r)), origin, /*foreign=*/true,
                    std::move(peer_sink));
}

void Cluster::stage_and_enqueue(RequestRef ref, net::NodeId origin, bool foreign,
                                CompletionSink sink) {
  ref->foreign = foreign;
  ref->sink = std::move(sink);
  if (workers_.empty()) {
    ++stats_.rejected;
    finish(ref, workload::Outcome::kRejected, workload::ServedBy::kNoWorkers);
    return;
  }
  ref->origin = origin;
  track(*ref);
  // Stage the input from the gateway to the storage-head worker over the
  // cluster LAN; shards become schedulable on delivery.
  network_.send(
      net::Message{gateway_node_, workers_[0].node(), ref->request.input_size,
                   ref->request.id},
      [this, ref, sent = now()] {
        DF3_OBS_TRACE_IF(o) {
          o->journey_span(this, name(), obs::Phase::kStaging, sent, now(), ref->request.id);
        }
        enqueue_ready(ref);
      },
      [this, ref] {
        // Partitioned from our own workers: the request is lost.
        untrack(*ref);
        ++stats_.dropped;
        finish(ref, workload::Outcome::kDropped, workload::ServedBy::kPartition);
      });
}

void Cluster::enqueue_ready(RequestRef ref) {
  const workload::Request& r = ref->request;
  if (r.tasks <= 0) throw std::invalid_argument("Cluster: request has no tasks");
  const double slowdown = slowdown_for(r);
  for (int i = 0; i < r.tasks; ++i) {
    queue_.push(Task{ref, i, r.work_gigacycles, slowdown, now()});
  }
  pump();
}

void Cluster::track(RequestState& s) {
  s.slot = static_cast<std::uint32_t>(in_flight_.size());
  in_flight_.push_back(&s);
}

void Cluster::untrack(RequestState& s) {
  RequestState* const moved = in_flight_.back();
  in_flight_[s.slot] = moved;
  if (!test_skip_reslot_) moved->slot = s.slot;
  in_flight_.pop_back();
  s.slot = RequestState::kNoSlot;
}

workload::Request Cluster::take(RequestRef ref) {
  workload::Request r = std::move(ref->request);
  requests_->release(ref);
  return r;
}

void Cluster::finish(RequestRef ref, workload::Outcome outcome, workload::ServedBy served_by) {
  const CompletionSink sink = std::move(ref->sink);
  (sink ? sink : sink_)({.request = take(ref), .outcome = outcome, .completed_at = now(),
                         .served_by = served_by});
}

bool Cluster::worker_eligible(std::size_t widx, Priority p) const {
  if (p == Priority::kEdge) return true;
  return widx >= static_cast<std::size_t>(config_.dedicated_edge_workers);
}

bool Cluster::place(Task& t) {
  const Priority prio = t.priority();
  RequestState& s = *t.request;
  // Honor direct-request affinity first.
  if (s.preferred_worker != SIZE_MAX) {
    const std::size_t w = s.preferred_worker;
    if (w < workers_.size() && workers_[w].available() && workers_[w].try_start(t)) {
      s.served_worker = w;
      return true;
    }
    // Pinned (local_only) stages are an execution contract, not a
    // preference: the composer selected *this* worker, computed its time
    // and energy there, and staged the input onto it. Falling through to
    // the shared scan would silently run the stage on a different chassis
    // — found by the model checker as a churn-during-composition
    // interleaving (DESIGN.md §13). The stage waits for its worker instead.
    if (s.local_only) return false;
  }
  // Edge shards draw candidates from the dedicated pool up; cloud shards
  // only from the shared pool. Candidates are offered to the placement
  // policy in ascending worker order, so "first-fit" (pick 0) replays the
  // historical inline scan exactly — including the retry after a try_start
  // refused by a thermal-gating race, which removes the candidate and asks
  // again.
  const std::size_t start =
      prio == Priority::kEdge ? 0 : static_cast<std::size_t>(config_.dedicated_edge_workers);
  place_scratch_.clear();
  for (std::size_t w = start; w < workers_.size(); ++w) {
    if (!worker_eligible(w, prio)) continue;
    if (workers_[w].available()) place_scratch_.push_back({w, workers_[w].free_cores()});
  }
  while (!place_scratch_.empty()) {
    const std::size_t pos = placement_->pick(policy::PlacementView{place_scratch_});
    count(policy_counters_.placement_picks, &CityCounters::placement_picks);
    if (pos >= place_scratch_.size()) {
      throw std::out_of_range("placement policy '" + std::string(placement_->name()) +
                              "' picked a candidate out of range");
    }
    const std::size_t w = place_scratch_[pos].worker;
    if (workers_[w].try_start(t)) {
      s.served_worker = w;
      return true;
    }
    place_scratch_.erase(place_scratch_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return false;
}

bool Cluster::handle_unplaceable_edge(Task t) {
  // Lazy RungView fill: only a ladder that declared needs_grid() pays the
  // lookup, and only when a plane is bound (grid_valid stays false so
  // grid-aware rungs decline cleanly on no-grid runs).
  policy::RungView view;
  if (ladder_needs_grid_ && grid_now_ != nullptr) {
    ++policy_counters_.rung_grid_fills;
    view.grid_valid = true;
    view.curtailment_active = grid_plane_->curtailed(grid_region_);
    view.carbon_gco2_per_kwh = grid_now_->carbon_gco2_per_kwh;
    view.price_eur_per_kwh = grid_now_->price_eur_per_kwh;
  }
  for (std::size_t i = 0; i < ladder_.size(); ++i) {
    switch (ladder_[i]->apply(*this, t, view)) {
      case policy::RungOutcome::kNoOp:
        continue;  // this rung could not help; try the next one
      case policy::RungOutcome::kResolved:
        count_rung(i);
        return true;
      case policy::RungOutcome::kParked:
        count_rung(i);
        return false;
    }
  }
  // Ladder exhausted: the request waits anyway (equivalent to a delay rung).
  count(stats_.edge_delays, &CityCounters::edge_delays);
  DF3_OBS_TRACE_IF(o) {
    o->journey_span(this, name(), obs::Phase::kDelay, now(), now(), t.request->request.id,
                    t.shard_index);
  }
  queue_.push_front(std::move(t));
  return false;
}

policy::RungOutcome Cluster::relieve_by_preemption(Task& t) {
  // A pinned stage may only take a core on its own worker: preempting a
  // victim elsewhere would start the stage on a chassis the composer never
  // selected (same contract as place()).
  const RequestState& s = *t.request;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    if (s.local_only && wi != s.preferred_worker) continue;
    Worker& w = workers_[wi];
    if (w.running_below(Priority::kEdge) == 0) continue;
    auto victim = w.preempt_one(Priority::kEdge);
    if (!victim) continue;
    count(stats_.preemptions, &CityCounters::preemptions);
    DF3_OBS_TRACE_IF(o) {
      o->journey_span(this, name(), obs::Phase::kPreempt, now(), now(), t.request->request.id,
                      t.shard_index);
    }
    victim->remaining_gigacycles += config_.preemption_overhead_gc;
    victim->enqueued_at = now();
    queue_.push_front(std::move(*victim));
    if (w.try_start(t)) {
      t.request->served_worker = wi;
      return policy::RungOutcome::kResolved;
    }
    // Freed core vanished (thermal gating race): wait instead.
    queue_.push_front(std::move(t));
    return policy::RungOutcome::kParked;
  }
  return policy::RungOutcome::kNoOp;  // nothing preemptible
}

policy::RungOutcome Cluster::relieve_by_horizontal(Task& t) {
  RequestState& s = *t.request;
  // local_only: a pinned composition stage must not leave its worker, let
  // alone the cluster — the composer owns its transfers and expects the
  // stage to run where it staged the input. The model checker flushed this
  // as a depth-1 interleaving (pinned stage arriving at a saturated
  // cluster was silently shipped to a peer, DESIGN.md §13).
  if (peers_.empty() || s.foreign || s.local_only) return policy::RungOutcome::kNoOp;
  if (s.request.tasks != 1) {
    return policy::RungOutcome::kNoOp;  // only whole single-shard requests move
  }
  Cluster* const peer = select_peer();
  untrack(s);
  count(stats_.offloaded_horizontal_out, &CityCounters::offload_horizontal);
  DF3_OBS_TRACE_IF(o) {
    // The shard never reached a core here: its local queue time would
    // otherwise vanish from the journey, so close the gap before the
    // offload decision record.
    if (t.enqueued_at >= 0.0) {
      o->journey_span_if_open(this, name(), obs::Phase::kQueueWait, t.enqueued_at, now(),
                              s.request.id, t.shard_index,
                              static_cast<std::uint32_t>(t.shard_index));
    }
    o->journey_span(this, name(), obs::Phase::kOffloadHorizontal, now(), now(), s.request.id,
                    t.shard_index);
  }
  s.request.work_gigacycles = t.remaining_gigacycles;  // keep any progress
  // Pay the gateway-to-gateway hop, then hand over.
  network_.send(
      net::Message{gateway_node_, peer->gateway_node(), s.request.input_size, s.request.id,
                   obs::HopKind::kHandoff},
      [this, peer, ref = t.request] {
        const net::NodeId origin = ref->origin;
        peer->submit_offloaded(take(ref), origin, [this](workload::CompletionRecord rec) {
          rec.served_by = workload::ServedBy::kHorizontal;
          sink_(std::move(rec));
        });
      },
      [this, ref = t.request] {
        // No counter here: responsibility already left this cluster
        // when offloaded_horizontal_out was incremented above, and
        // bumping `rejected` as well would double-count the request
        // in the conservation identity. The platform still sees the
        // loss through the kDropped record.
        //
        // Report straight through our own sink, not the peer's wrapper:
        // the peer never saw this request, so a record claiming it was
        // served kHorizontal misattributes the loss in every served_by
        // metric slice. Flushed by the model checker as a
        // flap-before-hand-off interleaving (DESIGN.md §13).
        finish(ref, workload::Outcome::kDropped, workload::ServedBy::kPartition);
      });
  return policy::RungOutcome::kResolved;
}

Cluster* Cluster::select_peer() {
  peer_scratch_.clear();
  // Control-phase picks read the pre-control lane snapshot (DESIGN.md
  // §12): one consistent per-tick view regardless of how many control
  // lanes run or how the sweep interleaves with peer regulation.
  // Event-time picks (arrivals, completions) see live state: the platform
  // expires every snapshot after the drain. It arms every building
  // cluster in the same tick, so our own stamp answers for the peers too.
  if (lane_snapshot_current()) {
    for (const Cluster* p : peers_) {
      peer_scratch_.push_back({p->lane_backlog_per_core_, p->lane_free_cores_});
    }
  } else {
    for (Cluster* const p : peers_) {
      const double cores = static_cast<double>(std::max(1, p->usable_cores()));
      peer_scratch_.push_back({p->queued_gigacycles() / cores, p->free_cores()});
    }
  }
  policy::PeerView view{peer_scratch_};
  // Lazy PeerView fill, same contract as the RungView above. Peers are
  // bound to the plane together by the platform, so each peer's own sample
  // pointer carries its region's signal.
  if (peer_needs_grid_ && grid_now_ != nullptr) {
    ++policy_counters_.peer_grid_fills;
    view.grid_valid = true;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      peer_scratch_[i].carbon_gco2_per_kwh =
          peers_[i]->grid_now_ != nullptr ? peers_[i]->grid_now_->carbon_gco2_per_kwh : 0.0;
    }
  }
  const std::size_t pos = peer_selector_->pick(view);
  count(policy_counters_.peer_picks, &CityCounters::peer_picks);
  if (pos >= peers_.size()) {
    throw std::out_of_range("peer selector '" + std::string(peer_selector_->name()) +
                            "' picked a peer out of range");
  }
  return peers_[pos];
}

policy::RungOutcome Cluster::relieve_by_vertical(Task& t) {
  RequestState& s = *t.request;
  // local_only: same pinned-stage contract as relieve_by_horizontal.
  if (datacenter_ == nullptr || s.local_only) return policy::RungOutcome::kNoOp;
  if (s.request.privacy_sensitive) {
    return policy::RungOutcome::kNoOp;  // must stay local
  }
  if (s.request.tasks != 1) return policy::RungOutcome::kNoOp;
  untrack(s);
  count(stats_.offloaded_vertical, &CityCounters::offload_vertical);
  DF3_OBS_TRACE_IF(o) {
    if (t.enqueued_at >= 0.0) {
      o->journey_span_if_open(this, name(), obs::Phase::kQueueWait, t.enqueued_at, now(),
                              s.request.id, t.shard_index,
                              static_cast<std::uint32_t>(t.shard_index));
    }
    o->journey_span(this, name(), obs::Phase::kOffloadVertical, now(), now(), s.request.id,
                    t.shard_index);
  }
  s.request.work_gigacycles = t.remaining_gigacycles;
  const net::NodeId origin = s.origin;
  CompletionSink sink = s.sink ? std::move(s.sink) : sink_;
  datacenter_->submit(take(t.request), origin, std::move(sink));
  return policy::RungOutcome::kResolved;
}

policy::RungOutcome Cluster::relieve_by_delay(Task& t) {
  count(stats_.edge_delays, &CityCounters::edge_delays);
  DF3_OBS_TRACE_IF(o) {
    o->journey_span(this, name(), obs::Phase::kDelay, now(), now(), t.request->request.id,
                    t.shard_index);
  }
  queue_.push_front(std::move(t));
  return policy::RungOutcome::kParked;
}

void Cluster::pump() {
  if (pumping_) return;  // completions re-enter; the outer loop continues
  pumping_ = true;
  while (!queue_.empty()) {
    Task t = *queue_.pop();
    // Abandon expired real-time work at dispatch: running an alarm whose
    // deadline passed wastes a core and hides the miss from the metrics.
    if (t.priority() == Priority::kEdge && t.request->request.tasks == 1) {
      const auto dl = t.deadline();
      if (dl && *dl < now()) {
        abandon_expired(std::move(t));
        continue;
      }
    }
    if (place(t)) continue;
    if (t.priority() == Priority::kEdge) {
      // Returns false when the shard ended up waiting in the queue — no
      // capacity exists anywhere, so stop scanning.
      if (!handle_unplaceable_edge(std::move(t))) break;
      continue;
    }
    // Cloud shard and no shared core free: wait for a completion.
    queue_.push_front(std::move(t));
    break;
  }
  pumping_ = false;
}

void Cluster::abandon_expired(Task t) {
  untrack(*t.request);
  ++stats_.deadline_missed;
  // The shard dies in the queue; record the wait so the journey tiles up to
  // the deadline-missed terminal (emitted by the sink at this same instant).
  DF3_OBS_TRACE_IF(o) {
    if (t.enqueued_at >= 0.0) {
      o->journey_span_if_open(this, name(), obs::Phase::kQueueWait, t.enqueued_at, now(),
                              t.request->request.id, t.shard_index,
                              static_cast<std::uint32_t>(t.shard_index));
    }
  }
  sim().schedule_in(0.0, [this, ref = t.request] {
    finish(ref, workload::Outcome::kDeadlineMissed, workload::ServedBy::kExpired);
  });
}

void Cluster::on_task_done(std::size_t /*worker*/, Task t) {
  if (--t.request->shards_remaining == 0) complete(t.request);
  pump();
}

void Cluster::complete(RequestRef ref) {
  RequestState& s = *ref;
  untrack(s);
  ++stats_.completed;
  if (s.foreign) stats_.foreign_gigacycles += s.request.total_work();
  if (s.local_only) {
    // Composition stage: the caller owns all transfers.
    sim().schedule_in(0.0, [this, ref] {
      finish(ref, outcome_at(ref->request, now()), workload::ServedBy::kPinned);
    });
    return;
  }
  // Ship the result back to the origin: straight from the serving worker
  // for direct requests, relayed via the gateway otherwise. The serving
  // worker can differ from the preferred one — placement falls through to
  // the shared scan when the preferred worker is busy or gated — and the
  // result lives where the work ran, not where the device first connected.
  const net::NodeId from = (s.preferred_worker != SIZE_MAX && s.served_worker < workers_.size())
                               ? workers_[s.served_worker].node()
                               : gateway_node_;
  network_.send(
      net::Message{from, s.origin, s.request.output_size, s.request.id, obs::HopKind::kReturn},
      [this, ref] {
        finish(ref, outcome_at(ref->request, now()), workload::ServedBy::kLocal);
      },
      [this, ref] {
        // The work was done (stats_.completed already counted it); only
        // the result transport was lost, so no further cluster counter.
        finish(ref, workload::Outcome::kDropped, workload::ServedBy::kReturnPartition);
      });
}

void Cluster::audit(std::vector<std::string>& out) const {
  const std::uint64_t intake = stats_.intake();
  const std::uint64_t terminal = stats_.terminal();
  const auto in_flight = static_cast<std::uint64_t>(in_flight_.size());
  if (intake != terminal + in_flight) {
    out.push_back(name() + ": conservation violated — intake " + std::to_string(intake) +
                  " != terminal " + std::to_string(terminal) + " + in_flight " +
                  std::to_string(in_flight));
  }
  // The in-flight list against its oracle: every stored slot is the entry's
  // position (swap-erase re-slots the entry it moves), and no request id
  // other than 0 — the anonymous id of composition stages and hand-built
  // requests — is in flight twice.
  std::vector<std::uint64_t> ids;
  ids.reserve(in_flight_.size());
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    const RequestState& s = *in_flight_[i];
    if (s.slot != i) {
      out.push_back(name() + ": in-flight entry " + std::to_string(i) + " (request id " +
                    std::to_string(s.request.id) + ") stores slot " + std::to_string(s.slot));
    }
    if (s.request.id != 0) ids.push_back(s.request.id);
  }
  std::sort(ids.begin(), ids.end());
  for (auto it = std::adjacent_find(ids.begin(), ids.end()); it != ids.end();
       it = std::adjacent_find(std::upper_bound(it, ids.end(), *it), ids.end())) {
    out.push_back(name() + ": request id " + std::to_string(*it) + " is in flight twice");
  }
  queue_.audit(out, name() + "/queue");
  for (const auto& w : workers_) w.audit(out);
}

}  // namespace df3::core
