#pragma once
/// \file cluster.hpp
/// \brief The DF3 cluster: gateway + workers + peak-management policies.
///
/// This is the component architecture of the paper's Figure 5. A cluster
/// groups the DF servers of one building/district behind a gateway that
/// receives requests from both flows and assigns their task shards to
/// workers. It implements the paper's design space:
///
///  * **architecture class A (shared)** — every worker serves both edge and
///    DCC shards; edge outranks cloud, with preemption available;
///  * **architecture class B (dedicated)** — the first `dedicated_edge_
///    workers` workers accept *only* edge shards (guaranteed minimal QoS,
///    paid for in idle capacity);
///  * **peak management** — when an edge shard cannot be placed:
///    preemption, vertical offloading (datacenter), horizontal offloading
///    (a federation peer), or delaying, per the configured rung ladder;
///  * cloud shards exceeding the backlog threshold offload vertically
///    (Qarnot hybrid infrastructure).
///
/// Decisions live in the policy layer (DESIGN.md §11): the peak ladder is a
/// list of `policy::PeakRung` objects driving this cluster through the
/// `policy::LadderMechanism` interface, worker selection goes through a
/// `policy::PlacementPolicy`, and the horizontal-offload target is chosen
/// from the cluster's peer *set* by a `policy::PeerSelector`. All three are
/// named in `ClusterConfig` and resolved via `policy::Registry::global()`;
/// the defaults reproduce the historical hardcoded behavior bit-for-bit.
///
/// Transport: inputs move origin -> gateway -> staging worker over the real
/// simulated network (queuing included); outputs move back to the origin.
/// Direct edge requests (paper II-C) skip the gateway hop.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "df3/core/scheduler.hpp"
#include "df3/core/task.hpp"
#include "df3/core/worker.hpp"
#include "df3/net/network.hpp"
#include "df3/obs/metrics.hpp"
#include "df3/policy/policy.hpp"
#include "df3/util/stable_vector.hpp"
#include "df3/workload/request.hpp"

namespace df3::grid {
class GridPlane;
struct GridSample;
}  // namespace df3::grid

namespace df3::core {

/// Anything that can execute a full request remotely (a datacenter, or in
/// tests a stub). Used as the vertical-offload target.
class ComputeService {
 public:
  virtual ~ComputeService() = default;

  /// Execute `r` on behalf of a client at `origin`; `done` fires with the
  /// completion record (network round trip included).
  virtual void submit(workload::Request r, net::NodeId origin, CompletionSink done) = 0;
};

/// Checkpoint/restore cost charged to a preempted shard (gigacycles added
/// to its remaining work): serializing container state is not free.
inline constexpr double kPreemptionOverheadGc = 2.0;
/// Reference fabric bandwidth for the coupled-app slowdown model (the
/// datacenter-grade fabric tightly coupled apps were written for).
inline constexpr double kReferenceFabricGbps = 10.0;

/// What a cluster is told at construction. The scalars every cluster
/// shares are constants: the gateway queue is EDF (scheduler.hpp), a
/// preempted shard pays kPreemptionOverheadGc, and the coupled-app slowdown
/// compares the cluster's fabric with kReferenceFabricGbps. The fabric
/// itself is the LAN joining the workers: 1 Gb/s until set_fabric_gbps
/// (the platform sets it from each building's LAN profile).
struct ClusterConfig {
  /// Class B when > 0: that many workers are reserved for edge shards.
  int dedicated_edge_workers = 0;
  /// Rung names tried in order for edge shards that cannot be placed on
  /// arrival; resolved through policy::Registry::global() (built-ins:
  /// preempt, horizontal, vertical, delay). Exhausting the ladder is
  /// equivalent to a trailing "delay".
  std::vector<std::string> edge_peak_ladder = {"preempt", "delay"};
  /// Worker-selection policy (built-ins: first-fit, best-fit).
  std::string placement = "first-fit";
  /// Horizontal-offload target selector (built-ins: ring, least-loaded).
  std::string peer_select = "ring";
  /// Cloud backlog (gigacycles per usable core) beyond which *new* cloud
  /// requests are offloaded vertically; infinity disables.
  double cloud_offload_backlog_gc_per_core = std::numeric_limits<double>::infinity();
};

/// Per-cluster activity counters (fairness accounting, section III-B).
///
/// The counters obey a conservation identity the lifecycle auditor checks
/// at every audit point (DESIGN.md §9): every request that entered the
/// cluster (`intake()`) is either still in flight or reached exactly one
/// terminal disposition (`terminal()`):
///
///     intake() == terminal() + in_flight
///
/// The identity holds *instantaneously* at every simulation instant, not
/// just at quiescence: intake counters, terminal counters and the in-flight
/// list are always updated within the same event.
struct ClusterStats {
  std::uint64_t received_edge = 0;
  std::uint64_t received_cloud = 0;
  /// Pinned composition-stage executions (run_pinned).
  std::uint64_t received_pinned = 0;
  std::uint64_t completed = 0;
  std::uint64_t preemptions = 0;
  /// Times an unplaceable edge shard was left queued by the kDelay rung
  /// (or by exhausting the ladder). Activity counter, not a terminal: the
  /// shard stays in flight.
  std::uint64_t edge_delays = 0;
  std::uint64_t offloaded_vertical = 0;
  std::uint64_t offloaded_horizontal_out = 0;
  std::uint64_t offloaded_horizontal_in = 0;
  std::uint64_t rejected = 0;
  /// Lost to a network partition (staging or horizontal hand-off transfer).
  std::uint64_t dropped = 0;
  /// Abandoned at dispatch because the absolute deadline had already
  /// passed. Requests whose *result* arrives late count as `completed`
  /// here (the cluster did the work); the CompletionRecord carries the
  /// kDeadlineMissed outcome for the platform-level metrics.
  std::uint64_t deadline_missed = 0;
  /// Gigacycles completed on behalf of peer clusters (fairness accounting
  /// for multi-organization cooperation, paper ref. [16]).
  double foreign_gigacycles = 0.0;

  /// Requests this cluster became responsible for.
  [[nodiscard]] std::uint64_t intake() const {
    return received_edge + received_cloud + received_pinned + offloaded_horizontal_in;
  }
  /// Requests that reached a terminal disposition here (including handing
  /// responsibility to a peer or the datacenter).
  [[nodiscard]] std::uint64_t terminal() const {
    return completed + rejected + dropped + deadline_missed + offloaded_vertical +
           offloaded_horizontal_out;
  }
};

/// City-wide decision counters (DESIGN.md §10): handles into the owning
/// platform's metric registry. A bound cluster bumps them where the event
/// happens, next to its own `ClusterStats` / `PolicyCounters`, so the
/// platform's per-tick feed never re-sums the clusters. `rung` is parallel
/// to ClusterConfig::edge_peak_ladder; repeated rung names hold the same
/// id, so their hits sum into one instrument.
struct CityCounters {
  obs::MetricRegistry* registry = nullptr;
  obs::MetricId preemptions, offload_horizontal, offload_vertical, edge_delays;
  obs::MetricId placement_picks, peer_picks;
  std::vector<obs::MetricId> rung;
};

class Cluster : public WorkerHost, private policy::LadderMechanism {
 public:
  /// Per-seam decision counters (obs feeds these into the metric registry).
  struct PolicyCounters {
    std::uint64_t placement_picks = 0;  ///< placement-policy selections
    std::uint64_t peer_picks = 0;       ///< peer-selector selections
    /// Times the RungView / PeerView grid fields were filled — only bumped
    /// when some rung (resp. the selector) declared needs_grid() *and* a
    /// grid plane is bound, so tests can prove the lazy-fill gating.
    std::uint64_t rung_grid_fills = 0;
    std::uint64_t peer_grid_fills = 0;
    /// Times ladder rung i resolved or parked the shard (parallel to
    /// ClusterConfig::edge_peak_ladder).
    std::vector<std::uint64_t> rung_hits;
  };

  /// `gateway_node` must exist in `network`. The sink receives every
  /// completion this cluster is responsible for (including ones it
  /// offloaded elsewhere). Request states come from `requests`, which must
  /// outlive the cluster; nullptr gives the cluster a pool of its own. The
  /// cluster keeps the config's scalars; it resolves the policy names here
  /// and keeps none of them.
  Cluster(sim::Simulation& sim, std::string name, const ClusterConfig& config,
          net::Network& network, net::NodeId gateway_node, CompletionSink sink,
          RequestPool* requests = nullptr);

  /// Throws std::invalid_argument, as the constructor does, for a config it
  /// would reject: a negative dedicated_edge_workers, or a rung, placement
  /// or peer-selector name the policy registry does not know.
  static void check_config(const ClusterConfig& config);

  /// Set the bandwidth of the LAN joining the workers (1 Gb/s until set;
  /// the platform sets it from each building's LAN profile). Throws
  /// std::invalid_argument unless positive.
  void set_fabric_gbps(double gbps);

  /// Create and register a worker on `node` with the given chassis.
  /// Returns its index. Workers added first are the dedicated-edge ones
  /// under architecture class B. A worker keeps its address for the
  /// cluster's life.
  std::size_t add_worker(hw::ServerSpec spec, net::NodeId node) {
    return add_worker(hw::ServerModel::intern(std::move(spec)), node);
  }
  std::size_t add_worker(const hw::ServerModel& model, net::NodeId node);
  /// Room for `n` workers in all, stored back to back (add_building knows
  /// its room count up front).
  void reserve_workers(std::size_t n) { workers_.reserve(n); }

  /// Mutable worker access can reach the server control plane (fault
  /// injectors and tests power chassis on/off through here), so it bumps
  /// `control_epoch()`: any activity-gated district (Df3Platform) falls
  /// back to the stepped control path until its regulators re-observe the
  /// servers. Use the const overload for pure reads.
  [[nodiscard]] Worker& worker(std::size_t i) {
    ++control_epoch_;
    return workers_.at(i);
  }
  [[nodiscard]] const Worker& worker(std::size_t i) const { return workers_.at(i); }

  /// Monotonic count of exogenous control-plane touches: mutable worker()
  /// access and pinned (composition) executions. The platform's activity
  /// gating records the value when a district goes quiet and takes the
  /// gated fast path only while it is unchanged — anything that might have
  /// moved a server's powered/P-state/filler settings invalidates the gate.
  [[nodiscard]] std::uint64_t control_epoch() const { return control_epoch_; }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] net::NodeId gateway_node() const { return gateway_node_; }

  /// Append a federation peer. Horizontal offload picks among the peers via
  /// the configured selector; add them in ring order (next neighbor first)
  /// so the default "ring" selector reproduces the classic ring.
  void add_peer(Cluster* peer);
  void clear_peers() { peers_.clear(); }
  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }
  void set_datacenter(ComputeService* dc) { datacenter_ = dc; }

  /// Bind this cluster to its grid region (DESIGN.md §15). `now` points at
  /// the platform's per-tick sample slot for `region` and must stay valid
  /// for the cluster's lifetime; both pointers nullptr (the default) means
  /// no grid plane, in which case grid-aware policies see grid_valid=false.
  void bind_grid(const grid::GridPlane* plane, const grid::GridSample* now, std::size_t region) {
    grid_plane_ = plane;
    grid_now_ = now;
    grid_region_ = region;
  }
  [[nodiscard]] std::size_t grid_region() const { return grid_region_; }

  /// Mirror every ladder/pick counter bump into `city` (nullptr unbinds).
  /// `city` must outlive the binding and its `rung` must cover the ladder.
  void bind_city_counters(const CityCounters* city) { city_ = city; }

  /// Submit a request arriving at the gateway from `origin`. The transport
  /// from the origin to the gateway must already have happened (the
  /// platform pays it); this starts the input staging transfer.
  void submit(workload::Request r, net::NodeId origin) {
    submit(requests_->acquire(std::move(r)), origin);
  }
  /// The same for a state the caller took from this cluster's pool at
  /// intake (the platform does, so one record serves the whole request).
  /// The cluster owns the state from here on.
  void submit(RequestRef ref, net::NodeId origin);

  /// Direct edge request (paper II-C): the device talks straight to worker
  /// `widx`; no gateway staging hop. Shards prefer that worker.
  void submit_direct(workload::Request r, net::NodeId origin, std::size_t widx) {
    submit_direct(requests_->acquire(std::move(r)), origin, widx);
  }
  /// The same for a state taken from this cluster's pool.
  void submit_direct(RequestRef ref, net::NodeId origin, std::size_t widx);

  /// Run a single request pinned to worker `widx`, reporting completion to
  /// `done` directly (no return transport, no platform sink) — the
  /// execution primitive of the service-composition layer, which manages
  /// its own inter-stage transfers. The input is assumed to already be on
  /// the worker.
  void run_pinned(workload::Request r, std::size_t widx, CompletionSink done);

  /// Try to place queued shards on free cores. Called automatically on
  /// arrivals and completions; call after hardware capacity changes.
  void pump();

  /// Propagate a hardware speed change on all workers, then pump.
  /// Header-inline: the physics tick calls this once per building per tick;
  /// pumping an empty queue is a no-op, so the common case stays cheap.
  void sync_workers() {
    for (auto& w : workers_) w.sync_speed();
    if (queue_.size() > 0) pump();
  }

  [[nodiscard]] const ClusterStats& stats() const { return stats_; }
  [[nodiscard]] const PolicyCounters& policy_counters() const { return policy_counters_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  /// Queued-but-not-started work — the load signal peers and routing
  /// policies see (gigacycles, slowdown included).
  [[nodiscard]] double queued_gigacycles() const { return queue_.backlog_gigacycles(); }
  /// Requests accepted but not yet resolved (the in-flight list's size) —
  /// the `in_flight` term of the conservation identity.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

  /// Lifecycle-auditor invariant sweep (DESIGN.md §9). Appends one
  /// human-readable line per violation: conservation identity
  /// (intake == terminal + in_flight), the in-flight list's oracle (every
  /// entry's stored slot is its position; no two entries share a request
  /// id other than 0), EDF lane sortedness, non-negative remaining work,
  /// and per-worker busy-core consistency. Observation only — never
  /// mutates cluster state.
  void audit(std::vector<std::string>& out) const;

  /// Read-only view of the gateway queue — state-capture hook for the model
  /// checker's snapshot digests (DESIGN.md §13).
  [[nodiscard]] const TaskQueue& task_queue() const { return queue_; }

  /// One pending (in-flight) request, as exposed to state capture. The
  /// in-flight list is in no useful order (swap-erase); consumers needing a
  /// canonical order must sort by `id`.
  struct PendingView {
    std::uint64_t id = 0;
    std::size_t preferred_worker = SIZE_MAX;
    std::size_t served_worker = SIZE_MAX;
    bool foreign = false;
    bool local_only = false;
  };
  /// Visit every pending request (unordered — see PendingView). Read-only
  /// state-capture hook for the model checker; not a hot path.
  void for_each_pending(const std::function<void(const PendingView&)>& fn) const {
    for (const RequestState* s : in_flight_) {
      fn(PendingView{s->request.id, s->preferred_worker, s->served_worker, s->foreign,
                     s->local_only});
    }
  }

  /// Test-only fault plant: when set, removing a request from the in-flight
  /// list forgets to re-slot the entry that swap-erase moves into its
  /// place. Exists solely so tests can prove audit() catches a stale slot;
  /// never enable outside a test.
  static void set_test_skip_reslot(bool plant) { test_skip_reslot_ = plant; }

  /// Freeze the load signals peers read through the PeerSelector view
  /// (DESIGN.md §12), stamped with the value `tick` holds now. While the
  /// snapshot is current (`tick` still holds that value), select_peer()
  /// builds PeerInfo from these values instead of live reads, so a
  /// horizontal-offload decision made during the tick's control phase
  /// observes every peer as it stood at the start of the conservative
  /// window — independent of how far other control lanes (or the fused
  /// serial sweep) have advanced. The platform arms every cluster before
  /// its building's physics and advances `tick` after the boundary drain,
  /// which expires every snapshot at once, so event-time pumps (arrivals,
  /// completions) always see live state. `tick` must outlive the cluster.
  void arm_lane_snapshot(const std::uint64_t& tick) {
    lane_backlog_per_core_ = queued_gigacycles() / static_cast<double>(std::max(1, usable_cores()));
    lane_free_cores_ = free_cores();
    lane_tick_ = &tick;
    lane_stamp_ = tick;
  }
  [[nodiscard]] bool lane_snapshot_current() const {
    return lane_tick_ != nullptr && lane_stamp_ == *lane_tick_;
  }

  /// True when this cluster's control-phase speed sync cannot touch shared
  /// simulation state: nothing queued (sync_workers() will not pump) and no
  /// running shard (sync_speed() has nothing to settle or re-arm on the
  /// event calendar). Quiescent clusters complete their sync inside a
  /// parallel control lane; the rest defer it to the serial boundary drain.
  [[nodiscard]] bool control_quiescent() const {
    if (queue_.size() > 0) return false;
    for (const auto& w : workers_) {
      if (w.busy_cores() != 0) return false;
    }
    return true;
  }
  [[nodiscard]] int usable_cores() const {
    int n = 0;
    for (const auto& w : workers_) n += w.server().usable_cores();
    return n;
  }
  [[nodiscard]] int free_cores() const;
  [[nodiscard]] int dedicated_edge_workers() const { return tuning_.dedicated_edge_workers; }

 private:
  /// Accept a request offloaded from a peer cluster. Will not offload it
  /// again horizontally (no ping-pong).
  void submit_offloaded(workload::Request r, net::NodeId origin, CompletionSink peer_sink);
  void stage_and_enqueue(RequestRef ref, net::NodeId origin, bool foreign, CompletionSink sink);
  /// Push the request's shards onto the queue and pump.
  void enqueue_ready(RequestRef ref);
  /// Add to / swap-erase from the in-flight list.
  void track(RequestState& s);
  void untrack(RequestState& s);
  /// Move the request out of its state and give the state back.
  [[nodiscard]] workload::Request take(RequestRef ref);
  /// Build the terminal record, give the state back, then hand the record
  /// to the request's sink (the cluster's own one unless foreign/pinned).
  void finish(RequestRef ref, workload::Outcome outcome, workload::ServedBy served_by);
  [[nodiscard]] double slowdown_for(const workload::Request& r) const;
  [[nodiscard]] bool place(Task& t);
  bool handle_unplaceable_edge(Task t);
  void abandon_expired(Task t);
  void on_task_done(std::size_t worker, Task t) override;
  void complete(RequestRef ref);

  // policy::LadderMechanism — the relief levers the peak rungs pull.
  policy::RungOutcome relieve_by_preemption(Task& t) override;
  policy::RungOutcome relieve_by_horizontal(Task& t) override;
  policy::RungOutcome relieve_by_vertical(Task& t) override;
  policy::RungOutcome relieve_by_delay(Task& t) override;
  /// Pick a horizontal-offload target from the peer set via the selector.
  [[nodiscard]] Cluster* select_peer();
  /// Bump a per-cluster counter and, when bound, its city-wide twin.
  void count(std::uint64_t& stat, obs::MetricId CityCounters::*city_id) {
    ++stat;
    if (city_ != nullptr) city_->registry->at_counter(city_->*city_id).add();
  }
  void count_rung(std::size_t i) {
    ++policy_counters_.rung_hits[i];
    if (city_ != nullptr) city_->registry->at_counter(city_->rung[i]).add();
  }

  /// The ClusterConfig scalars read after construction.
  struct Tuning {
    int dedicated_edge_workers;
    double cloud_offload_backlog_gc_per_core;
    double fabric_gbps;  ///< 1 Gb/s until set_fabric_gbps
  } tuning_;
  net::Network& network_;
  net::NodeId gateway_node_;
  CompletionSink sink_;
  std::unique_ptr<RequestPool> own_requests_;  ///< set when no pool was given
  RequestPool* requests_;
  util::StableVector<Worker> workers_;
  TaskQueue queue_;
  /// Federation peers in ring order (next neighbor first).
  std::vector<Cluster*> peers_;
  ComputeService* datacenter_ = nullptr;
  ClusterStats stats_;
  PolicyCounters policy_counters_;
  const CityCounters* city_ = nullptr;
  // Decision plane, resolved from config names in the constructor.
  std::vector<std::unique_ptr<policy::PeakRung>> ladder_;
  std::unique_ptr<policy::PlacementPolicy> placement_;
  std::unique_ptr<policy::PeerSelector> peer_selector_;
  // Grid binding (see bind_grid); needs_grid flags cached at construction
  // so the no-grid hot path pays a single bool test.
  const grid::GridPlane* grid_plane_ = nullptr;
  const grid::GridSample* grid_now_ = nullptr;
  std::size_t grid_region_ = 0;
  bool ladder_needs_grid_ = false;
  bool peer_needs_grid_ = false;
  // Per-pick scratch (cleared and refilled; never reallocates steady-state).
  std::vector<policy::PlacementCandidate> place_scratch_;
  std::vector<policy::PeerInfo> peer_scratch_;
  /// Requests this cluster is responsible for; each state's `slot` is its
  /// position here.
  std::vector<RequestState*> in_flight_;
  static bool test_skip_reslot_;  ///< see set_test_skip_reslot
  std::uint64_t control_epoch_ = 0;
  bool pumping_ = false;
  /// Lane-snapshot of the peer-visible load signals (see arm_lane_snapshot).
  double lane_backlog_per_core_ = 0.0;
  int lane_free_cores_ = 0;
  const std::uint64_t* lane_tick_ = nullptr;
  std::uint64_t lane_stamp_ = 0;
};

}  // namespace df3::core
