#pragma once
/// \file policy.hpp
/// \brief The decision plane: strategy interfaces for the four policy seams.
///
/// The paper's contribution is a *design space* — peak-management ladders,
/// cloud-routing choices, federation topologies, worker placement — and the
/// simulator's job is to let experiments walk that space. This module
/// separates those decisions from the mechanisms that execute them
/// (DESIGN.md §11):
///
///   PeakRung        one rung of the edge peak-management ladder
///   RoutingPolicy   which cluster (or the datacenter) serves a cloud request
///   PeerSelector    which peer receives a horizontal offload
///   PlacementPolicy which eligible worker runs a shard
///
/// Policies are deliberately *leaf* abstractions: they see plain value views
/// (backlogs, free cores, heat demand per core) rather than core types, so
/// `df3::policy` has no dependency on `df3::core` — core links the policy
/// module, never the other way around. The one exception is the ladder,
/// whose rungs drive cluster mechanisms (preempt, offload, delay) through
/// the abstract `LadderMechanism` interface that `Cluster` implements.
///
/// Policies may be stateful (round-robin cursors, budgets, hysteresis); a
/// fresh instance is built per owner from the string-keyed factory
/// `policy::Registry`, so state is never shared between clusters.
///
/// Determinism contract: a policy's `pick` must depend only on the view it
/// is handed and on its own state — no wall clock, no global RNG — so runs
/// stay bit-for-bit reproducible at any `threads` count.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace df3::core {
class Task;
}

namespace df3::policy {

/// What one ladder rung did with an unplaceable edge shard.
enum class RungOutcome : std::uint8_t {
  kNoOp,      ///< could not help; try the next rung
  kResolved,  ///< shard placed or responsibility handed off; stop the ladder
  kParked,    ///< shard re-queued to wait; stop the ladder *and* the pump scan
};

/// The cluster-side mechanisms a peak rung can drive. Implemented by
/// `core::Cluster`; each call attempts one relief action on the shard and
/// reports how far it got. Rungs stay mechanism-free: they only decide
/// *which* lever to pull and in what order.
class LadderMechanism {
 public:
  virtual ~LadderMechanism() = default;
  /// Evict a preemptible cloud shard and take its core.
  virtual RungOutcome relieve_by_preemption(core::Task& t) = 0;
  /// Forward the whole request to a peer cluster chosen by the selector.
  virtual RungOutcome relieve_by_horizontal(core::Task& t) = 0;
  /// Forward the whole request to the datacenter.
  virtual RungOutcome relieve_by_vertical(core::Task& t) = 0;
  /// Leave the shard queued until capacity frees up.
  virtual RungOutcome relieve_by_delay(core::Task& t) = 0;
};

/// Grid-signal context a peak rung may look at, filled lazily by the
/// cluster only when some rung in the ladder declares `needs_grid()` —
/// same pay-for-what-you-ask contract as the routing view.
struct RungView {
  bool grid_valid = false;           ///< a grid plane is installed and sampled
  bool curtailment_active = false;   ///< this cluster's region is in a demand-response window
  double carbon_gco2_per_kwh = 0.0;  ///< region carbon intensity at the last tick
  double price_eur_per_kwh = 0.0;    ///< region spot price at the last tick
};

/// One rung of the edge peak-management ladder (paper section III-B). Rungs
/// are small stateful objects — a rung may carry a budget or hysteresis and
/// decline (`kNoOp`) when it is exhausted.
class PeakRung {
 public:
  virtual ~PeakRung() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Ask the cluster to fill the RungView grid fields before apply().
  [[nodiscard]] virtual bool needs_grid() const { return false; }
  virtual RungOutcome apply(LadderMechanism& mechanism, core::Task& t, const RungView& view) = 0;
};

/// RoutingPolicy::pick returns this sentinel to send the request to the
/// datacenter (or reject it when the platform has none).
inline constexpr std::size_t kRouteToDatacenter = static_cast<std::size_t>(-1);

/// Per-cluster load/heat/grid snapshot for routing decisions, in building
/// order. The load/heat pair is valid under needs_cluster_info(), the grid
/// triple under needs_grid(); unrequested fields are zero (the platform
/// refills the scratch from scratch per pick, so a policy can never observe
/// a stale value it did not ask for).
struct ClusterInfo {
  double backlog_gc_per_core = 0.0;      ///< queued gigacycles / usable cores
  double heat_demand_w_per_core = 0.0;   ///< last-tick heat demand / usable cores
  double carbon_gco2_per_kwh = 0.0;      ///< region carbon intensity (needs_grid())
  double price_eur_per_kwh = 0.0;        ///< region spot price (needs_grid())
  double renewable_fraction = 0.0;       ///< region renewable share (needs_grid())
};

/// Everything a routing policy may look at. The season, cluster and grid
/// fields are only populated when the policy declares it needs them
/// (`needs_*`), so cheap policies keep the per-arrival cost at O(1).
struct RoutingView {
  std::size_t cluster_count = 0;         ///< > 0 (the platform short-circuits otherwise)
  bool has_datacenter = false;
  double seasonal_outdoor_c = 0.0;       ///< valid when needs_season()
  double heating_cutoff_c = 0.0;         ///< valid when needs_season()
  std::span<const ClusterInfo> clusters; ///< valid when needs_cluster_info() or needs_grid()
  /// True when needs_grid() was honored: a grid plane is installed and the
  /// ClusterInfo grid fields hold the last tick's samples. Grid-aware
  /// policies must fall back (e.g. to round-robin) when false.
  bool grid_valid = false;
};

/// Decides which cluster serves an arriving cloud request.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Ask the platform to fill RoutingView::seasonal_outdoor_c / cutoff.
  [[nodiscard]] virtual bool needs_season() const { return false; }
  /// Ask the platform to fill RoutingView::clusters (O(clusters) per pick).
  [[nodiscard]] virtual bool needs_cluster_info() const { return false; }
  /// Ask the platform to fill the per-cluster grid fields (O(clusters)).
  [[nodiscard]] virtual bool needs_grid() const { return false; }
  /// Cluster index in [0, cluster_count), or kRouteToDatacenter.
  virtual std::size_t pick(const RoutingView& view) = 0;
};

/// Per-peer load snapshot, in ring order: peers[0] is the next neighbor of
/// the offloading cluster, peers[1] the one after, and so on. The carbon
/// field is valid under needs_grid() only (zero otherwise — the scratch is
/// refilled per pick, never stale).
struct PeerInfo {
  double backlog_gc_per_core = 0.0;
  int free_cores = 0;
  double carbon_gco2_per_kwh = 0.0;  ///< peer region carbon intensity (needs_grid())
};

struct PeerView {
  std::span<const PeerInfo> peers;  ///< non-empty when pick is called
  bool grid_valid = false;          ///< needs_grid() honored (a plane is installed)
};

/// Decides which federation peer receives a horizontal offload.
class PeerSelector {
 public:
  virtual ~PeerSelector() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Ask the cluster to fill the per-peer grid fields.
  [[nodiscard]] virtual bool needs_grid() const { return false; }
  /// Index into view.peers.
  virtual std::size_t pick(const PeerView& view) = 0;
};

/// One placeable worker: `worker` is the cluster-local worker index.
/// Candidates arrive in ascending worker order, pre-filtered to workers
/// that are eligible for the shard's priority class and have a free core.
struct PlacementCandidate {
  std::size_t worker = 0;
  int free_cores = 0;
};

struct PlacementView {
  std::span<const PlacementCandidate> candidates;  ///< non-empty when pick is called
};

/// Decides which candidate worker runs a shard. If the chosen worker turns
/// out unable to start it (thermal gating race), the cluster removes that
/// candidate and asks again.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Index into view.candidates.
  virtual std::size_t pick(const PlacementView& view) = 0;
};

}  // namespace df3::policy
