#pragma once
/// \file network.hpp
/// \brief Store-and-forward network simulation with per-link queuing.
///
/// The topology is an undirected graph of named nodes joined by links, each
/// carrying a `LinkProfile`. A message from A to B follows the minimum-
/// latency route for its size. Dijkstra over unloaded one-hop delay finds
/// that route once per (src, dst, size); an exact route cache serves it
/// after that until the topology changes. Per hop, a message experiences:
///
///   queuing   — each link direction is a FIFO server; a message waits until
///               the link is free (this is what makes the shared-vs-
///               segmented LAN experiment E10 meaningful);
///   serialization — size/bandwidth with fragmentation + duty cycle;
///   propagation   — the profile's base latency.
///
/// Delivery is an event on the owning `Simulation`. Partitions are supported
/// by disabling links (failure injection).

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "df3/net/protocol.hpp"
#include "df3/obs/journey.hpp"
#include "df3/sim/engine.hpp"
#include "df3/util/units.hpp"

namespace df3::net {

/// Dense node handle.
using NodeId = std::uint32_t;

/// A message in flight. `payload_tag` lets higher layers route semantics
/// without the network knowing about request types.
struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  util::Bytes size{0.0};
  std::uint64_t payload_tag = 0;
  /// When != kNone, this message is a segment of the request journey tagged
  /// by `payload_tag`: the hop span gets a journey span-link with this kind
  /// as its attribute (obs/journey.hpp). Staging transfers stay kNone —
  /// their journey segment is the cluster's kStaging span.
  obs::HopKind journey_hop = obs::HopKind::kNone;
};

/// Statistics for one link direction.
struct LinkStats {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double busy_seconds = 0.0;  ///< cumulative serialization time carried
};

class Network : public sim::Entity {
 public:
  explicit Network(sim::Simulation& sim, std::string name = "net");

  /// Add a node; returns its id. Node names must be unique.
  NodeId add_node(const std::string& node_name);

  /// Node lookup by name; throws if unknown.
  [[nodiscard]] NodeId node(const std::string& node_name) const;
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }

  /// Join two nodes with a bidirectional link; returns the link index.
  std::size_t add_link(NodeId a, NodeId b, LinkProfile profile);

  /// Enable/disable a link (network partition injection).
  void set_link_up(std::size_t link, bool up);
  [[nodiscard]] bool link_up(std::size_t link) const;
  /// Number of links added so far (valid link indices are [0, link_count)).
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Minimum-delay route for a message of `size`; empty when unreachable.
  /// The route is the sequence of link indices traversed. Routes are cached
  /// per (src, dst, size); add_link and set_link_up state changes clear the
  /// cache, like the min_peer_latency() memo.
  [[nodiscard]] std::vector<std::size_t> route(NodeId src, NodeId dst, util::Bytes size) const;

  /// Unloaded end-to-end delay along the current best route (no queuing).
  /// nullopt when unreachable.
  [[nodiscard]] std::optional<util::Seconds> unloaded_delay(NodeId src, NodeId dst,
                                                            util::Bytes size) const;

  /// Minimum propagation latency over all *up* links — the conservative
  /// lookahead bound of the parallel control plane (DESIGN.md §12): no
  /// cross-cluster influence travels faster than the fastest live link's
  /// base latency, so control lanes may advance one tick instant
  /// independently whenever this is positive. Cached O(1); the cache is
  /// invalidated by add_link and by set_link_up state changes (LinkFlapper
  /// transitions arrive through set_link_up). +infinity when no link is up:
  /// a fully partitioned fleet exchanges no messages at all, which is the
  /// loosest possible lookahead, not a hazard.
  [[nodiscard]] util::Seconds min_peer_latency() const;

  /// Send a message now. `on_delivery(delivered_at)` fires at arrival; if
  /// the destination is unreachable `on_drop()` fires immediately (same
  /// simulation instant). Accounts queuing on every traversed link.
  void send(const Message& msg, std::function<void(sim::Time)> on_delivery,
            std::function<void()> on_drop = nullptr);

  [[nodiscard]] const LinkStats& stats(std::size_t link) const;
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

  /// The route cache holds at most this many (src, dst, size) routes and
  /// empties when it fills, so payload sizes drawn from a continuous
  /// distribution cannot grow it without limit.
  static constexpr std::size_t kRouteCacheCapacity = 65536;
  /// Number of routes currently cached.
  [[nodiscard]] std::size_t route_cache_entries() const { return route_index_.size(); }

 private:
  struct Link {
    NodeId a, b;
    LinkProfile profile;
    bool up = true;
    /// Earliest time each direction is free (0: a->b, 1: b->a).
    std::array<sim::Time, 2> next_free{0.0, 0.0};
    std::array<LinkStats, 2> dir_stats{};
  };

  [[nodiscard]] static std::size_t direction(const Link& l, NodeId from) {
    return from == l.a ? 0 : 1;
  }

  /// Route cache key. The payload size enters by bit pattern, not by size
  /// bucket: one_hop_delay(size) decides which path wins, so only an exact
  /// key returns the route a fresh search would.
  struct RouteKey {
    NodeId src;
    NodeId dst;
    std::uint64_t size_bits;
    bool operator==(const RouteKey&) const = default;
  };
  struct RouteKeyHash {
    std::size_t operator()(const RouteKey& k) const noexcept;
  };
  /// A cached route: `length` hops starting at route_hops_[begin].
  struct RouteSlice {
    std::size_t begin;
    std::size_t length;
  };

  /// The route lookup behind route(), unloaded_delay() and send(). The span
  /// points into route_hops_ and is valid until the next lookup or topology
  /// change.
  [[nodiscard]] std::span<const std::size_t> cached_route(NodeId src, NodeId dst,
                                                          util::Bytes size) const;
  /// Dijkstra from src until dst settles, into dist_ and via_link_.
  void search_route(NodeId src, NodeId dst, util::Bytes size) const;
  /// Drops every memo derived from the set of up links.
  void topology_changed();
  void clear_routes() const;

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<Link> links_;
  std::vector<std::vector<std::size_t>> adjacency_;  // node -> link indices
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  mutable LinkStats merged_stats_{};  // scratch for stats() aggregation
  /// min_peer_latency() memo; < 0 = stale (recompute on next query).
  mutable double min_peer_latency_cache_ = -1.0;
  /// Route cache and Dijkstra scratch. They are mutable because route() and
  /// unloaded_delay() are const queries, and need no lock because a Network
  /// is only touched on the event-loop thread: control lanes run only the
  /// engine-free sync_workers() of control-quiescent clusters, which sends
  /// nothing (DESIGN.md §12). The TSan CI job runs the lane suites.
  mutable std::unordered_map<RouteKey, RouteSlice, RouteKeyHash> route_index_;
  mutable std::vector<std::size_t> route_hops_;  // the cached routes, back to back
  mutable std::vector<double> dist_;
  mutable std::vector<std::size_t> via_link_;
  mutable std::vector<std::pair<double, NodeId>> heap_;
};

}  // namespace df3::net
