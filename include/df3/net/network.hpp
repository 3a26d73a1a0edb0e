#pragma once
/// \file network.hpp
/// \brief Store-and-forward network simulation with per-link queuing.
///
/// The topology is an undirected graph of named nodes joined by links, each
/// carrying a `LinkProfile`. A message from A to B follows the minimum-
/// latency route for its size. Dijkstra over unloaded one-hop delay finds
/// that route once per (src, dst, size), relaxing only the links of the
/// biconnected blocks between A and B; an exact route cache serves it after
/// that. `add_node` and `add_link` clear the cache; a link flap makes stale
/// the cached routes that cross its biconnected block (DESIGN.md, "Route
/// cache"). Per hop, a message experiences:
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
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

/// Traffic a link carried, both directions together.
struct LinkStats {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double busy_seconds = 0.0;  ///< cumulative serialization time carried
};

class Network : public sim::Entity {
 public:
  explicit Network(sim::Simulation& sim, std::string name = "net");

  /// Add a node; returns its id. Node names must be unique
  /// (std::invalid_argument otherwise).
  NodeId add_node(std::string_view node_name);

  /// Node lookup by name, O(1) on average; std::out_of_range if unknown.
  [[nodiscard]] NodeId node(std::string_view node_name) const;
  /// The name of node `id`, valid until the next add_node; std::out_of_range
  /// for an unknown id.
  [[nodiscard]] std::string_view node_name(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return name_end_.size(); }

  /// Join two nodes with a bidirectional link; returns the link index.
  /// Throws like check_link_profile for a bad profile.
  std::size_t add_link(NodeId a, NodeId b, const LinkProfile& profile);
  /// Throws std::invalid_argument, naming the field, unless the bandwidth is
  /// > 0, the duty cycle in (0, 1] and the base latency finite and >= 0.
  static void check_link_profile(const LinkProfile& profile);

  /// Enable/disable a link (network partition injection).
  void set_link_up(std::size_t link, bool up);
  [[nodiscard]] bool link_up(std::size_t link) const;
  /// Number of links added so far (valid link indices are [0, link_count)).
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Minimum-delay route for a message of `size`; empty when unreachable.
  /// The route is the sequence of link indices traversed. Routes are cached
  /// per (src, dst, size). add_node and add_link clear the cache; a
  /// set_link_up state change makes stale the cached routes that cross the
  /// link's biconnected block, and a stale route is searched again on its
  /// next lookup.
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

  /// Send a message now. `on_delivery` fires at arrival and reads the
  /// arrival time as `now()`; a loopback message (src == dst) arrives in the
  /// send instant. If the destination is unreachable `on_drop` (optional)
  /// fires instead, also in the send instant. Both are engine callbacks,
  /// handed to the calendar as they are, so a capture of up to 48 bytes
  /// costs no heap object. Accounts queuing on every traversed link. Throws
  /// std::invalid_argument when `on_delivery` is empty.
  void send(const Message& msg, sim::Simulation::Callback on_delivery,
            sim::Simulation::Callback on_drop = nullptr);

  [[nodiscard]] const LinkStats& stats(std::size_t link) const;
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

  /// The route cache holds at most this many (src, dst, size) routes and
  /// empties when it fills, so payload sizes drawn from a continuous
  /// distribution cannot grow it without limit.
  static constexpr std::size_t kRouteCacheCapacity = 65536;
  /// Number of routes currently cached, stale ones included.
  [[nodiscard]] std::size_t route_cache_entries() const { return route_count_; }
  /// Dijkstra searches run by route lookups so far (cache misses plus
  /// stale entries searched again).
  [[nodiscard]] std::uint64_t route_searches() const { return route_searches_; }
  /// Nodes settled by those searches, summed. A search relaxes only the
  /// links of the biconnected blocks on the way from src to dst, so this
  /// grows with route length, not with city size.
  [[nodiscard]] std::uint64_t route_nodes_settled() const { return route_nodes_settled_; }
  /// Re-derives every cached route that a lookup would serve with a search
  /// of the whole graph that leaves the cache alone, and returns one line
  /// per route that differs from it. Empty means the cache is exact.
  [[nodiscard]] std::vector<std::string> verify_route_cache() const;

 private:
  struct Link {
    NodeId a, b;
    std::uint32_t profile;  ///< index into profiles_
    bool up = true;
    /// Earliest time each direction is free (0: a->b, 1: b->a).
    std::array<sim::Time, 2> next_free{0.0, 0.0};
    LinkStats stats{};
  };
  /// One direction of a link, seen from the node it leaves.
  struct Arc {
    NodeId to;
    std::uint32_t link;
    std::uint32_t block;  ///< the link's biconnected block
  };
  /// No link, or no block-cut tree vertex (an isolated node's, a root's
  /// parent).
  static constexpr std::uint32_t kNoIndex = std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::string_view name_of(NodeId id) const {
    const std::uint32_t begin = id == 0 ? 0 : name_end_[id - 1];
    return std::string_view(name_chars_).substr(begin, name_end_[id] - begin);
  }
  /// The name index slot holding `node_name`, or the empty slot where it
  /// belongs. The index must not be empty.
  [[nodiscard]] std::size_t name_slot(std::string_view node_name) const;
  /// Doubles the name index (at least 16 slots) and re-places every node.
  void grow_name_index();

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
  /// A cached route: `hops` link indices starting at route_store_[begin].
  struct RouteEntry {
    std::size_t begin;
    std::uint32_t hops;
    /// Flip epoch at which the entry was last known fresh.
    std::uint64_t epoch;
  };
  /// A slot of the route index, an open-addressing table with linear
  /// probing, a power-of-two size and at most half its slots full. One flat
  /// block instead of a heap node per route keeps long runs under flaps
  /// from fragmenting the heap. Routes are only added or all cleared, so
  /// there are no tombstones; a slot is empty while key.src == key.dst,
  /// which no cached key has.
  struct RouteSlot {
    RouteKey key{0, 0, 0};
    RouteEntry entry{};
    [[nodiscard]] bool used() const { return key.src != key.dst; }
  };

  /// The route lookup behind route(), unloaded_delay() and send(). The span
  /// points into route_store_ and is valid until the next lookup or topology
  /// change.
  [[nodiscard]] std::span<const std::uint32_t> cached_route(NodeId src, NodeId dst,
                                                            util::Bytes size) const;
  /// Dijkstra from src until dst settles, into dist_ and via_link_, with
  /// one_hop_delay(size) of every profile in weight_; returns the number of
  /// nodes it settled. It relaxes only links in the blocks that
  /// mark_path_blocks() marks, which yields the same route, or with
  /// `whole_graph` every link.
  std::size_t search_route(NodeId src, NodeId dst, util::Bytes size, bool whole_graph) const;
  /// Marks the blocks on the block-cut tree path from src to dst; false
  /// when no link path joins them, up or down.
  [[nodiscard]] bool mark_path_blocks(NodeId src, NodeId dst) const;
  /// Appends the hops of the last search's src -> dst path, in traversal
  /// order; appends nothing when dst was unreachable.
  void append_search_path(NodeId src, NodeId dst, std::vector<std::uint32_t>& out) const;
  /// Searches src -> dst and appends the route to route_store_.
  [[nodiscard]] RouteEntry store_route(NodeId src, NodeId dst, util::Bytes size) const;
  /// The slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] RouteSlot& route_slot(const RouteKey& key) const;
  /// Doubles the route index and re-places every route.
  void grow_routes() const;
  /// Whether no block that `e`'s route crosses has flipped since `e.epoch`.
  /// An unreachable entry goes stale on any flip.
  [[nodiscard]] bool route_fresh(const RouteEntry& e) const;
  /// Rebuilds the arc lists, the biconnected blocks and the block-cut tree
  /// from links_ after add_node/add_link.
  void build_arcs() const;
  /// Hopcroft-Tarjan over every link, up or down: fills link_block_, stamps
  /// each arc with its block, fills node_vertex_, bct_parent_ and
  /// bct_depth_, and zeroes block_flip_epoch_.
  void build_blocks() const;
  void clear_routes() const;
  /// Drops dead route_store_ slices.
  void compact_routes() const;

  /// Node names back to back: node u's name ends at name_end_[u] and
  /// starts where node u-1's ends.
  std::string name_chars_;
  std::vector<std::uint32_t> name_end_;
  /// Name index: node ids by name hash, open addressing with linear
  /// probing, a power-of-two size and at most half its slots full;
  /// kNoIndex marks an empty slot. Nodes are never removed, so there are
  /// no tombstones.
  std::vector<NodeId> name_slots_;
  std::vector<Link> links_;
  /// Distinct link profiles; links refer to them by index.
  std::vector<LinkProfile> profiles_;
  /// Flat arc lists: node u's arcs are arcs_[arc_begin_[u], arc_begin_[u+1])
  /// in link insertion order. Built on the first search after a topology
  /// change; empty while arcs_stale_.
  mutable std::vector<Arc> arcs_;
  mutable std::vector<std::uint32_t> arc_begin_;
  mutable bool arcs_stale_ = true;
  /// Block-cut tree over the blocks of every link, up or down, so flips
  /// never change it. Vertices [0, block_count_) are blocks, the rest cut
  /// nodes. node_vertex_[u] is u's cut vertex if u is a cut node, else its
  /// one block, else kNoIndex (no links). bct_parent_ is kNoIndex at a
  /// root; there is one tree per component.
  mutable std::uint32_t block_count_ = 0;
  mutable std::vector<std::uint32_t> link_block_;  // per link: its block
  mutable std::vector<std::uint32_t> node_vertex_;
  mutable std::vector<std::uint32_t> bct_parent_;
  mutable std::vector<std::uint32_t> bct_depth_;
  /// Per block: the search stamp of the last search whose path it is on.
  mutable std::vector<std::uint64_t> block_mark_;
  mutable std::uint64_t search_stamp_ = 0;
  /// Link flips so far; the flip epoch that stamps blocks and routes.
  std::uint64_t flip_epoch_ = 0;
  /// Per block: flip epoch of the last flip of one of its links. Zeroed
  /// with every block rebuild, which only follows add_node or add_link and
  /// so finds the cache empty; while the blocks are stale, flips stamp
  /// nothing.
  mutable std::vector<std::uint64_t> block_flip_epoch_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  /// min_peer_latency() memo; < 0 = stale (recompute on next query).
  mutable double min_peer_latency_cache_ = -1.0;
  /// Route cache and Dijkstra scratch. They are mutable because route() and
  /// unloaded_delay() are const queries, and need no lock because a Network
  /// is only touched on the event-loop thread: control lanes run only the
  /// engine-free sync_workers() of control-quiescent clusters, which sends
  /// nothing (DESIGN.md §12). The TSan CI job runs the lane suites.
  mutable std::vector<RouteSlot> route_slots_;
  mutable std::size_t route_count_ = 0;
  mutable std::vector<std::uint32_t> route_store_;  // the entries' slices, back to back
  mutable std::size_t dead_slices_ = 0;  // slices of entries searched again since
  mutable std::uint64_t route_searches_ = 0;
  mutable std::uint64_t route_nodes_settled_ = 0;
  mutable std::vector<double> weight_;  // per profile: one_hop_delay of the searched size
  mutable std::vector<double> dist_;  // +inf except at touched_
  mutable std::vector<NodeId> touched_;  // nodes the last search gave a distance
  mutable std::vector<std::uint32_t> via_link_;
  mutable std::vector<std::pair<double, NodeId>> heap_;
};

}  // namespace df3::net
