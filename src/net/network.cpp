#include "df3/net/network.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>

#include "df3/obs/obs.hpp"
#include "df3/util/rng.hpp"

namespace df3::net {

std::size_t Network::RouteKeyHash::operator()(const RouteKey& k) const noexcept {
  std::uint64_t state = ((std::uint64_t{k.src} << 32) | k.dst) ^ std::rotl(k.size_bits, 29);
  return static_cast<std::size_t>(util::splitmix64(state));
}

Network::Network(sim::Simulation& sim, std::string name) : sim::Entity(sim, std::move(name)) {}

NodeId Network::add_node(const std::string& node_name) {
  if (by_name_.contains(node_name)) {
    throw std::invalid_argument("Network::add_node: duplicate name " + node_name);
  }
  const auto id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(node_name);
  by_name_.emplace(node_name, id);
  adjacency_.emplace_back();
  return id;
}

NodeId Network::node(const std::string& node_name) const {
  const auto it = by_name_.find(node_name);
  if (it == by_name_.end()) throw std::out_of_range("Network::node: unknown " + node_name);
  return it->second;
}

const std::string& Network::node_name(NodeId id) const { return node_names_.at(id); }

std::size_t Network::add_link(NodeId a, NodeId b, LinkProfile profile) {
  if (a >= node_names_.size() || b >= node_names_.size()) {
    throw std::out_of_range("Network::add_link: unknown node");
  }
  if (a == b) throw std::invalid_argument("Network::add_link: self loop");
  links_.push_back(Link{a, b, std::move(profile), true, {0.0, 0.0}, {}});
  const std::size_t idx = links_.size() - 1;
  adjacency_[a].push_back(idx);
  adjacency_[b].push_back(idx);
  topology_changed();
  return idx;
}

void Network::set_link_up(std::size_t link, bool up) {
  Link& l = links_.at(link);
  if (l.up != up) {
    l.up = up;
    topology_changed();
  }
}
bool Network::link_up(std::size_t link) const { return links_.at(link).up; }

void Network::topology_changed() {
  min_peer_latency_cache_ = -1.0;
  clear_routes();
}

void Network::clear_routes() const {
  route_index_.clear();
  route_hops_.clear();
}

util::Seconds Network::min_peer_latency() const {
  if (min_peer_latency_cache_ < 0.0) {
    double m = std::numeric_limits<double>::infinity();
    for (const Link& l : links_) {
      if (l.up) m = std::min(m, l.profile.base_latency.value());
    }
    min_peer_latency_cache_ = m;
  }
  return util::Seconds{min_peer_latency_cache_};
}

std::span<const std::size_t> Network::cached_route(NodeId src, NodeId dst,
                                                   util::Bytes size) const {
  if (src >= node_names_.size() || dst >= node_names_.size()) {
    throw std::out_of_range("Network::route: unknown node");
  }
  if (src == dst) return {};
  const RouteKey key{src, dst, std::bit_cast<std::uint64_t>(size.value())};
  if (const auto it = route_index_.find(key); it != route_index_.end()) {
    return {route_hops_.data() + it->second.begin, it->second.length};
  }
  search_route(src, dst, size);
  if (route_index_.size() >= kRouteCacheCapacity) clear_routes();
  // Walk the search tree back from dst, then flip the hops into traversal
  // order. An unreachable dst is cached too, as an empty route.
  const std::size_t begin = route_hops_.size();
  if (dist_[dst] != std::numeric_limits<double>::infinity()) {
    for (NodeId cur = dst; cur != src;) {
      const std::size_t li = via_link_[cur];
      route_hops_.push_back(li);
      cur = (links_[li].a == cur) ? links_[li].b : links_[li].a;
    }
    std::reverse(route_hops_.begin() + static_cast<std::ptrdiff_t>(begin), route_hops_.end());
  }
  const std::size_t length = route_hops_.size() - begin;
  route_index_.emplace(key, RouteSlice{begin, length});
  return {route_hops_.data() + begin, length};
}

void Network::search_route(NodeId src, NodeId dst, util::Bytes size) const {
  // Dijkstra over unloaded one-hop delay for this payload size. The heap
  // steps are exactly std::priority_queue's with std::greater, so ties
  // between equal-delay paths resolve the same way on every search.
  const auto later = std::greater<>{};
  dist_.assign(node_names_.size(), std::numeric_limits<double>::infinity());
  via_link_.resize(node_names_.size());
  heap_.clear();
  dist_[src] = 0.0;
  heap_.emplace_back(0.0, src);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    if (u == dst) break;
    for (const std::size_t li : adjacency_[u]) {
      const Link& l = links_[li];
      if (!l.up) continue;
      const NodeId v = (l.a == u) ? l.b : l.a;
      const double w = l.profile.one_hop_delay(size).value();
      if (d + w < dist_[v]) {
        dist_[v] = d + w;
        via_link_[v] = li;
        heap_.emplace_back(dist_[v], v);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
}

std::vector<std::size_t> Network::route(NodeId src, NodeId dst, util::Bytes size) const {
  const auto path = cached_route(src, dst, size);
  return {path.begin(), path.end()};
}

std::optional<util::Seconds> Network::unloaded_delay(NodeId src, NodeId dst,
                                                     util::Bytes size) const {
  if (src == dst) return util::Seconds{0.0};
  const auto path = cached_route(src, dst, size);
  if (path.empty()) return std::nullopt;
  util::Seconds total{0.0};
  for (const std::size_t li : path) total += links_[li].profile.one_hop_delay(size);
  return total;
}

void Network::send(const Message& msg, std::function<void(sim::Time)> on_delivery,
                   std::function<void()> on_drop) {
  if (!on_delivery) throw std::invalid_argument("Network::send: empty delivery callback");
  if (msg.src == msg.dst) {  // loopback delivers in the same instant
    ++sent_;
    sim().schedule_in(0.0, [cb = std::move(on_delivery), t = now()] { cb(t); });
    return;
  }
  const auto path = cached_route(msg.src, msg.dst, msg.size);
  if (path.empty()) {
    ++dropped_;
    if (on_drop) sim().schedule_in(0.0, std::move(on_drop));
    return;
  }
  ++sent_;
  // Walk the path accumulating queuing + serialization + propagation. Link
  // occupancy is reserved immediately (cut-through per hop).
  sim::Time t = now();
  NodeId at = msg.src;
  for (const std::size_t li : path) {
    Link& l = links_[li];
    const std::size_t dir = direction(l, at);
    const sim::Time start = std::max(t, l.next_free[dir]);
    const double ser = l.profile.serialization_time(msg.size).value();
    l.next_free[dir] = start + ser;
    t = start + ser + l.profile.base_latency.value();
    LinkStats& st = l.dir_stats[dir];
    ++st.messages;
    st.bytes += msg.size.value();
    st.busy_seconds += ser;
    at = (l.a == at) ? l.b : l.a;
  }
  // One span covers the whole multi-hop delivery: cut-through reserves
  // every link at send time, so the delivery instant is already known here.
  // Journey segments additionally carry a span-link whose attribute says
  // why the message travelled (transport / hand-off / return / WAN).
  DF3_OBS_TRACE_IF(o) {
    if (msg.journey_hop != obs::HopKind::kNone) {
      o->journey_span(this, name(), obs::Phase::kNetHop, now(), t, msg.payload_tag, -1,
                      static_cast<std::uint32_t>(msg.journey_hop));
    } else {
      o->span(this, name(), obs::Phase::kNetHop, now(), t, msg.payload_tag);
    }
  }
  sim().schedule_at(t, [cb = std::move(on_delivery), t] { cb(t); });
}

const LinkStats& Network::stats(std::size_t link) const {
  const Link& l = links_.at(link);
  merged_stats_ = LinkStats{};
  for (const auto& d : l.dir_stats) {
    merged_stats_.messages += d.messages;
    merged_stats_.bytes += d.bytes;
    merged_stats_.busy_seconds += d.busy_seconds;
  }
  return merged_stats_;
}

}  // namespace df3::net
