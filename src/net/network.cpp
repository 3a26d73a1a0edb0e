#include "df3/net/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <stdexcept>

#include "df3/obs/obs.hpp"
#include "df3/util/rng.hpp"

namespace df3::net {

std::size_t Network::RouteKeyHash::operator()(const RouteKey& k) const noexcept {
  std::uint64_t state = ((std::uint64_t{k.src} << 32) | k.dst) ^ std::rotl(k.size_bits, 29);
  return static_cast<std::size_t>(util::splitmix64(state));
}

Network::Network(sim::Simulation& sim, std::string name) : sim::Entity(sim, std::move(name)) {}

NodeId Network::add_node(std::string_view node_name) {
  if (!name_slots_.empty() && name_slots_[name_slot(node_name)] != kNoIndex) {
    throw std::invalid_argument("Network::add_node: duplicate name " + std::string(node_name));
  }
  if (name_chars_.size() + node_name.size() > kNoIndex) {
    throw std::length_error("Network::add_node: node names exceed 4 GiB");
  }
  const auto id = static_cast<NodeId>(name_end_.size());
  name_chars_.append(node_name);
  name_end_.push_back(static_cast<std::uint32_t>(name_chars_.size()));
  if (2 * name_end_.size() > name_slots_.size()) {
    grow_name_index();
  } else {
    name_slots_[name_slot(node_name)] = id;
  }
  arcs_stale_ = true;
  // The next search rebuilds the blocks and zeroes their flip epochs, which
  // would make a route staled by an earlier flip look fresh.
  clear_routes();
  return id;
}

std::size_t Network::name_slot(std::string_view node_name) const {
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(node_name) & mask;; i = (i + 1) & mask) {
    const NodeId id = name_slots_[i];
    if (id == kNoIndex || name_of(id) == node_name) return i;
  }
}

void Network::grow_name_index() {
  name_slots_.assign(std::max<std::size_t>(16, 2 * name_slots_.size()), kNoIndex);
  for (NodeId id = 0; id < name_end_.size(); ++id) name_slots_[name_slot(name_of(id))] = id;
}

NodeId Network::node(std::string_view node_name) const {
  const NodeId id = name_slots_.empty() ? kNoIndex : name_slots_[name_slot(node_name)];
  if (id == kNoIndex) {
    throw std::out_of_range("Network::node: unknown " + std::string(node_name));
  }
  return id;
}

std::string_view Network::node_name(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("Network::node_name: unknown id");
  return name_of(id);
}

std::size_t Network::add_link(NodeId a, NodeId b, const LinkProfile& profile) {
  if (a >= node_count() || b >= node_count()) {
    throw std::out_of_range("Network::add_link: unknown node");
  }
  if (a == b) throw std::invalid_argument("Network::add_link: self loop");
  // Searches weigh each distinct profile once, so a bad one is rejected
  // here rather than by whichever search first scans it.
  check_link_profile(profile);
  const auto known = std::find(profiles_.begin(), profiles_.end(), profile);
  const auto p = static_cast<std::uint32_t>(known - profiles_.begin());
  if (known == profiles_.end()) profiles_.push_back(profile);
  links_.push_back(Link{a, b, p});
  arcs_stale_ = true;
  min_peer_latency_cache_ = -1.0;
  clear_routes();
  return links_.size() - 1;
}

void Network::check_link_profile(const LinkProfile& profile) {
  const auto bad = [&](const char* field) {
    return std::invalid_argument("Network: link profile '" + profile.name + "' has " + field);
  };
  if (!(profile.bandwidth.value() > 0.0)) throw bad("bandwidth <= 0");
  if (!(profile.duty_cycle > 0.0 && profile.duty_cycle <= 1.0)) {
    throw bad("duty_cycle outside (0, 1]");
  }
  const double latency = profile.base_latency.value();
  if (!std::isfinite(latency) || latency < 0.0) {
    throw bad("base_latency negative or not finite");
  }
}

void Network::set_link_up(std::size_t link, bool up) {
  Link& l = links_.at(link);
  if (l.up == up) return;
  l.up = up;
  ++flip_epoch_;
  if (!arcs_stale_) block_flip_epoch_[link_block_[link]] = flip_epoch_;
  min_peer_latency_cache_ = -1.0;
}
bool Network::link_up(std::size_t link) const { return links_.at(link).up; }

void Network::build_arcs() const {
  // Counting sort by source node; walking links in index order keeps each
  // node's arcs in insertion order, which fixes Dijkstra's tie-breaks.
  arc_begin_.assign(node_count() + 1, 0);
  for (const Link& l : links_) {
    ++arc_begin_[l.a + 1];
    ++arc_begin_[l.b + 1];
  }
  for (std::size_t u = 0; u < node_count(); ++u) arc_begin_[u + 1] += arc_begin_[u];
  arcs_.resize(2 * links_.size());
  std::vector<std::uint32_t> next(arc_begin_.begin(), arc_begin_.end() - 1);
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const Link& l = links_[li];
    const auto link = static_cast<std::uint32_t>(li);
    arcs_[next[l.a]++] = Arc{l.b, link, 0};
    arcs_[next[l.b]++] = Arc{l.a, link, 0};
  }
  build_blocks();
  dist_.assign(node_count(), std::numeric_limits<double>::infinity());
  via_link_.resize(node_count());
  touched_.clear();
  arcs_stale_ = false;
}

void Network::build_blocks() const {
  // Iterative Hopcroft-Tarjan. The tree link to the DFS parent is skipped
  // by link index, not by node, so a parallel link counts as a back edge and
  // joins its twin's block.
  // build_arcs just sized arc_begin_ to node_count() + 1. Reading the count
  // from it, not from the name offsets, also keeps GCC 12 at -O3 from a
  // false -Wfree-nonheap-object on the vectors below.
  const std::size_t n = arc_begin_.size() - 1;
  std::vector<std::uint32_t> disc(n, 0), low(n, 0), up_link(n, kNoIndex);
  std::vector<std::uint32_t> heads(n, 0);      // blocks hanging from each node
  std::vector<std::uint32_t> head_block(n, 0);  // the last of them
  std::vector<NodeId> block_head;               // per block: the node it hangs from
  link_block_.assign(links_.size(), 0);
  std::vector<std::uint32_t> link_stack;
  struct Frame {
    NodeId v;
    std::uint32_t next_arc;
  };
  std::vector<Frame> frames;
  std::uint32_t clock = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (disc[root] != 0) continue;
    disc[root] = low[root] = ++clock;
    frames.push_back({root, arc_begin_[root]});
    while (!frames.empty()) {
      const NodeId v = frames.back().v;
      if (frames.back().next_arc < arc_begin_[v + 1]) {
        const Arc arc = arcs_[frames.back().next_arc++];
        if (arc.link == up_link[v]) continue;
        const NodeId w = arc.to;
        if (disc[w] == 0) {
          link_stack.push_back(arc.link);
          up_link[w] = arc.link;
          disc[w] = low[w] = ++clock;
          frames.push_back({w, arc_begin_[w]});
        } else if (disc[w] < disc[v]) {  // a back edge; seen from w it is skipped below
          link_stack.push_back(arc.link);
          low[v] = std::min(low[v], disc[w]);
        }
        continue;
      }
      frames.pop_back();
      if (frames.empty()) break;
      const NodeId u = frames.back().v;
      low[u] = std::min(low[u], low[v]);
      if (low[v] >= disc[u]) {
        // Nothing below v reaches above u: the links stacked since the tree
        // link u-v form one block hanging from u.
        const auto b = static_cast<std::uint32_t>(block_head.size());
        std::uint32_t li = 0;
        do {
          li = link_stack.back();
          link_stack.pop_back();
          link_block_[li] = b;
        } while (li != up_link[v]);
        block_head.push_back(u);
        ++heads[u];
        head_block[u] = b;
      }
    }
  }
  for (Arc& arc : arcs_) arc.block = link_block_[arc.link];

  // A node lies in the block of its tree link plus every block hanging from
  // it; in two or more it is a cut node. A block's tree parent is the cut
  // node it hangs from, a cut node's the block of its tree link. Blocks
  // close in post-order, so walking them backwards meets every parent
  // before its children.
  block_count_ = static_cast<std::uint32_t>(block_head.size());
  node_vertex_.assign(n, kNoIndex);
  std::uint32_t vertices = block_count_;
  for (NodeId u = 0; u < n; ++u) {
    const bool has_up = up_link[u] != kNoIndex;
    if ((has_up ? 1U : 0U) + heads[u] >= 2) {
      node_vertex_[u] = vertices++;
    } else if (has_up) {
      node_vertex_[u] = link_block_[up_link[u]];
    } else if (heads[u] == 1) {
      node_vertex_[u] = head_block[u];
    }
  }
  bct_parent_.assign(vertices, kNoIndex);
  bct_depth_.assign(vertices, 0);
  for (std::uint32_t b = block_count_; b-- > 0;) {
    const NodeId u = block_head[b];
    const std::uint32_t cut = node_vertex_[u];
    if (cut < block_count_) continue;  // u lies in b alone: b is a root
    if (up_link[u] != kNoIndex) {
      bct_parent_[cut] = link_block_[up_link[u]];
      bct_depth_[cut] = bct_depth_[bct_parent_[cut]] + 1;
    }
    bct_parent_[b] = cut;
    bct_depth_[b] = bct_depth_[cut] + 1;
  }
  block_mark_.assign(block_count_, 0);
  block_flip_epoch_.assign(block_count_, 0);
}

bool Network::mark_path_blocks(NodeId src, NodeId dst) const {
  ++search_stamp_;
  std::uint32_t a = node_vertex_[src];
  std::uint32_t b = node_vertex_[dst];
  if (a == kNoIndex || b == kNoIndex) return false;
  const auto mark = [this](std::uint32_t v) {
    if (v < block_count_) block_mark_[v] = search_stamp_;
  };
  while (bct_depth_[a] > bct_depth_[b]) {
    mark(a);
    a = bct_parent_[a];
  }
  while (bct_depth_[b] > bct_depth_[a]) {
    mark(b);
    b = bct_parent_[b];
  }
  while (a != b) {
    if (bct_parent_[a] == kNoIndex) return false;  // two roots: two components
    mark(a);
    mark(b);
    a = bct_parent_[a];
    b = bct_parent_[b];
  }
  mark(a);
  return true;
}

void Network::clear_routes() const {
  if (route_count_ != 0) std::fill(route_slots_.begin(), route_slots_.end(), RouteSlot{});
  route_count_ = 0;
  route_store_.clear();
  dead_slices_ = 0;
}

Network::RouteSlot& Network::route_slot(const RouteKey& key) const {
  const std::size_t mask = route_slots_.size() - 1;
  for (std::size_t i = RouteKeyHash{}(key) & mask;; i = (i + 1) & mask) {
    RouteSlot& slot = route_slots_[i];
    if (!slot.used() || slot.key == key) return slot;
  }
}

void Network::grow_routes() const {
  std::vector<RouteSlot> old(std::max<std::size_t>(64, 2 * route_slots_.size()));
  old.swap(route_slots_);
  for (const RouteSlot& slot : old) {
    if (slot.used()) route_slot(slot.key) = slot;
  }
}

void Network::compact_routes() const {
  // Slide the live slices down in store order, in place: the store keeps
  // its capacity instead of reallocating on every compaction.
  std::vector<RouteEntry*> live;
  live.reserve(route_count_);
  for (RouteSlot& slot : route_slots_) {
    if (slot.used()) live.push_back(&slot.entry);
  }
  std::sort(live.begin(), live.end(),
            [](const RouteEntry* x, const RouteEntry* y) { return x->begin < y->begin; });
  std::size_t end = 0;
  for (RouteEntry* e : live) {
    const auto slice = route_store_.begin() + static_cast<std::ptrdiff_t>(e->begin);
    if (e->begin != end) {
      std::copy(slice, slice + e->hops, route_store_.begin() + static_cast<std::ptrdiff_t>(end));
    }
    e->begin = end;
    end += e->hops;
  }
  route_store_.resize(end);
  dead_slices_ = 0;
}

util::Seconds Network::min_peer_latency() const {
  if (min_peer_latency_cache_ < 0.0) {
    double m = std::numeric_limits<double>::infinity();
    for (const Link& l : links_) {
      if (l.up) m = std::min(m, profiles_[l.profile].base_latency.value());
    }
    min_peer_latency_cache_ = m;
  }
  return util::Seconds{min_peer_latency_cache_};
}

bool Network::route_fresh(const RouteEntry& e) const {
  if (e.epoch == flip_epoch_) return true;
  if (e.hops == 0) return false;
  // The route's hops cross exactly the blocks its search read (DESIGN.md,
  // "Route cache"), so a flip in none of them leaves the route as it was.
  const std::uint32_t* const hops = route_store_.data() + e.begin;
  for (std::uint32_t i = 0; i < e.hops; ++i) {
    if (block_flip_epoch_[link_block_[hops[i]]] > e.epoch) return false;
  }
  return true;
}

std::span<const std::uint32_t> Network::cached_route(NodeId src, NodeId dst,
                                                     util::Bytes size) const {
  if (src >= node_count() || dst >= node_count()) {
    throw std::out_of_range("Network::route: unknown node");
  }
  if (src == dst) return {};
  const RouteKey key{src, dst, std::bit_cast<std::uint64_t>(size.value())};
  if (route_slots_.empty()) grow_routes();
  RouteSlot* slot = &route_slot(key);
  if (!slot->used()) {
    if (route_count_ >= kRouteCacheCapacity) {
      clear_routes();
    } else if (2 * (route_count_ + 1) > route_slots_.size()) {
      grow_routes();
    }
    slot = &route_slot(key);
    slot->key = key;
    slot->entry = store_route(src, dst, size);
    ++route_count_;
  } else if (RouteEntry& e = slot->entry; e.epoch != flip_epoch_) {
    if (route_fresh(e)) {
      // Checking in stages is the same as checking once: every flip since
      // the search has now passed, so later lookups check only newer ones.
      e.epoch = flip_epoch_;
    } else {
      e = store_route(src, dst, size);
      if (++dead_slices_ > route_count_) compact_routes();
    }
  }
  return {route_store_.data() + slot->entry.begin, slot->entry.hops};
}

Network::RouteEntry Network::store_route(NodeId src, NodeId dst, util::Bytes size) const {
  ++route_searches_;
  route_nodes_settled_ += search_route(src, dst, size, /*whole_graph=*/false);
  RouteEntry e{route_store_.size(), 0, flip_epoch_};
  append_search_path(src, dst, route_store_);
  e.hops = static_cast<std::uint32_t>(route_store_.size() - e.begin);
  return e;
}

std::size_t Network::search_route(NodeId src, NodeId dst, util::Bytes size,
                                  bool whole_graph) const {
  if (arcs_stale_) build_arcs();
  const double inf = std::numeric_limits<double>::infinity();
  for (const NodeId v : touched_) dist_[v] = inf;
  touched_.clear();
  heap_.clear();
  weight_.resize(profiles_.size());
  for (std::size_t p = 0; p < profiles_.size(); ++p) {
    weight_[p] = profiles_[p].one_hop_delay(size).value();
  }
  // Every simple src -> dst path stays inside the blocks on the block-cut
  // tree path between them. Any other node hangs off a cut node of those
  // blocks that settles before it, so it can push no entry inside them: the
  // restricted search pops the same entries in the same order and returns
  // the same route (DESIGN.md, "Route cache"). Without a tree path, no
  // link path joins the two, up or down.
  if (whole_graph) {
    std::fill(block_mark_.begin(), block_mark_.end(), ++search_stamp_);
  } else if (!mark_path_blocks(src, dst)) {
    return 0;
  }
  // Dijkstra over unloaded one-hop delay for this payload size. The heap
  // steps are exactly std::priority_queue's with std::greater, so ties
  // between equal-delay paths resolve the same way on every search.
  const auto later = std::greater<>{};
  const std::uint64_t stamp = search_stamp_;
  std::size_t settled = 0;
  dist_[src] = 0.0;
  touched_.push_back(src);
  heap_.emplace_back(0.0, src);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    ++settled;
    if (u == dst) break;
    for (std::uint32_t a = arc_begin_[u]; a < arc_begin_[u + 1]; ++a) {
      const Arc arc = arcs_[a];
      if (block_mark_[arc.block] != stamp) continue;
      const Link& l = links_[arc.link];
      if (!l.up) continue;
      const double dv = d + weight_[l.profile];
      if (dv < dist_[arc.to]) {
        if (dist_[arc.to] == inf) touched_.push_back(arc.to);
        dist_[arc.to] = dv;
        via_link_[arc.to] = arc.link;
        heap_.emplace_back(dv, arc.to);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return settled;
}

void Network::append_search_path(NodeId src, NodeId dst, std::vector<std::uint32_t>& out) const {
  if (dist_[dst] == std::numeric_limits<double>::infinity()) return;
  // Walk the search tree back from dst, then flip the hops into traversal
  // order.
  const std::size_t begin = out.size();
  for (NodeId cur = dst; cur != src;) {
    const std::uint32_t li = via_link_[cur];
    out.push_back(li);
    cur = (links_[li].a == cur) ? links_[li].b : links_[li].a;
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
}

std::vector<std::string> Network::verify_route_cache() const {
  std::vector<std::string> out;
  std::vector<std::uint32_t> expect;
  for (const RouteSlot& slot : route_slots_) {
    if (!slot.used()) continue;
    const RouteKey& key = slot.key;
    const RouteEntry& e = slot.entry;
    if (!route_fresh(e)) continue;  // the next lookup searches again
    const double size = std::bit_cast<double>(key.size_bits);
    search_route(key.src, key.dst, util::Bytes{size}, /*whole_graph=*/true);
    expect.clear();
    append_search_path(key.src, key.dst, expect);
    const auto cached = route_store_.begin() + static_cast<std::ptrdiff_t>(e.begin);
    if (std::equal(expect.begin(), expect.end(), cached, cached + e.hops)) continue;
    std::ostringstream line;
    const auto hops = [&line](auto first, auto last) {
      line << '[';
      for (auto i = first; i != last; ++i) line << (i == first ? "" : " ") << *i;
      line << ']';
    };
    line << name() << ": cached route " << name_of(key.src) << " -> " << name_of(key.dst)
         << " (" << size << " B) is ";
    hops(cached, cached + e.hops);
    line << ", a fresh search gives ";
    hops(expect.begin(), expect.end());
    out.push_back(line.str());
  }
  return out;
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
  for (const std::uint32_t li : path) total += profiles_[links_[li].profile].one_hop_delay(size);
  return total;
}

void Network::send(const Message& msg, sim::Simulation::Callback on_delivery,
                   sim::Simulation::Callback on_drop) {
  if (!on_delivery) throw std::invalid_argument("Network::send: empty delivery callback");
  if (msg.src == msg.dst) {  // loopback delivers in the same instant
    ++sent_;
    sim().schedule_in(0.0, std::move(on_delivery));
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
  for (const std::uint32_t li : path) {
    Link& l = links_[li];
    const LinkProfile& profile = profiles_[l.profile];
    const std::size_t dir = direction(l, at);
    const sim::Time start = std::max(t, l.next_free[dir]);
    const double ser = profile.serialization_time(msg.size).value();
    l.next_free[dir] = start + ser;
    t = start + ser + profile.base_latency.value();
    ++l.stats.messages;
    l.stats.bytes += msg.size.value();
    l.stats.busy_seconds += ser;
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
  sim().schedule_at(t, std::move(on_delivery));
}

const LinkStats& Network::stats(std::size_t link) const { return links_.at(link).stats; }

}  // namespace df3::net
