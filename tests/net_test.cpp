// Tests for the network substrate: protocol profiles, routing, queuing,
// partitions, the route cache.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "df3/net/network.hpp"
#include "df3/net/protocol.hpp"
#include "df3/util/rng.hpp"

namespace net = df3::net;
namespace u = df3::util;
using df3::sim::Simulation;

// ------------------------------------------------------------- profiles ---

TEST(LinkProfile, SerializationIncludesOverheadAndFragmentation) {
  const auto eth = net::ethernet_lan();
  // 1 frame: (1000 + 66) bytes at 1 Gb/s.
  EXPECT_NEAR(eth.serialization_time(u::bytes(1000.0)).value(), 1066.0 * 8.0 / 1e9, 1e-12);
  // 100 KiB fragments into ceil(102400/65536) = 2 frames.
  EXPECT_NEAR(eth.serialization_time(u::kibibytes(100.0)).value(),
              (102400.0 + 2 * 66.0) * 8.0 / 1e9, 1e-12);
}

TEST(LinkProfile, DutyCycleThrottlesLora) {
  const auto l = net::lora();
  const auto raw_like = net::LinkProfile{"lora-raw", l.bandwidth, l.base_latency, l.max_payload,
                                         l.frame_overhead, 1.0};
  EXPECT_NEAR(l.serialization_time(u::bytes(100.0)).value(),
              raw_like.serialization_time(u::bytes(100.0)).value() * 100.0, 1e-9);
}

TEST(LinkProfile, LatencyOrderingAcrossTechnologies) {
  // For a small edge payload the protocol ordering the paper relies on
  // must hold: LAN < ZigBee < LoRa < Sigfox.
  const auto payload = u::bytes(64.0);
  const double lan = net::ethernet_lan().one_hop_delay(payload).value();
  const double zb = net::zigbee().one_hop_delay(payload).value();
  const double lr = net::lora().one_hop_delay(payload).value();
  const double sf = net::sigfox().one_hop_delay(payload).value();
  EXPECT_LT(lan, zb);
  EXPECT_LT(zb, lr);
  EXPECT_LT(lr, sf);
}

TEST(LinkProfile, ZeroByteMessageStillPaysOneFrame) {
  const auto zb = net::zigbee();
  EXPECT_GT(zb.serialization_time(u::bytes(0.0)).value(), 0.0);
}

TEST(LinkProfile, RejectsInvalid) {
  net::LinkProfile p = net::ethernet_lan();
  EXPECT_THROW((void)p.serialization_time(u::bytes(-1.0)), std::invalid_argument);
  p.duty_cycle = 0.0;
  EXPECT_THROW((void)p.serialization_time(u::bytes(1.0)), std::invalid_argument);
}

// -------------------------------------------------------------- network ---

namespace {
/// Small fixture: device --zigbee-- gateway --lan-- worker --fiber-- cloud.
struct Chain {
  Simulation sim;
  net::Network netw{sim, "chain"};
  net::NodeId device, gateway, worker, cloud;
  std::size_t l_dev, l_lan, l_wan;

  Chain() {
    device = netw.add_node("device");
    gateway = netw.add_node("gateway");
    worker = netw.add_node("worker");
    cloud = netw.add_node("cloud");
    l_dev = netw.add_link(device, gateway, net::zigbee());
    l_lan = netw.add_link(gateway, worker, net::ethernet_lan());
    l_wan = netw.add_link(worker, cloud, net::fiber_wan());
  }
};
}  // namespace

TEST(Network, NodeLookup) {
  Chain c;
  EXPECT_EQ(c.netw.node("device"), c.device);
  EXPECT_EQ(c.netw.node_name(c.cloud), "cloud");
  EXPECT_EQ(c.netw.node_count(), 4u);
  EXPECT_THROW((void)c.netw.node("nope"), std::out_of_range);
  EXPECT_THROW((void)c.netw.add_node("device"), std::invalid_argument);
}

// The name arena and its flat index at city scale: every name finds its
// node through grows of the index, and the lookups' contracts hold.
TEST(Network, NameIndexRoundTripsTenThousandNodes) {
  Simulation sim;
  net::Network n(sim, "city");
  constexpr std::size_t kNodes = 12'000;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::string name = i % 3 == 0 ? "b" + std::to_string(i / 3) + "/gw"
                                        : "b" + std::to_string(i / 3) + "/srv" + std::to_string(i % 3);
    EXPECT_EQ(n.add_node(name), i);
  }
  (void)n.add_node("");  // the empty name is a name like any other
  ASSERT_EQ(n.node_count(), kNodes + 1);
  for (net::NodeId id = 0; id < n.node_count(); ++id) {
    ASSERT_EQ(n.node(std::string(n.node_name(id))), id) << n.node_name(id);
  }
  EXPECT_EQ(n.node_name(4), "b1/srv1");
  EXPECT_EQ(n.node_name(static_cast<net::NodeId>(kNodes)), "");
  EXPECT_THROW((void)n.add_node("b7/srv2"), std::invalid_argument);
  EXPECT_THROW((void)n.add_node(""), std::invalid_argument);
  EXPECT_THROW((void)n.node("b7/srv3"), std::out_of_range);
  EXPECT_THROW((void)n.node("b4000/gw"), std::out_of_range);
  EXPECT_THROW((void)n.node_name(static_cast<net::NodeId>(kNodes + 1)), std::out_of_range);
  EXPECT_EQ(n.node_count(), kNodes + 1);
  EXPECT_EQ(n.node("b3999/srv2"), kNodes - 1);
}

TEST(Network, RouteFollowsChain) {
  Chain c;
  const auto path = c.netw.route(c.device, c.cloud, u::bytes(64.0));
  EXPECT_EQ(path, (std::vector<std::size_t>{c.l_dev, c.l_lan, c.l_wan}));
  EXPECT_TRUE(c.netw.route(c.device, c.device, u::bytes(1.0)).empty());
}

TEST(Network, UnloadedDelayIsSumOfHops) {
  Chain c;
  const auto size = u::bytes(64.0);
  const auto d = c.netw.unloaded_delay(c.device, c.worker, size);
  ASSERT_TRUE(d.has_value());
  const double expect = net::zigbee().one_hop_delay(size).value() +
                        net::ethernet_lan().one_hop_delay(size).value();
  EXPECT_NEAR(d->value(), expect, 1e-12);
}

TEST(Network, DeliveryEventMatchesUnloadedDelayWhenIdle) {
  Chain c;
  const net::Message m{c.device, c.worker, u::bytes(64.0), 1};
  double delivered_at = -1.0;
  c.netw.send(m, [&] { delivered_at = c.sim.now(); });
  c.sim.run();
  const auto d = c.netw.unloaded_delay(c.device, c.worker, m.size);
  EXPECT_NEAR(delivered_at, d->value(), 1e-12);
  EXPECT_EQ(c.netw.messages_sent(), 1u);
}

TEST(Network, QueuingDelaysBackToBackMessages) {
  Chain c;
  // Two large messages on the slow zigbee hop: the second queues behind
  // the first's serialization.
  const net::Message m{c.device, c.gateway, u::kibibytes(10.0), 0};
  std::vector<double> deliveries;
  c.netw.send(m, [&] { deliveries.push_back(c.sim.now()); });
  c.netw.send(m, [&] { deliveries.push_back(c.sim.now()); });
  c.sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const double ser = net::zigbee().serialization_time(m.size).value();
  EXPECT_NEAR(deliveries[1] - deliveries[0], ser, 1e-9);
}

TEST(Network, DirectionsDoNotContend) {
  Chain c;
  const net::Message fwd{c.device, c.gateway, u::kibibytes(10.0), 0};
  const net::Message rev{c.gateway, c.device, u::kibibytes(10.0), 0};
  std::vector<double> deliveries;
  c.netw.send(fwd, [&] { deliveries.push_back(c.sim.now()); });
  c.netw.send(rev, [&] { deliveries.push_back(c.sim.now()); });
  c.sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], deliveries[1], 1e-9);  // full duplex
}

TEST(Network, LoopbackDeliversImmediately) {
  Chain c;
  double delivered_at = -1.0;
  c.netw.send({c.device, c.device, u::mebibytes(10.0), 0}, [&] { delivered_at = c.sim.now(); });
  c.sim.run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.0);
}

TEST(Network, PartitionDropsAndRestores) {
  Chain c;
  c.netw.set_link_up(c.l_lan, false);
  bool dropped = false;
  double delivered_at = -1.0;
  c.netw.send({c.device, c.cloud, u::bytes(64.0), 0}, [&] { delivered_at = c.sim.now(); },
              [&] { dropped = true; });
  c.sim.run();
  EXPECT_TRUE(dropped);
  EXPECT_DOUBLE_EQ(delivered_at, -1.0);
  EXPECT_EQ(c.netw.messages_dropped(), 1u);

  c.netw.set_link_up(c.l_lan, true);
  c.netw.send({c.device, c.cloud, u::bytes(64.0), 0}, [&] { delivered_at = c.sim.now(); });
  c.sim.run();
  EXPECT_GT(delivered_at, 0.0);
}

// ------------------------------------------------------ send contract ---

TEST(NetworkSend, DeliveryNowIsTheComputedArrival) {
  Chain c;
  // Two back-to-back messages over device -> gateway -> worker: the second
  // waits for the first's serialization on the slow ZigBee hop, then
  // crosses the (idle by then) LAN. Each delivery callback reads now().
  const net::Message m{c.device, c.worker, u::kibibytes(4.0), 0};
  std::vector<double> at;
  c.netw.send(m, [&] { at.push_back(c.sim.now()); });
  c.netw.send(m, [&] { at.push_back(c.sim.now()); });
  c.sim.run();
  const auto zb = net::zigbee();
  const auto lan = net::ethernet_lan();
  const double s1 = zb.serialization_time(m.size).value();
  const double s2 = lan.serialization_time(m.size).value();
  const double l1 = zb.base_latency.value();
  const double l2 = lan.base_latency.value();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], s1 + l1 + s2 + l2);
  EXPECT_DOUBLE_EQ(at[1], (s1 + s1 + l1) + s2 + l2);
}

TEST(NetworkSend, LoopbackAndDropFireAtTheSendInstant) {
  Chain c;
  c.netw.set_link_up(c.l_lan, false);
  double looped = -1.0, dropped = -1.0;
  bool delivered = false;
  c.sim.schedule_at(5.0, [&] {
    c.netw.send({c.worker, c.worker, u::kibibytes(1.0), 0}, [&] { looped = c.sim.now(); });
    c.netw.send({c.device, c.cloud, u::kibibytes(1.0), 0}, [&] { delivered = true; },
                [&] { dropped = c.sim.now(); });
  });
  c.sim.run();
  EXPECT_DOUBLE_EQ(looped, 5.0);
  EXPECT_DOUBLE_EQ(dropped, 5.0);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(c.netw.messages_sent(), 1u);
  EXPECT_EQ(c.netw.messages_dropped(), 1u);
}

TEST(NetworkSend, LargeCaptureTakesTheHeapFallback) {
  Chain c;
  std::array<double, 8> payload{};  // 64 bytes: over the 48-byte inline buffer
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<double>(i + 1);
  double sum = 0.0;
  auto on_delivery = [&sum, payload] {
    for (const double v : payload) sum += v;
  };
  static_assert(sizeof(on_delivery) > df3::sim::Simulation::Callback::kInlineSize);
  df3::sim::Simulation::Callback cb = on_delivery;
  EXPECT_FALSE(cb.is_inline());
  c.netw.send({c.device, c.cloud, u::bytes(64.0), 0}, std::move(cb));
  c.sim.run();
  EXPECT_DOUBLE_EQ(sum, 36.0);
}

TEST(NetworkSend, EmptyDeliveryCallbackThrows) {
  Chain c;
  EXPECT_THROW(c.netw.send({c.device, c.cloud, u::bytes(1.0), 0}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(c.netw.send({c.device, c.cloud, u::bytes(1.0), 0},
                           df3::sim::Simulation::Callback{}, [] {}),
               std::invalid_argument);
  EXPECT_EQ(c.netw.messages_sent(), 0u);
  EXPECT_EQ(c.sim.pending_events(), 0u);
}

TEST(Network, RoutePrefersFasterPath) {
  Simulation sim;
  net::Network n(sim, "tri");
  const auto a = n.add_node("a");
  const auto b = n.add_node("b");
  const auto cnode = n.add_node("c");
  n.add_link(a, b, net::lora());  // slow direct
  const auto fast1 = n.add_link(a, cnode, net::ethernet_lan());
  const auto fast2 = n.add_link(cnode, b, net::ethernet_lan());
  const auto path = n.route(a, b, u::bytes(64.0));
  EXPECT_EQ(path, (std::vector<std::size_t>{fast1, fast2}));
}

TEST(Network, StatsAccumulate) {
  Chain c;
  const net::Message m{c.device, c.gateway, u::bytes(100.0), 0};
  c.netw.send(m, [] {});
  c.netw.send(m, [] {});
  c.sim.run();
  const auto& st = c.netw.stats(c.l_dev);
  EXPECT_EQ(st.messages, 2u);
  EXPECT_DOUBLE_EQ(st.bytes, 200.0);
  EXPECT_GT(st.busy_seconds, 0.0);
}

TEST(Network, Validation) {
  Simulation sim;
  net::Network n(sim, "v");
  const auto a = n.add_node("a");
  EXPECT_THROW((void)n.add_link(a, a, net::ethernet_lan()), std::invalid_argument);
  EXPECT_THROW((void)n.add_link(a, 42, net::ethernet_lan()), std::out_of_range);
  EXPECT_THROW(n.send({a, a, u::bytes(1.0), 0}, nullptr), std::invalid_argument);
  EXPECT_THROW((void)n.route(a, 42, u::bytes(1.0)), std::out_of_range);
}

TEST(Network, AddLinkRejectsBadProfilesByField) {
  Simulation sim;
  net::Network n(sim, "v");
  const auto a = n.add_node("a");
  const auto b = n.add_node("b");
  const auto expect_rejected = [&](void (*spoil)(net::LinkProfile&), const std::string& field) {
    net::LinkProfile p = net::ethernet_lan();
    spoil(p);
    try {
      (void)n.add_link(a, b, p);
      ADD_FAILURE() << "accepted a profile with a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  expect_rejected([](net::LinkProfile& p) { p.bandwidth = u::bps(0.0); }, "bandwidth");
  expect_rejected([](net::LinkProfile& p) { p.bandwidth = u::bps(-1.0); }, "bandwidth");
  expect_rejected([](net::LinkProfile& p) { p.duty_cycle = 0.0; }, "duty_cycle");
  expect_rejected([](net::LinkProfile& p) { p.duty_cycle = 1.5; }, "duty_cycle");
  expect_rejected([](net::LinkProfile& p) { p.base_latency = u::seconds(-1e-3); },
                  "base_latency");
  expect_rejected(
      [](net::LinkProfile& p) {
        p.base_latency = u::seconds(std::numeric_limits<double>::infinity());
      },
      "base_latency");
  expect_rejected([](net::LinkProfile& p) { p.base_latency = u::seconds(std::nan("")); },
                  "base_latency");
  EXPECT_EQ(n.link_count(), 0u);
  // The edges of the valid ranges are accepted.
  net::LinkProfile edge = net::ethernet_lan();
  edge.base_latency = u::seconds(0.0);
  edge.duty_cycle = 1.0;
  EXPECT_EQ(n.add_link(a, b, edge), 0u);
}

TEST(Network, SegmentedVsSharedLanContention) {
  // E10 micro-version: an edge message behind a bulk DCC transfer on a
  // shared LAN waits; on a segmented (dedicated) LAN it does not.
  Simulation sim;
  net::Network shared(sim, "shared");
  const auto s_src = shared.add_node("src");
  const auto s_dst = shared.add_node("dst");
  shared.add_link(s_src, s_dst, net::ethernet_lan());
  double bulk_done = -1.0, edge_done = -1.0;
  shared.send({s_src, s_dst, u::mebibytes(500.0), 0}, [&] { bulk_done = sim.now(); });
  shared.send({s_src, s_dst, u::bytes(200.0), 0}, [&] { edge_done = sim.now(); });
  sim.run();
  EXPECT_GT(edge_done, 1.0);  // ~4 s stuck behind the bulk transfer

  Simulation sim2;
  net::Network seg(sim2, "segmented");
  const auto e_src = seg.add_node("src");
  const auto e_dst = seg.add_node("dst");
  seg.add_link(e_src, e_dst, net::ethernet_lan());
  double edge_done2 = -1.0;
  seg.send({e_src, e_dst, u::bytes(200.0), 0}, [&] { edge_done2 = sim2.now(); });
  sim2.run();
  EXPECT_LT(edge_done2, 0.001);
}

// ---------------------------------------------------------- route cache ---

namespace {
constexpr int kFabricNodes = 10;

struct LinkSpec {
  net::NodeId a, b;
  net::LinkProfile profile;
  bool up;
};

/// A seeded random fabric whose parallel paths change winner with payload
/// size: single wifi or zigbee hops race multi-hop ethernet and fiber
/// paths, and serialization time decides between them. `nodes` and `specs`
/// mirror every node, link and up-state so a Twin can rebuild the fabric.
/// Links join only the first kFabricNodes nodes; add_node() adds isolated
/// ones.
struct RandomFabric {
  Simulation sim;
  net::Network netw{sim, "cached"};
  u::RngStream rng;
  int nodes = kFabricNodes;
  std::vector<LinkSpec> specs;

  explicit RandomFabric(std::uint64_t seed) : rng(seed, "route-cache") {
    for (int i = 0; i < kFabricNodes; ++i) netw.add_node("n" + std::to_string(i));
    for (int i = 0; i < 24; ++i) add_random_link();
  }

  net::NodeId random_node() {
    return static_cast<net::NodeId>(rng.uniform_int(0, kFabricNodes - 1));
  }

  void add_random_link() {
    const net::NodeId a = random_node();
    net::NodeId b = random_node();
    while (b == a) b = random_node();
    const std::array kinds{net::ethernet_lan(), net::wifi(), net::zigbee(), net::fiber_wan()};
    specs.push_back({a, b, kinds[static_cast<std::size_t>(rng.uniform_int(0, 3))], true});
    netw.add_link(a, b, specs.back().profile);
  }

  std::size_t random_link() {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(specs.size()) - 1));
  }

  void set_up(std::size_t link, bool up) {
    specs[link].up = up;
    netw.set_link_up(link, up);
  }

  void add_node() { netw.add_node("n" + std::to_string(nodes++)); }
};

/// The same nodes, links and up-states as `f`, with a cold route cache.
struct Twin {
  Simulation sim;
  net::Network netw{sim, "twin"};

  explicit Twin(const RandomFabric& f) {
    const std::vector<LinkSpec>& specs = f.specs;
    for (int i = 0; i < f.nodes; ++i) netw.add_node("n" + std::to_string(i));
    for (std::size_t li = 0; li < specs.size(); ++li) {
      netw.add_link(specs[li].a, specs[li].b, specs[li].profile);
      netw.set_link_up(li, specs[li].up);
    }
  }
};
}  // namespace

TEST(RouteCache, MatchesColdTwinUnderFlapsAndNewLinks) {
  RandomFabric f(12);
  const std::array sizes{u::bytes(1.0), u::bytes(64.0), u::bytes(1500.0), u::kibibytes(64.0),
                         u::mebibytes(5.0)};
  int size_flips = 0;  // routes that differ from the same pair's 1-byte route
  for (int step = 0; step < 200; ++step) {
    // Every step re-asks the same pairs, so routes cached before a flap or
    // a new link are asked for again after it.
    const Twin twin(f);
    for (net::NodeId src = 0; src < 3; ++src) {
      for (net::NodeId dst = 0; dst < static_cast<net::NodeId>(kFabricNodes); ++dst) {
        const auto smallest = twin.netw.route(src, dst, sizes[0]);
        for (const u::Bytes size : sizes) {
          const auto expect = twin.netw.route(src, dst, size);
          if (expect != smallest) ++size_flips;
          // The second ask of a key is always served from the cache.
          for (int ask = 0; ask < 2; ++ask) {
            ASSERT_EQ(f.netw.route(src, dst, size), expect)
                << "step " << step << ", " << src << " -> " << dst << ", " << size.value() << " B";
          }
        }
      }
    }
    const double r = f.rng.uniform01();
    if (r < 0.5) {
      const std::size_t li = f.random_link();
      f.set_up(li, !f.specs[li].up);
      // A new node between a flip and the next lookup: the first search
      // after it rebuilds the blocks, and routes the flip staled must stay
      // stale across that rebuild.
      if (step % 5 == 0) f.add_node();
    } else if (r < 0.6) {
      f.add_random_link();
    }
  }
  EXPECT_GT(size_flips, 0);
  EXPECT_GT(f.nodes, kFabricNodes);
}

TEST(RouteCache, SendAfterFlapDeliversOnTheNewRoute) {
  RandomFabric f(34);
  int rerouted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const net::NodeId src = f.random_node();
    const net::NodeId dst = f.random_node();
    const u::Bytes size = u::bytes(f.rng.uniform(1.0, 1e6));
    const auto old_route = f.netw.route(src, dst, size);  // cached from here on
    if (old_route.empty()) continue;
    const std::size_t cut = old_route[static_cast<std::size_t>(
        f.rng.uniform_int(0, static_cast<std::int64_t>(old_route.size()) - 1))];
    f.set_up(cut, false);
    const Twin twin(f);
    const auto expect = twin.netw.unloaded_delay(src, dst, size);
    // The previous trial's run() left every link idle, so nothing queues.
    const double sent_at = f.sim.now();
    double delivered_at = -1.0;
    bool dropped = false;
    f.netw.send({src, dst, size, 0}, [&] { delivered_at = f.sim.now(); }, [&] { dropped = true; });
    f.sim.run();
    if (expect) {
      ++rerouted;
      ASSERT_FALSE(dropped) << "trial " << trial;
      EXPECT_NEAR(delivered_at - sent_at, expect->value(), 1e-9) << "trial " << trial;
    } else {
      EXPECT_TRUE(dropped) << "trial " << trial;
    }
    f.set_up(cut, true);
  }
  EXPECT_GT(rerouted, 0);
}

TEST(RouteCache, MatchesColdTwinOnEveryPairAndSize) {
  // Every ordered pair at six sizes, with one to four random flips between
  // rounds and the odd new link: a cached route that a flip should have
  // staled shows up as a mismatch against a network that never cached.
  const std::array sizes{u::bytes(1.0),      u::bytes(64.0),     u::bytes(1500.0),
                         u::kibibytes(64.0), u::mebibytes(1.0), u::mebibytes(5.0)};
  int stale_routes = 0;  // cached routes that a flip changed
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RandomFabric f(seed);
    std::vector<std::vector<std::size_t>> last(kFabricNodes * kFabricNodes * sizes.size());
    for (int round = 0; round < 30; ++round) {
      const Twin twin(f);
      std::size_t k = 0;
      for (net::NodeId src = 0; src < static_cast<net::NodeId>(kFabricNodes); ++src) {
        for (net::NodeId dst = 0; dst < static_cast<net::NodeId>(kFabricNodes); ++dst) {
          for (const u::Bytes size : sizes) {
            const auto expect = twin.netw.route(src, dst, size);
            ASSERT_EQ(f.netw.route(src, dst, size), expect)
                << "seed " << seed << ", round " << round << ", " << src << " -> " << dst << ", "
                << size.value() << " B";
            if (round > 0 && expect != last[k]) ++stale_routes;
            last[k++] = expect;
          }
        }
      }
      const auto mismatches = f.netw.verify_route_cache();
      ASSERT_TRUE(mismatches.empty()) << mismatches.front();
      for (auto flips = f.rng.uniform_int(1, 4); flips > 0; --flips) {
        const std::size_t li = f.random_link();
        f.set_up(li, !f.specs[li].up);
      }
      if (f.rng.uniform01() < 0.1) f.add_random_link();
    }
  }
  EXPECT_GT(stale_routes, 0);
}

namespace {

/// A link that costs nothing for an empty payload: no base latency and no
/// frame overhead, so its arcs weigh zero at size 0.
net::LinkProfile free_link() {
  return net::LinkProfile{"free", u::gbps(10.0), u::seconds(0.0), u::bytes(65536.0),
                          u::bytes(0.0), 1.0};
}

/// Dijkstra over every up link, with the tie-breaks the network promises:
/// each node's links in insertion order, the heap ordered by (delay, node).
std::vector<std::size_t> whole_graph_route(const std::vector<LinkSpec>& specs, std::size_t nodes,
                                           net::NodeId src, net::NodeId dst, u::Bytes size) {
  if (src == dst) return {};
  std::vector<std::vector<std::pair<net::NodeId, std::size_t>>> adj(nodes);
  for (std::size_t li = 0; li < specs.size(); ++li) {
    if (!specs[li].up) continue;
    adj[specs[li].a].emplace_back(specs[li].b, li);
    adj[specs[li].b].emplace_back(specs[li].a, li);
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes, inf);
  std::vector<std::size_t> via(nodes, 0);
  std::priority_queue<std::pair<double, net::NodeId>, std::vector<std::pair<double, net::NodeId>>,
                      std::greater<>>
      heap;
  dist[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    if (v == dst) break;
    for (const auto& [w, li] : adj[v]) {
      const double dw = d + specs[li].profile.one_hop_delay(size).value();
      if (dw < dist[w]) {
        dist[w] = dw;
        via[w] = li;
        heap.emplace(dw, w);
      }
    }
  }
  std::vector<std::size_t> hops;
  if (dist[dst] == inf) return hops;
  for (net::NodeId cur = dst; cur != src;) {
    const LinkSpec& l = specs[via[cur]];
    hops.insert(hops.begin(), via[cur]);
    cur = l.a == cur ? l.b : l.a;
  }
  return hops;
}

/// A seeded graph with many biconnected blocks: a hub with building-shaped
/// spokes (a gw/dev/wifi/srv0 cycle plus a pendant server), a ring with a
/// chord hung off the hub by a bridge, a pendant chain, a parallel-link
/// pair, a second component and isolated nodes. Profiles are drawn at
/// random and include free_link().
struct BlockyFabric {
  Simulation sim;
  net::Network netw{sim, "blocky"};
  u::RngStream rng;
  std::vector<LinkSpec> specs;

  explicit BlockyFabric(std::uint64_t seed) : rng(seed, "block-routes") {
    const net::NodeId hub = add();
    for (int b = 0; b < 3; ++b) {
      const net::NodeId gw = add(), dev = add(), wifi = add(), srv0 = add(), srv1 = add();
      link(dev, gw);
      link(wifi, gw);
      link(gw, hub);
      link(gw, srv0);
      link(dev, srv0);
      link(wifi, srv0);
      link(gw, srv1);
    }
    std::vector<net::NodeId> ring;
    for (int i = 0; i < 5; ++i) ring.push_back(add());
    for (std::size_t i = 0; i < ring.size(); ++i) link(ring[i], ring[(i + 1) % ring.size()]);
    link(ring[0], ring[2]);
    link(ring[3], hub);
    net::NodeId tail = ring[4];
    for (int i = 0; i < 3; ++i) {
      const net::NodeId next = add();
      link(tail, next);
      tail = next;
    }
    const net::NodeId twin = add();
    link(ring[1], twin);
    link(ring[1], twin);
    link(twin, add());
    const net::NodeId x = add(), y = add(), z = add();
    link(x, y);
    link(y, z);
    link(z, x);
    link(z, add());
    (void)add();
    (void)add();
  }

  [[nodiscard]] std::size_t nodes() const { return netw.node_count(); }
  net::NodeId add() { return netw.add_node("n" + std::to_string(netw.node_count())); }

  void link(net::NodeId a, net::NodeId b) {
    const std::array kinds{net::ethernet_lan(), net::wifi(), net::zigbee(), net::fiber_wan(),
                           free_link()};
    specs.push_back({a, b, kinds[static_cast<std::size_t>(rng.uniform_int(0, 4))], true});
    netw.add_link(a, b, specs.back().profile);
  }

  void flip(std::size_t li) {
    specs[li].up = !specs[li].up;
    netw.set_link_up(li, specs[li].up);
  }
};

}  // namespace

TEST(RouteCache, BlockRestrictedSearchMatchesWholeGraphSearch) {
  // Searches relax only the blocks between src and dst. Every ordered pair
  // at five sizes (size 0 makes free links weigh zero), under random flips
  // and the odd new link that merges blocks, must get the route a search
  // of the whole graph finds, unreachable pairs included.
  const std::array sizes{u::bytes(0.0), u::bytes(1.0), u::bytes(1500.0), u::kibibytes(64.0),
                         u::mebibytes(5.0)};
  int unreachable = 0, zero_cost = 0, reachable = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BlockyFabric f(seed);
    for (int round = 0; round < 12; ++round) {
      const auto n = static_cast<net::NodeId>(f.nodes());
      for (net::NodeId src = 0; src < n; ++src) {
        for (net::NodeId dst = 0; dst < n; ++dst) {
          for (const u::Bytes size : sizes) {
            const auto expect = whole_graph_route(f.specs, f.nodes(), src, dst, size);
            ASSERT_EQ(f.netw.route(src, dst, size), expect)
                << "seed " << seed << ", round " << round << ", " << src << " -> " << dst
                << ", " << size.value() << " B";
            if (src == dst) continue;
            if (expect.empty()) {
              ++unreachable;
            } else {
              ++reachable;
              if (f.netw.unloaded_delay(src, dst, size)->value() == 0.0) ++zero_cost;
            }
          }
        }
      }
      const auto mismatches = f.netw.verify_route_cache();
      ASSERT_TRUE(mismatches.empty()) << mismatches.front();
      // A picked link that is down comes up; one that is up goes down
      // with odds 0.4, so about a quarter of the links are down at a time.
      for (auto flips = f.rng.uniform_int(1, 4); flips > 0; --flips) {
        const auto li = static_cast<std::size_t>(
            f.rng.uniform_int(0, static_cast<std::int64_t>(f.specs.size()) - 1));
        if (!f.specs[li].up || f.rng.uniform01() < 0.4) f.flip(li);
      }
      if (f.rng.uniform01() < 0.15) {
        const auto a = static_cast<net::NodeId>(f.rng.uniform_int(0, n - 1));
        const auto b = static_cast<net::NodeId>(f.rng.uniform_int(0, n - 1));
        if (a != b) f.link(a, b);
      }
    }
  }
  EXPECT_GT(unreachable, 0);
  EXPECT_GT(zero_cost, 0);
  EXPECT_GT(reachable, unreachable);
}

TEST(RouteCache, SearchesSettleOnlyTheBlocksOnTheWay) {
  // A star of 50 spokes, each a gw/dev/srv cycle behind a bridge to the
  // hub: a route inside one spoke settles that spoke's nodes, and one
  // across the hub settles two spokes and the hub, whatever the star's size.
  Simulation sim;
  net::Network n(sim, "star");
  const net::NodeId hub = n.add_node("hub");
  std::vector<std::array<net::NodeId, 3>> spokes;
  std::vector<std::size_t> dev_srv;  // per spoke: a cycle link off its routes below
  for (int s = 0; s < 50; ++s) {
    const std::string p = "s" + std::to_string(s) + "/";
    const std::array v{n.add_node(p + "gw"), n.add_node(p + "dev"), n.add_node(p + "srv")};
    n.add_link(v[0], hub, net::fiber_wan());
    n.add_link(v[1], v[0], net::zigbee());
    n.add_link(v[0], v[2], net::ethernet_lan());
    dev_srv.push_back(n.add_link(v[1], v[2], net::zigbee()));
    spokes.push_back(v);
  }
  EXPECT_EQ(n.route(spokes[7][0], spokes[7][1], u::bytes(64.0)).size(), 1u);
  EXPECT_EQ(n.route_nodes_settled(), 3u);  // gw first, then srv, then dev
  EXPECT_EQ(n.route(spokes[7][1], spokes[31][2], u::bytes(64.0)).size(), 4u);
  EXPECT_LE(n.route_nodes_settled(), 3u + 7u);
  EXPECT_EQ(n.route_searches(), 2u);
  // A flip inside spoke 31's cycle stales the routes that cross that
  // block, even where the flipped link is no hop, and no other.
  n.set_link_up(dev_srv[31], false);
  EXPECT_EQ(n.route(spokes[7][0], spokes[7][1], u::bytes(64.0)).size(), 1u);
  EXPECT_EQ(n.route_searches(), 2u);
  EXPECT_EQ(n.route(spokes[7][1], spokes[31][2], u::bytes(64.0)).size(), 4u);
  EXPECT_EQ(n.route_searches(), 3u);
  // A node with no links and a node in another component are unreachable
  // without a search settling anything.
  const net::NodeId lone = n.add_node("lone");
  const net::NodeId far_a = n.add_node("far-a");
  const net::NodeId far_b = n.add_node("far-b");
  n.add_link(far_a, far_b, net::ethernet_lan());
  const std::uint64_t settled = n.route_nodes_settled();
  EXPECT_TRUE(n.route(spokes[0][1], lone, u::bytes(64.0)).empty());
  EXPECT_TRUE(n.route(far_a, spokes[0][1], u::bytes(64.0)).empty());
  EXPECT_EQ(n.route_nodes_settled(), settled);
  EXPECT_EQ(n.route(far_a, far_b, u::bytes(64.0)).size(), 1u);
  EXPECT_TRUE(n.verify_route_cache().empty());
}

TEST(RouteCache, StaysWithinCapacityAndClearsOnTopologyChange) {
  Chain c;
  // A Wi-Fi detour around the LAN hop, and a spare node off every
  // device -> cloud route.
  const std::size_t detour = c.netw.add_link(c.gateway, c.worker, net::wifi());
  const std::size_t spare = c.netw.add_link(c.worker, c.netw.add_node("spare"), net::ethernet_lan());
  // Every payload size is its own key: only the capacity bounds the cache.
  for (int i = 0; i < 100000; ++i) {
    (void)c.netw.route(c.device, c.cloud, u::bytes(64.0 + i));
    ASSERT_LE(c.netw.route_cache_entries(), net::Network::kRouteCacheCapacity);
  }
  const std::size_t entries = c.netw.route_cache_entries();
  EXPECT_GT(entries, 0u);
  const u::Bytes size = u::bytes(64.0 + 99999);  // cached by the last ask
  const std::uint64_t searches = c.netw.route_searches();
  c.netw.set_link_up(c.l_lan, true);  // already up: no change, cache kept
  EXPECT_EQ(c.netw.route_cache_entries(), entries);

  // A link on no cached route flaps: every route stays cached.
  c.netw.set_link_up(spare, false);
  c.netw.set_link_up(spare, true);
  EXPECT_EQ(c.netw.route_cache_entries(), entries);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, size),
            (std::vector<std::size_t>{c.l_dev, c.l_lan, c.l_wan}));
  EXPECT_EQ(c.netw.route_searches(), searches);

  // A hop of the route goes down: the route is searched again and takes
  // the detour.
  c.netw.set_link_up(c.l_lan, false);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, size),
            (std::vector<std::size_t>{c.l_dev, detour, c.l_wan}));
  EXPECT_EQ(c.netw.route_searches(), searches + 1);
  EXPECT_EQ(c.netw.route_cache_entries(), entries);

  c.netw.set_link_up(detour, false);
  EXPECT_TRUE(c.netw.route(c.device, c.cloud, u::bytes(64.0)).empty());
  EXPECT_TRUE(c.netw.route(c.device, c.cloud, u::bytes(64.0)).empty());
  EXPECT_EQ(c.netw.route_searches(), searches + 2);  // unreachable is cached too
  c.netw.add_link(c.gateway, c.cloud, net::fiber_wan());
  EXPECT_EQ(c.netw.route_cache_entries(), 0u);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, u::bytes(64.0)).size(), 2u);
}
