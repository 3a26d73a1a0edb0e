// E10 — network sharing vs segmentation inside a cluster (section III-B).
//
// "For performance in DCC applications, it is better to define a single
//  local network between workers ... However, to guarantee the privacy of
//  edge data, it is preferable to have two local networks, one for edge and
//  one for DCC."
//
// With a fixed 1 Gb/s LAN budget between gateway and workers we compare:
//   shared     — one 1 Gb/s LAN carries DCC bulk transfers and edge traffic;
//   segmented  — 0.8 Gb/s for DCC, a dedicated 0.2 Gb/s lane for edge.
// Measured: DCC dataset distribution time (the parallel app's startup) and
// edge message latency while the bulk transfer is in flight.

#include <iostream>

#include "harness.hpp"

namespace {

using namespace df3;

struct Result {
  double bulk_s;       // time to stage the DCC dataset to all workers
  double edge_p50_ms;  // edge request network RTT during the transfer
  double edge_p99_ms;
};

Result run(bool segmented) {
  sim::Simulation sim;
  net::Network netw(sim, segmented ? "segmented" : "shared");
  const auto gw = netw.add_node("gw");
  const auto dev = netw.add_node("dev");
  constexpr int kWorkers = 8;
  std::vector<net::NodeId> workers;
  net::LinkProfile dcc_lan = net::ethernet_lan();
  net::LinkProfile edge_lan = net::ethernet_lan();
  if (segmented) {
    dcc_lan.bandwidth = util::mbps(800.0);
    edge_lan.bandwidth = util::mbps(200.0);
  }
  // Device reaches the gateway over Wi-Fi either way.
  netw.add_link(dev, gw, net::wifi());
  std::vector<std::size_t> edge_links;
  for (int i = 0; i < kWorkers; ++i) {
    const auto w = netw.add_node("w" + std::to_string(i));
    workers.push_back(w);
    netw.add_link(gw, w, dcc_lan);
    if (segmented) {
      // A second, edge-only lane. The router prefers the fat DCC lane for
      // bulk (lower serialization) and we steer edge probes onto the thin
      // lane by sizing: tiny messages see nearly equal unloaded delay, so
      // force the choice by disabling the fat lane for the probe's route
      // computation... instead we model the edge lane as a separate
      // gateway port: dev connects to it directly.
      edge_links.push_back(netw.add_link(dev, w, edge_lan));
    }
  }

  // DCC bulk: stage a 250 MiB dataset shard to every worker at t=0.
  util::PercentileSampler bulk_done;
  for (const auto w : workers) {
    netw.send(net::Message{gw, w, util::mebibytes(250.0), 1},
              [&bulk_done, &sim] { bulk_done.add(sim.now()); });
  }
  // Edge probes: 4 KiB request to a worker every 100 ms during the window.
  util::PercentileSampler edge_rtt;
  for (int i = 0; i < 100; ++i) {
    const double t0 = 0.05 + i * 0.1;
    sim.schedule_at(t0, [&sim, &netw, &edge_rtt, &workers, dev, t0, i] {
      netw.send(net::Message{dev, workers[static_cast<std::size_t>(i) % workers.size()],
                             util::kibibytes(4.0), 2},
                [&sim, &edge_rtt, t0] { edge_rtt.add(sim.now() - t0); });
    });
  }
  sim.run();
  return {bulk_done.max(), edge_rtt.percentile(50.0) * 1e3, edge_rtt.p99() * 1e3};
}

}  // namespace

int main() {
  bench::banner("E10: shared LAN vs segmented edge/DCC networks",
                "one LAN speeds the parallel DCC app; segmentation isolates edge "
                "latency (and data) from the bulk traffic");

  util::Table table({"topology", "dcc_staging_s", "edge_p50_ms", "edge_p99_ms"},
                    "250 MiB/worker DCC staging + 4 KiB edge probes, 8 workers");
  table.set_precision(2);
  const auto shared = run(false);
  const auto segmented = run(true);
  table.add_row({std::string("shared 1 Gb/s"), shared.bulk_s, shared.edge_p50_ms,
                 shared.edge_p99_ms});
  table.add_row({std::string("segmented 0.8 + 0.2 Gb/s"), segmented.bulk_s,
                 segmented.edge_p50_ms, segmented.edge_p99_ms});
  table.print(std::cout);

  std::printf("\nshape checks: the shared LAN finishes DCC staging ~%.0f%% faster, but\n"
              "edge p99 balloons %.0fx while the transfer runs; the segmented design\n"
              "keeps edge flat (and its traffic never shares a wire with DCC data).\n",
              100.0 * (segmented.bulk_s - shared.bulk_s) / segmented.bulk_s,
              shared.edge_p99_ms / segmented.edge_p99_ms);
  return 0;
}
