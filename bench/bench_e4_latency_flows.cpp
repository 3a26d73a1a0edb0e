// E4 — request latency across the three flows and their transports.
//
// Paper section II-C: direct local requests avoid the gateway; indirect
// requests "imply to pay an additional latency cost"; Internet requests pay
// the WAN. Two probe shapes expose the crossover the edge argument rests
// on: a *light* interactive probe (sense-compute-actuate: transport
// dominates, the edge wins big) and a *heavy* probe (compute dominates, the
// remote datacenter's faster cores catch up).
//
// Quantile columns are sketch estimates within 1 % of the exact order
// statistic; the light-probe mean is exact, so sub-1 % gaps such as the
// indirect premium are read from it.

#include <iostream>

#include "harness.hpp"

namespace {
df3::workload::RequestFactory probe(std::string app, double gigacycles, double in_kib) {
  return [app = std::move(app), gigacycles, in_kib](df3::util::RngStream&) {
    df3::workload::Request r;
    r.app = app;
    r.work_gigacycles = gigacycles;
    r.input_size = df3::util::kibibytes(in_kib);
    r.output_size = df3::util::bytes(256.0);
    r.deadline_s = 30.0;
    r.preemptible = false;
    return r;
  };
}

struct DcResult {
  double p50_light, mean_light, p99_light, p50_heavy, p99_heavy;
};

DcResult run_datacenter(double extra_latency_s, const char* tag) {
  using namespace df3;
  sim::Simulation sim;
  baselines::DatacenterConfig cfg;
  cfg.label = tag;
  cfg.extra_latency_s = extra_latency_s;
  baselines::Datacenter dc(sim, cfg);
  util::RngStream rng(7, tag);
  metrics::FlowMetrics m;
  auto light = probe("light", 0.05, 2.0);
  auto heavy = probe("heavy", 0.8, 8.0);
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    t += rng.exponential(0.02);
    auto r = (i % 2 == 0) ? light(rng) : heavy(rng);
    r.arrival = t;
    sim.schedule_at(t, [&dc, &m, r] {
      dc.submit(r, 0, [&m](workload::CompletionRecord rec) { m.record(rec); });
    });
  }
  sim.run();
  return {m.by_app("light").response_s.percentile(50.0) * 1e3,
          m.by_app("light").response_s.mean() * 1e3,
          m.by_app("light").response_s.p99() * 1e3,
          m.by_app("heavy").response_s.percentile(50.0) * 1e3,
          m.by_app("heavy").response_s.p99() * 1e3};
}
}  // namespace

int main() {
  using namespace df3;
  bench::banner("E4: latency of direct / indirect / cloud request paths",
                "direct < indirect < cloud for interactive work; LPWAN hops dominate the edge");

  auto city = bench::make_city(7, 0, core::GatingPolicy::kKeepWarm, 2, 4);
  struct Path {
    const char* name;
    bool direct, wifi;
  };
  const Path paths[] = {{"edge-direct-wifi", true, true},
                        {"edge-indirect-wifi", false, true},
                        {"edge-direct-zigbee", true, false},
                        {"edge-indirect-zigbee", false, false}};
  for (const auto& p : paths) {
    city->add_edge_source(0, probe(std::string(p.name) + "/light", 0.05, 2.0), 0.005,
                          p.direct, p.wifi);
    city->add_edge_source(0, probe(std::string(p.name) + "/heavy", 0.8, 8.0), 0.005,
                          p.direct, p.wifi);
  }
  city->add_cloud_source(probe("cloud-df/light", 0.05, 2.0), 0.005);
  city->add_cloud_source(probe("cloud-df/heavy", 0.8, 8.0), 0.005);
  city->run(util::days(2.0));

  const auto metro = run_datacenter(0.012, "dc-metro");
  const auto remote = run_datacenter(0.050, "dc-remote-region");

  util::Table table({"path", "light_p50_ms", "light_mean_ms", "light_p99_ms", "heavy_p50_ms",
                     "heavy_p99_ms"},
                    "light = 0.05 Gc sense-compute-actuate; heavy = 0.8 Gc inference");
  table.set_precision(1);
  auto add_city_row = [&](const char* name) {
    const auto& l = city->flow_metrics().by_app(std::string(name) + "/light");
    const auto& h = city->flow_metrics().by_app(std::string(name) + "/heavy");
    table.add_row({std::string(name), l.response_s.percentile(50.0) * 1e3,
                   l.response_s.mean() * 1e3, l.response_s.p99() * 1e3,
                   h.response_s.percentile(50.0) * 1e3, h.response_s.p99() * 1e3});
  };
  for (const auto& p : paths) add_city_row(p.name);
  add_city_row("cloud-df");
  table.add_row({std::string("cloud-dc-metro"), metro.p50_light, metro.mean_light,
                 metro.p99_light, metro.p50_heavy, metro.p99_heavy});
  table.add_row({std::string("cloud-dc-remote"), remote.p50_light, remote.mean_light,
                 remote.p99_light, remote.p50_heavy, remote.p99_heavy});
  table.print(std::cout);

  const double edge_light =
      city->flow_metrics().by_app("edge-direct-wifi/light").response_s.percentile(50.0) * 1e3;
  const double edge_light_mean =
      city->flow_metrics().by_app("edge-direct-wifi/light").response_s.mean() * 1e3;
  const double ind_light_mean =
      city->flow_metrics().by_app("edge-indirect-wifi/light").response_s.mean() * 1e3;
  std::printf("\nshape checks:\n");
  std::printf("  light probe: edge %.1f ms vs remote DC %.1f ms -> edge wins %.0fx\n",
              edge_light, remote.p50_light, remote.p50_light / edge_light);
  std::printf("  indirect premium (gateway staging, exact means): +%.2f ms\n",
              ind_light_mean - edge_light_mean);
  std::printf("  heavy probe: compute dominates and the DC's faster cores close the gap\n");
  return 0;
}
