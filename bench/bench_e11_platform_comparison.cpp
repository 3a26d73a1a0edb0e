// E11 — DF servers vs the alternative edge substrates (section V).
//
// "There exist alternatives to DF servers for edge computing ...
//  micro-datacenters ... clusters of raspberry pi ... CDN ... However, let
//  us observe that DF servers are more energy efficient."
//
// The same edge request stream (0.5 Gc, 8 KiB in, 1 s deadline) is served
// by: a DF3 building cluster, a metro micro-datacenter, a CDN PoP, a
// desktop grid, and a remote-region datacenter. We compare latency,
// deadline success, and what each joule of electricity became.

#include <iostream>

#include "harness.hpp"

namespace {

using namespace df3;

workload::Request probe_request(util::RngStream& rng) {
  workload::Request r;
  r.app = "edge-probe";
  r.flow = workload::Flow::kEdgeIndirect;
  r.work_gigacycles = rng.uniform(0.3, 0.7);
  r.input_size = util::kibibytes(8.0);
  r.output_size = util::kibibytes(2.0);
  r.deadline_s = 1.0;
  r.preemptible = false;
  return r;
}

struct Row {
  std::string platform;
  double p50_ms, p99_ms, success;
  double waste_wh_per_req;  // watt-hours of non-useful heat per request
};

/// Shared request schedule so every platform sees the identical stream.
std::vector<workload::Request> make_stream(double horizon_s) {
  util::RngStream rng(31, "e11-stream");
  std::vector<workload::Request> out;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(0.05);
    if (t >= horizon_s) break;
    auto r = probe_request(rng);
    r.arrival = t;
    r.id = out.size();
    out.push_back(std::move(r));
  }
  return out;
}

template <class SubmitFn>
Row run_service(const std::string& name, sim::Simulation& sim, SubmitFn submit,
                const std::vector<workload::Request>& stream, double horizon_s,
                std::function<double(std::uint64_t)> waste_wh) {
  auto metrics = std::make_shared<metrics::FlowMetrics>();
  for (const auto& r : stream) {
    sim.schedule_at(r.arrival, [submit, r, metrics] {
      submit(r, [metrics](workload::CompletionRecord rec) { metrics->record(rec); });
    });
  }
  // Generous drain window (the grid's churn events recur forever, so a
  // plain run-to-empty would never return).
  sim.run_until(horizon_s + 2.0 * 86400.0);
  const auto& s = metrics->by_app("edge-probe");
  return {name, s.response_s.percentile(50.0) * 1e3, s.response_s.p99() * 1e3,
          s.success_rate(), waste_wh(std::max<std::uint64_t>(1, s.total()))};
}

}  // namespace

int main() {
  bench::banner("E11: the same edge workload on five substrates",
                "DF wins on energy (heat is the product) and matches the best latencies; "
                "the desktop grid cannot hold deadlines at all");

  const double horizon = 6.0 * 3600.0;
  const auto stream = make_stream(horizon);
  std::vector<Row> rows;

  // --- DF3 building cluster (winter: its heat is all wanted) --------------
  {
    auto city = bench::make_city(31, 0, core::GatingPolicy::kKeepWarm, 1, 4);
    // Deterministic replay of the shared stream through the building's
    // Wi-Fi path (real transport + gateway staging).
    auto& cl = city->cluster(0);
    const auto wifi = city->network().node("b0/wifi");
    for (const auto& r : stream) {
      city->simulation().schedule_at(r.arrival, [&cl, r, wifi, &city] {
        city->network().send(
            net::Message{wifi, cl.gateway_node(), r.input_size, r.id},
            [&cl, r, wifi]() mutable { cl.submit(r, wifi); });
      });
    }
    city->run(util::Seconds{horizon + 3600.0});
    const auto& s = city->flow_metrics().by_app("edge-probe");
    const double waste_wh =
        city->df_energy().waste_heat().value() / 3600.0 /
        static_cast<double>(std::max<std::uint64_t>(1, s.total()));
    rows.push_back({"DF3 cluster (winter)", s.response_s.percentile(50.0) * 1e3,
                    s.response_s.p99() * 1e3, s.success_rate(), waste_wh});
  }

  // --- datacenter-family substrates ---------------------------------------
  struct DcCase {
    const char* name;
    baselines::DatacenterConfig cfg;
  };
  DcCase cases[] = {{"micro-datacenter", baselines::micro_datacenter_config()},
                    {"cdn-pop", baselines::cdn_pop_config()},
                    {"remote datacenter", baselines::DatacenterConfig{}}};
  cases[2].cfg.extra_latency_s = 0.05;
  cases[2].cfg.cores = 64;  // slice of a shared region comparable to the others
  for (auto& c : cases) {
    sim::Simulation sim;
    baselines::Datacenter dc(sim, c.cfg);
    auto row = run_service(
        c.name, sim,
        [&dc](const workload::Request& r, core::CompletionSink done) {
          dc.submit(r, 0, std::move(done));
        },
        stream, horizon,
        [&dc](std::uint64_t n) {
          return dc.energy().waste_heat().value() / 3600.0 / static_cast<double>(n);
        });
    rows.push_back(std::move(row));
  }

  // --- desktop grid --------------------------------------------------------
  {
    sim::Simulation sim;
    baselines::DesktopGridConfig cfg;
    // A realistic volunteer pool: few donors, volatile, already carrying
    // BOINC-style batch work (the opportunistic workloads desktop grids
    // were validated on — paper section I).
    cfg.hosts = 6;
    cfg.cores_per_host = 2;
    cfg.mean_available_s = 1200.0;
    cfg.mean_reclaimed_s = 2400.0;
    baselines::DesktopGrid grid(sim, cfg, 31);
    workload::Request background;
    background.app = "boinc-batch";
    background.work_gigacycles = 1800.0;
    background.tasks = 24;
    grid.submit(background, 0, [](workload::CompletionRecord) {});
    auto row = run_service(
        "desktop grid (contended)", sim,
        [&grid](const workload::Request& r, core::CompletionSink done) {
          grid.submit(r, 0, std::move(done));
        },
        stream, horizon,
        [&grid](std::uint64_t n) {
          return grid.energy().waste_heat().value() / 3600.0 / static_cast<double>(n);
        });
    rows.push_back(std::move(row));
  }

  util::Table table({"platform", "p50_ms", "p99_ms", "deadline_success", "waste_Wh_per_req"},
                    "identical 6 h edge stream (0.3-0.7 Gc, 1 s deadline)");
  table.set_precision(2);
  for (const auto& r : rows) {
    table.add_row({r.platform, r.p50_ms, r.p99_ms, r.success, r.waste_wh_per_req});
  }
  table.print(std::cout);

  std::printf("\nshape checks: DF and the in-city substrates hold the deadline; the\n"
              "remote DC pays the WAN; the contended volunteer pool drops ~a fifth of\n"
              "deadlines to reclaim churn. On waste energy DF is the outlier: its\n"
              "joules were heating someone's home on request.\n");
  return 0;
}
