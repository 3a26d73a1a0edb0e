// E12 — which applications suit data furnace (section VI + Liu et al.).
//
// "Tightly coupled applications will have poor network performance on data
//  furnace systems. Compute intensive jobs with a huge running time are
//  also not appropriate [free cooling] ... storage services are not
//  interesting because they do not produce heat."
//
// Each application class runs once on a DF building cluster (1 Gb/s LAN,
// free-cooled Q.rads) and once on a classic datacenter (10 Gb/s fabric,
// chilled). We report the DF/DC slowdown and the heat produced per job —
// the two axes of the paper's suitability verdicts.

#include <iostream>

#include "harness.hpp"

namespace {

using namespace df3;

struct AppCase {
  const char* name;
  workload::Request request;
  const char* paper_verdict;
};

double run_on_df(const workload::Request& r, double& heat_kwh, bool hot_room) {
  sim::Simulation sim;
  net::Network netw(sim, "df");
  const auto gw = netw.add_node("gw");
  std::vector<net::NodeId> nodes;
  const core::ClusterConfig cfg;  // 1 Gb/s fabric against the 10 Gb/s reference
  double done_at = -1.0;
  core::Cluster cluster(sim, "df", cfg, netw, gw,
                        [&](workload::CompletionRecord rec) { done_at = rec.completed_at; });
  for (int i = 0; i < 4; ++i) {
    const auto n = netw.add_node("w" + std::to_string(i));
    netw.add_link(gw, n, net::ethernet_lan());
    cluster.add_worker(hw::qrad_spec(), n);
  }
  if (hot_room) {
    // Marathon jobs meet the free-cooling reality: a small room heated by
    // the server itself creeps into the throttle window. We emulate the
    // warm shoulder-season room with a fixed hot inlet.
    for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
      cluster.worker(w).server().set_inlet_temperature(util::celsius(31.5));
      cluster.worker(w).sync_speed();
    }
  }
  cluster.submit(r, gw);
  sim.run();
  // Heat emitted by the job: busy core-seconds priced at the per-core
  // power of a fully loaded Q.rad (~31 W/core). The standalone cluster has
  // no physics tick, so we account from the workers' execution records.
  double busy_core_s = 0.0;
  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    busy_core_s += cluster.worker(w).busy_core_seconds();
  }
  const double per_core_w = hw::qrad_spec().rated_power().value() /
                            hw::qrad_spec().total_cores();
  heat_kwh = busy_core_s * per_core_w / 3.6e6;
  return done_at;
}

double run_on_dc(const workload::Request& r) {
  sim::Simulation sim;
  baselines::DatacenterConfig cfg;
  cfg.cores = 64;
  baselines::Datacenter dc(sim, cfg);
  double done_at = -1.0;
  dc.submit(r, 0, [&](workload::CompletionRecord rec) { done_at = rec.completed_at; });
  sim.run();
  return done_at;
}

}  // namespace

int main() {
  bench::banner("E12: application-suitability taxonomy, DF vs datacenter",
                "embarrassingly parallel batch fits; tightly coupled and marathon jobs "
                "suffer; storage produces no heat");

  util::RngStream rng(12, "e12");
  std::vector<AppCase> cases;
  {
    auto r = workload::render_batch_factory(16, 16)(rng);
    cases.push_back({"render batch (EP)", std::move(r), "good fit"});
  }
  {
    auto r = workload::risk_simulation_factory()(rng);
    r.tasks = 48;
    cases.push_back({"risk simulation (EP)", std::move(r), "good fit"});
  }
  {
    auto r = workload::coupled_solver_factory(16, 0.35)(rng);
    cases.push_back({"coupled solver (35% comm)", std::move(r), "poor: network"});
  }
  {
    workload::Request r;
    r.app = "marathon";
    r.work_gigacycles = 500000.0;  // ~43 h on one 3.2 GHz core
    r.tasks = 1;
    cases.push_back({"marathon single job", std::move(r), "poor: free cooling"});
  }
  {
    auto r = workload::storage_request_factory()(rng);
    cases.push_back({"storage put (500 MB)", std::move(r), "uninteresting: no heat"});
  }

  util::Table table({"application", "df_hours", "dc_hours", "df/dc", "df_heat_kwh",
                     "paper_verdict"},
                    "one request per class; DF = 4 Q.rads, DC = 64 chilled cores");
  table.set_precision(2);
  for (const auto& c : cases) {
    double heat_kwh = 0.0;
    const bool hot = std::string_view(c.name).find("marathon") != std::string_view::npos;
    const double df_t = run_on_df(c.request, heat_kwh, hot);
    const double dc_t = run_on_dc(c.request);
    table.add_row({std::string(c.name), df_t / 3600.0, dc_t / 3600.0, df_t / dc_t, heat_kwh,
                   std::string(c.paper_verdict)});
  }
  table.print(std::cout);

  std::printf("\nshape checks: the coupled solver's DF/DC ratio carries the ~%.0fx fabric\n"
              "stretch; the marathon job pays the thermal throttle on top of the clock\n"
              "gap; storage moves half a gigabyte to produce milliwatt-hours of heat.\n",
              10.0 * 0.35 + 0.65);
  return 0;
}
