// Smart building: in-situ edge intelligence on digital heaters.
//
// Reproduces the scenario of Durand, Ngoko & Cérin (IPDPSW 2017) that the
// paper cites as proof that near-real-time ML runs on Q.rads: an office
// building whose heaters classify audio events (alarm sounds), watch for
// falls (privacy-sensitive, must stay local), and answer location queries
// (map tiles, traffic estimates) — while the same machines render 3D frames
// for remote customers and heat the rooms.
//
// The program contrasts direct vs indirect edge requests and shows the
// priority machinery protecting edge deadlines against the cloud batch.

#include <cstdio>
#include <iostream>

#include "df3/df3.hpp"

int main() {
  using namespace df3;

  core::PlatformConfig cfg;
  cfg.seed = 7;
  cfg.start_time = thermal::start_of_month(1);  // February
  cfg.regulator.gating = core::GatingPolicy::kKeepWarm;
  // Peak policy: preempt render work for edge, never delay an alarm.
  cfg.cluster.edge_peak_ladder = {"preempt", "horizontal",
                                  "delay"};

  core::Df3Platform city(cfg);

  core::BuildingConfig office;
  office.name = "office";
  office.rooms = 8;
  office.comfort.day_target = util::celsius(21.0);
  office.comfort.night_target = util::celsius(17.5);
  city.add_building(office);

  // A second building so horizontal offloading has somewhere to go.
  core::BuildingConfig annex;
  annex.name = "annex";
  annex.rooms = 4;
  city.add_building(annex);

  // Edge flows on the office.
  city.add_edge_source(0, workload::alarm_detection_factory(), 0.05);
  city.add_edge_source(0, workload::fall_detection_factory(), 0.01, /*direct=*/true);
  // Phones/tablets carry tile and traffic queries over Wi-Fi; the LPWAN
  // radios stay for the small sensor events.
  city.add_edge_source(0, workload::map_serving_factory(), 0.03, false, /*via_wifi=*/true);
  city.add_edge_source(0, workload::traffic_estimation_factory(), 0.01, false, true);

  // Cloud flow: a render studio keeps the heaters fed.
  city.add_cloud_source(workload::render_batch_factory(8, 32), 1.0 / 1800.0);

  city.run(util::days(5.0));

  util::Table table({"application", "requests", "success", "p50_ms", "p99_ms"},
                    "smart building: five February days");
  for (const auto& app : {"alarm-detection", "fall-detection", "map-serving",
                          "traffic-estimation", "render"}) {
    const auto& slice = city.flow_metrics().by_app(app);
    table.add_row({std::string(app), static_cast<std::int64_t>(slice.total()),
                   slice.success_rate(), slice.response_s.percentile(50.0) * 1e3,
                   slice.response_s.p99() * 1e3});
  }
  table.set_precision(1);
  table.print(std::cout);

  const auto& stats = city.cluster(0).stats();
  std::printf("\nedge protection : %llu render shards preempted, %llu horizontal offloads\n",
              static_cast<unsigned long long>(stats.preemptions),
              static_cast<unsigned long long>(stats.offloaded_horizontal_out));
  std::printf("privacy         : fall-detection served locally only (%llu vertical offloads)\n",
              static_cast<unsigned long long>(
                  city.flow_metrics().served(workload::ServedBy::kVertical)));
  std::printf("comfort         : %.2f K mean deviation; mean room %.1f degC\n",
              city.comfort(0).mean_abs_deviation_k(city.now()),
              city.comfort(0).mean_temperature_c(city.now()));
  return 0;
}
