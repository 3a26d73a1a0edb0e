#pragma once
/// \file desktop_grid.hpp
/// \brief Desktop-grid / volunteer-cloud baseline (BOINC-style).
///
/// The paper (sections I, V) contrasts DF servers with desktop grids: PCs
/// execute work **only in idle periods**, and hosts churn — an owner
/// reclaiming their machine kills the running shard, which must restart
/// from scratch elsewhere (classic public-resource computing without
/// checkpoints, SETI@home-style). This is exactly why the paper argues such
/// opportunistic platforms cannot carry near-real-time edge workloads.
///
/// Model: `hosts` PCs, each with `cores_per_host` cores, alternating
/// between available (idle) and reclaimed states with exponential sojourns;
/// availability is higher at night. Requests arrive over residential ADSL.

#include <deque>
#include <functional>
#include <vector>

#include "df3/core/cluster.hpp"
#include "df3/metrics/collectors.hpp"
#include "df3/net/protocol.hpp"
#include "df3/sim/engine.hpp"
#include "df3/util/rng.hpp"

namespace df3::baselines {

struct DesktopGridConfig {
  std::string label = "desktop-grid";
  int hosts = 64;
  int cores_per_host = 4;
  double core_speed_gcps = 2.5;
  util::Watts power_per_busy_core{20.0};
  util::Watts power_per_idle_host{35.0};  ///< PC on but donated cores idle
  /// Mean sojourn in the available (idle, donatable) state.
  double mean_available_s = 4.0 * 3600.0;
  /// Mean sojourn in the reclaimed (owner using it) state during the day;
  /// at night hosts are reclaimed for 1/4 of this.
  double mean_reclaimed_s = 2.0 * 3600.0;
  net::LinkProfile wan = net::adsl_wan();
};

/// Volunteer compute platform; core::ComputeService like the datacenter.
class DesktopGrid : public sim::Entity, public core::ComputeService {
 public:
  DesktopGrid(sim::Simulation& sim, DesktopGridConfig config, std::uint64_t seed);

  void submit(workload::Request r, net::NodeId origin, core::CompletionSink done) override;

  [[nodiscard]] int available_hosts() const;
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  [[nodiscard]] std::uint64_t completed_requests() const { return completed_; }
  [[nodiscard]] const metrics::EnergyLedger& energy();

 private:
  struct Job {
    workload::Request request;
    core::CompletionSink done;
    int shards_left;
  };
  struct Host {
    bool available = true;
    int busy_cores = 0;
    sim::EventHandle flip;
    /// Shards currently running here (job + completion event), so churn can
    /// kill and requeue them.
    struct Slot {
      std::shared_ptr<Job> job;
      double gigacycles;
      sim::EventHandle completion;
      bool live = true;
    };
    std::vector<std::shared_ptr<Slot>> slots;
  };

  void arm_flip(std::size_t h);
  void reclaim(std::size_t h);
  void release(std::size_t h);
  void dispatch();
  void finish_job(const std::shared_ptr<Job>& job);
  void settle_energy();

  DesktopGridConfig config_;
  util::RngStream rng_;
  std::vector<Host> hosts_;
  std::deque<std::pair<std::shared_ptr<Job>, double>> queue_;  // (job, gigacycles)
  std::uint64_t restarts_ = 0;
  std::uint64_t completed_ = 0;
  metrics::EnergyLedger ledger_;
  sim::Time energy_mark_ = 0.0;
};

}  // namespace df3::baselines
