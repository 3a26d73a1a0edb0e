#pragma once
/// \file datacenter.hpp
/// \brief Air-cooled datacenter baseline (and micro-datacenter / CDN-PoP
///        variants) implementing core::ComputeService.
///
/// The comparator the paper positions data furnace against: a classic
/// facility where every IT joule drags a cooling joule share behind it
/// (PUE 1.3-1.6 for typical air-cooled plants vs the 1.026 CloudandHeat
/// claims for data furnace). Also the *vertical offloading* target of the
/// DF3 architecture.
///
/// Model: a homogeneous pool of always-on cores behind a WAN link. FCFS
/// shard scheduling, exact service times, energy integrated event-by-event
/// (IT + fixed overhead fraction + cooling proportional to IT).

#include <deque>
#include <functional>
#include <string>

#include "df3/core/cluster.hpp"
#include "df3/metrics/collectors.hpp"
#include "df3/net/protocol.hpp"
#include "df3/sim/engine.hpp"

namespace df3::baselines {

struct DatacenterConfig {
  std::string label = "datacenter";
  int cores = 2048;
  double core_speed_gcps = 2.9;      ///< per-core gigacycles per second
  util::Watts power_per_busy_core{18.0};
  util::Watts power_per_idle_core{5.0};
  /// Cooling energy as a fraction of IT energy (0.45 -> PUE ~1.5 with
  /// overhead 0.05). Set ~0.02 for free-cooled micro facilities.
  double cooling_fraction = 0.45;
  /// Fixed overhead (PSU, network gear) as a fraction of IT energy.
  double overhead_fraction = 0.05;
  /// WAN link between clients and the facility (both directions).
  net::LinkProfile wan = net::fiber_wan();
  /// Extra one-way distance latency to the facility (s) on top of the WAN
  /// profile (a remote region vs a metro micro-DC).
  double extra_latency_s = 0.012;
};

/// Always-on compute facility. Single logical queue, FCFS over shards.
class Datacenter : public sim::Entity, public core::ComputeService {
 public:
  Datacenter(sim::Simulation& sim, DatacenterConfig config);

  // core::ComputeService
  void submit(workload::Request r, net::NodeId origin, core::CompletionSink done) override;

  [[nodiscard]] const DatacenterConfig& config() const { return config_; }
  [[nodiscard]] int busy_cores() const { return busy_cores_; }
  [[nodiscard]] std::size_t queued_shards() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t completed_requests() const { return completed_; }

  /// Energy ledger up to the current simulation time (settles first).
  [[nodiscard]] const metrics::EnergyLedger& energy();

  /// Mean core utilization since construction.
  [[nodiscard]] double mean_utilization() const;

 private:
  struct Job {
    workload::Request request;
    net::NodeId origin;
    core::CompletionSink done;
    int shards_left;
    sim::Time arrived_at_dc;
    sim::Time first_start = -1.0;  ///< first shard dispatch (queue-wait end)
  };
  struct Shard {
    std::shared_ptr<Job> job;
    double gigacycles;
  };

  void settle_energy();
  void dispatch();
  void finish_shard(const std::shared_ptr<Job>& job);

  DatacenterConfig config_;
  std::deque<Shard> queue_;
  int busy_cores_ = 0;
  std::uint64_t completed_ = 0;
  metrics::EnergyLedger ledger_;
  sim::Time energy_mark_ = 0.0;
  double busy_core_seconds_ = 0.0;
};

/// Metro micro-datacenter (Schneider-style, paper section V): small core
/// pool, city-level latency, partially free-cooled.
[[nodiscard]] DatacenterConfig micro_datacenter_config();

/// CDN point of presence reused for edge compute: tiny pool, very low
/// latency, standard cooling.
[[nodiscard]] DatacenterConfig cdn_pop_config();

}  // namespace df3::baselines
