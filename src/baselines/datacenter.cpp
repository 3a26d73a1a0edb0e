#include "df3/baselines/datacenter.hpp"

#include <stdexcept>

#include "df3/obs/obs.hpp"

namespace df3::baselines {

namespace {
/// Flow attribute on journey arrival links: 0 = unknown, else flow+1
/// (mirrors the cluster-side encoding in cluster.cpp).
constexpr std::uint32_t journey_flow_attr(workload::Flow f) {
  return static_cast<std::uint32_t>(f) + 1;
}
}  // namespace

Datacenter::Datacenter(sim::Simulation& sim, DatacenterConfig config)
    : sim::Entity(sim, config.label), config_(std::move(config)) {
  if (config_.cores <= 0) throw std::invalid_argument("Datacenter: cores must be positive");
  if (config_.core_speed_gcps <= 0.0) {
    throw std::invalid_argument("Datacenter: core speed must be positive");
  }
  if (config_.cooling_fraction < 0.0 || config_.overhead_fraction < 0.0) {
    throw std::invalid_argument("Datacenter: negative energy fractions");
  }
  energy_mark_ = now();
}

void Datacenter::settle_energy() {
  const double dt = now() - energy_mark_;
  if (dt <= 0.0) return;
  energy_mark_ = now();
  busy_core_seconds_ += busy_cores_ * dt;
  const double idle_cores = static_cast<double>(config_.cores - busy_cores_);
  const util::Joules it = (config_.power_per_busy_core * static_cast<double>(busy_cores_) +
                           config_.power_per_idle_core * idle_cores) *
                          util::Seconds{dt};
  ledger_.add_it(it);
  ledger_.add_overhead(it * config_.overhead_fraction);
  ledger_.add_cooling(it * config_.cooling_fraction);
  // Everything an air-cooled facility consumes is rejected as waste heat.
  ledger_.add_waste_heat(it * (1.0 + config_.cooling_fraction));
}

void Datacenter::submit(workload::Request r, net::NodeId origin, Done done) {
  if (!done) throw std::invalid_argument("Datacenter::submit: null completion callback");
  const double uplink =
      config_.wan.one_hop_delay(r.input_size).value() + config_.extra_latency_s;
  // Journey segments are `_if_open`: the WAN is modelled as a point delay
  // (no net::Network hop), so the facility emits its own uplink/downlink
  // spans — but only for requests whose journey the platform opened, so
  // traces of non-journey traffic are unchanged.
  DF3_OBS_TRACE_IF(o) {
    o->journey_span_if_open(this, config_.label, obs::Phase::kNetHop, now(), now() + uplink, r.id,
                            -1, static_cast<std::uint32_t>(obs::HopKind::kDcUplink));
  }
  sim().schedule_in(uplink, [this, r = std::move(r), origin, done = std::move(done)]() mutable {
    auto job = std::make_shared<Job>(
        Job{std::move(r), origin, std::move(done), 0, now()});
    job->shards_left = job->request.tasks;
    DF3_OBS_TRACE_IF(o) {
      o->journey_instant_if_open(this, config_.label, obs::Phase::kArrival, now(),
                                 job->request.id, -1, journey_flow_attr(job->request.flow));
    }
    for (int i = 0; i < job->request.tasks; ++i) {
      queue_.push_back(Shard{job, job->request.work_gigacycles});
    }
    dispatch();
  });
}

void Datacenter::dispatch() {
  while (!queue_.empty() && busy_cores_ < config_.cores) {
    settle_energy();
    Shard s = std::move(queue_.front());
    queue_.pop_front();
    ++busy_cores_;
    if (s.job->first_start < 0.0) {
      s.job->first_start = now();
      DF3_OBS_TRACE_IF(o) {
        o->journey_span_if_open(this, config_.label, obs::Phase::kQueueWait,
                                s.job->arrived_at_dc, now(), s.job->request.id, 0, 0);
      }
    }
    const double duration = s.gigacycles / config_.core_speed_gcps;
    sim().schedule_in(duration, [this, job = s.job] {
      settle_energy();
      --busy_cores_;
      finish_shard(job);
      dispatch();
    });
  }
}

void Datacenter::finish_shard(const std::shared_ptr<Job>& job) {
  if (--job->shards_left > 0) return;
  ++completed_;
  const double downlink =
      config_.wan.one_hop_delay(job->request.output_size).value() + config_.extra_latency_s;
  DF3_OBS_TRACE_IF(o) {
    // One run segment per job: first shard dispatch to last shard finish.
    o->journey_span_if_open(this, config_.label, obs::Phase::kRun, job->first_start, now(),
                            job->request.id, 0, 0);
    o->journey_span_if_open(this, config_.label, obs::Phase::kNetHop, now(), now() + downlink,
                            job->request.id, -1,
                            static_cast<std::uint32_t>(obs::HopKind::kDcDownlink));
  }
  sim().schedule_in(downlink, [this, job] {
    workload::CompletionRecord rec;
    rec.request = job->request;
    rec.completed_at = now();
    const auto deadline = job->request.absolute_deadline();
    rec.outcome = (deadline && rec.completed_at > *deadline)
                      ? workload::Outcome::kDeadlineMissed
                      : workload::Outcome::kCompleted;
    rec.served_by = workload::ServedBy::kVertical;
    job->done(std::move(rec));
  });
}

const metrics::EnergyLedger& Datacenter::energy() {
  settle_energy();
  return ledger_;
}

double Datacenter::mean_utilization() const {
  const double elapsed = now();
  if (elapsed <= 0.0) return 0.0;
  const double current = busy_core_seconds_ + busy_cores_ * (now() - energy_mark_);
  return current / (elapsed * static_cast<double>(config_.cores));
}

DatacenterConfig micro_datacenter_config() {
  DatacenterConfig c;
  c.label = "micro-datacenter";
  c.cores = 64;
  c.cooling_fraction = 0.25;  // small room units, partial free cooling
  c.overhead_fraction = 0.08; // worse PSU/network amortization at small scale
  c.extra_latency_s = 0.002;  // in-city
  return c;
}

DatacenterConfig cdn_pop_config() {
  DatacenterConfig c;
  c.label = "cdn-pop";
  c.cores = 16;
  c.cooling_fraction = 0.35;
  c.overhead_fraction = 0.08;
  c.extra_latency_s = 0.001;  // carrier hotel in the same metro
  return c;
}

}  // namespace df3::baselines
