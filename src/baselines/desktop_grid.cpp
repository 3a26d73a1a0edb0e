#include "df3/baselines/desktop_grid.hpp"

#include <algorithm>
#include <stdexcept>

#include "df3/thermal/calendar.hpp"

namespace df3::baselines {

DesktopGrid::DesktopGrid(sim::Simulation& sim, DesktopGridConfig config, std::uint64_t seed)
    : sim::Entity(sim, config.label),
      config_(std::move(config)),
      rng_(seed, this->name()) {
  if (config_.hosts <= 0 || config_.cores_per_host <= 0) {
    throw std::invalid_argument("DesktopGrid: hosts and cores must be positive");
  }
  if (config_.core_speed_gcps <= 0.0) {
    throw std::invalid_argument("DesktopGrid: core speed must be positive");
  }
  hosts_.resize(static_cast<std::size_t>(config_.hosts));
  energy_mark_ = now();
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    hosts_[h].available = rng_.bernoulli(0.6);
    arm_flip(h);
  }
}

void DesktopGrid::arm_flip(std::size_t h) {
  Host& host = hosts_[h];
  double mean;
  if (host.available) {
    mean = config_.mean_available_s;
  } else {
    // Owners reclaim far less at night: reclaimed spells are shorter.
    const double hour = thermal::hour_of_day(now());
    const bool night = hour >= 22.0 || hour < 7.0;
    mean = night ? config_.mean_reclaimed_s / 4.0 : config_.mean_reclaimed_s;
  }
  const double sojourn = rng_.exponential(1.0 / mean);
  host.flip = sim().schedule_in(sojourn, [this, h] {
    if (hosts_[h].available) {
      reclaim(h);
    } else {
      release(h);
    }
    arm_flip(h);
  });
}

void DesktopGrid::reclaim(std::size_t h) {
  settle_energy();
  Host& host = hosts_[h];
  host.available = false;
  // Kill every running shard: no checkpoints in classic volunteer
  // computing; full gigacycles go back to the queue.
  for (auto& slot : host.slots) {
    if (!slot->live) continue;
    slot->completion.cancel();
    slot->live = false;
    ++restarts_;
    queue_.emplace_back(slot->job, slot->gigacycles);
  }
  host.slots.clear();
  host.busy_cores = 0;
  dispatch();  // restarted shards may fit elsewhere right now
}

void DesktopGrid::release(std::size_t h) {
  settle_energy();
  hosts_[h].available = true;
  dispatch();
}

int DesktopGrid::available_hosts() const {
  int n = 0;
  for (const auto& host : hosts_) n += host.available ? 1 : 0;
  return n;
}

void DesktopGrid::settle_energy() {
  const double dt = now() - energy_mark_;
  if (dt <= 0.0) return;
  energy_mark_ = now();
  double busy = 0.0, idle_hosts = 0.0;
  for (const auto& host : hosts_) {
    busy += host.busy_cores;
    if (host.available) idle_hosts += 1.0;
  }
  const util::Joules it = (config_.power_per_busy_core * busy +
                           config_.power_per_idle_host * idle_hosts) *
                          util::Seconds{dt};
  ledger_.add_it(it);
  // Desktop heat lands in homes but is not *requested* heat: waste.
  ledger_.add_waste_heat(it);
}

void DesktopGrid::submit(workload::Request r, net::NodeId /*origin*/, core::CompletionSink done) {
  if (!done) throw std::invalid_argument("DesktopGrid::submit: null completion callback");
  const double uplink = config_.wan.one_hop_delay(r.input_size).value();
  sim().schedule_in(uplink, [this, r = std::move(r), done = std::move(done)]() mutable {
    auto job = std::make_shared<Job>(Job{std::move(r), std::move(done), 0});
    job->shards_left = job->request.tasks;
    for (int i = 0; i < job->request.tasks; ++i) {
      queue_.emplace_back(job, job->request.work_gigacycles);
    }
    dispatch();
  });
}

void DesktopGrid::dispatch() {
  while (!queue_.empty()) {
    // First fit over available hosts with a free core.
    std::size_t target = hosts_.size();
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      if (hosts_[h].available && hosts_[h].busy_cores < config_.cores_per_host) {
        target = h;
        break;
      }
    }
    if (target == hosts_.size()) return;  // nothing free: wait for release
    settle_energy();
    auto [job, gigacycles] = queue_.front();
    queue_.pop_front();
    Host& host = hosts_[target];
    ++host.busy_cores;
    auto slot = std::make_shared<Host::Slot>();
    slot->job = job;
    slot->gigacycles = gigacycles;
    const double duration = gigacycles / config_.core_speed_gcps;
    slot->completion = sim().schedule_in(duration, [this, target, slot] {
      if (!slot->live) return;
      settle_energy();
      slot->live = false;
      Host& h = hosts_[target];
      h.busy_cores = std::max(0, h.busy_cores - 1);
      h.slots.erase(std::remove(h.slots.begin(), h.slots.end(), slot), h.slots.end());
      finish_job(slot->job);
      dispatch();
    });
    host.slots.push_back(std::move(slot));
  }
}

void DesktopGrid::finish_job(const std::shared_ptr<Job>& job) {
  if (--job->shards_left > 0) return;
  ++completed_;
  const double downlink = config_.wan.one_hop_delay(job->request.output_size).value();
  sim().schedule_in(downlink, [this, job] {
    workload::CompletionRecord rec;
    rec.request = job->request;
    rec.completed_at = now();
    const auto deadline = job->request.absolute_deadline();
    rec.outcome = (deadline && rec.completed_at > *deadline)
                      ? workload::Outcome::kDeadlineMissed
                      : workload::Outcome::kCompleted;
    rec.served_by = workload::ServedBy::kGrid;
    job->done(std::move(rec));
  });
}

const metrics::EnergyLedger& DesktopGrid::energy() {
  settle_energy();
  return ledger_;
}

}  // namespace df3::baselines
