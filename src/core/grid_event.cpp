#include "df3/core/grid_event.hpp"

#include <cmath>
#include <stdexcept>

#include "df3/obs/obs.hpp"

namespace df3::core {

GridEventSource::GridEventSource(sim::Simulation& sim, std::string name, grid::GridPlane& plane,
                                 std::vector<Cluster*> clusters, GridEventConfig config,
                                 util::RngStream rng)
    : sim::Entity(sim, std::move(name)),
      plane_(plane),
      clusters_(std::move(clusters)),
      config_(config),
      rng_(rng) {
  if (config_.region >= plane_.region_count()) {
    throw std::out_of_range("GridEventSource: region index out of range");
  }
  // Negated comparisons: NaN compares false, so it must fail these guards.
  if (!(config_.mean_up_s > 0.0) || !(config_.mean_down_s > 0.0) ||
      !std::isfinite(config_.mean_up_s) || !std::isfinite(config_.mean_down_s)) {
    throw std::invalid_argument("GridEventSource: dwell means must be positive and finite");
  }
  if (!(config_.shed_fraction >= 0.0 && config_.shed_fraction <= 1.0)) {
    throw std::invalid_argument("GridEventSource: shed_fraction must be in [0, 1]");
  }
  for (const Cluster* c : clusters_) {
    if (c == nullptr) throw std::invalid_argument("GridEventSource: null cluster");
  }
}

void GridEventSource::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void GridEventSource::stop() {
  if (!running_) return;
  running_ = false;
  next_.cancel();
  if (active_) {
    apply(/*curtail=*/false);
    active_ = false;
    DF3_OBS_TRACE_IF(o) {
      o->span(this, name(), obs::Phase::kGridCurtailment, active_since_, now(),
              static_cast<std::uint64_t>(config_.region));
    }
  }
}

void GridEventSource::arm() {
  const double mean = active_ ? config_.mean_down_s : config_.mean_up_s;
  const double dwell = rng_.exponential(1.0 / mean);
  const sim::Time at = std::max(now(), config_.start) + dwell;
  next_ = sim().schedule_at(at, [this] {
    force_toggle();
    arm();
  });
}

void GridEventSource::force_toggle() {
  active_ = !active_;
  if (active_) {
    ++windows_;
    active_since_ = now();
    DF3_OBS_TRACE_IF(o) {
      o->instant(this, name(), obs::Phase::kGridToggle, now(),
                 static_cast<std::uint64_t>(config_.region));
    }
  } else {
    DF3_OBS_TRACE_IF(o) {
      o->span(this, name(), obs::Phase::kGridCurtailment, active_since_, now(),
              static_cast<std::uint64_t>(config_.region));
    }
  }
  apply(active_);
}

std::size_t GridEventSource::shed_count(const Cluster& c) const {
  return static_cast<std::size_t>(
      std::ceil(config_.shed_fraction * static_cast<double>(c.worker_count())));
}

void GridEventSource::apply(bool curtail) {
  plane_.set_curtailed(config_.region, curtail);
  for (Cluster* const c : clusters_) {
    const std::size_t n = shed_count(*c);
    if (n == 0) continue;
    // The first n workers carry the shed — a fixed set, so entering and
    // leaving a window restores exactly the chassis it gated. Mutable
    // worker() bumps the cluster's control epoch, un-gating any quiet
    // district, just like the fault injectors.
    for (std::size_t w = 0; w < n; ++w) c->worker(w).server().set_powered(!curtail);
    // Same sequence as the physics tick after a hardware change: settle
    // shard progress at the new speed, then re-pump the queue.
    c->sync_workers();
  }
}

}  // namespace df3::core
