#include "df3/core/worker.hpp"

#include <algorithm>
#include <string>

#include "df3/obs/obs.hpp"

namespace df3::core {

Worker::Worker(WorkerHost& host, std::size_t index, const hw::ServerModel& model,
               net::NodeId node)
    : host_(&host), server_(model), node_(node), index_(static_cast<std::uint32_t>(index)) {}

std::string Worker::name() const { return host_->name() + "/w" + std::to_string(index_); }

int Worker::free_cores() const {
  return std::max(0, server_.usable_cores() - busy_cores());
}

double Worker::busy_core_seconds() const {
  return busy_core_seconds_ + busy_cores() * (now() - busy_accum_mark_);
}

void Worker::settle(Running& r) {
  const double elapsed = now() - r.started_at;
  if (elapsed > 0.0 && r.speed_gcps > 0.0) {
    const double progressed = elapsed * r.speed_gcps / r.task.slowdown;
    r.task.remaining_gigacycles = std::max(0.0, r.task.remaining_gigacycles - progressed);
  }
  r.started_at = now();
}

void Worker::arm_completion(Running& r) {
  r.completion.cancel();
  if (r.speed_gcps <= 0.0) return;  // paused: gated off or thermally shut down
  const double duration = r.task.remaining_gigacycles * r.task.slowdown / r.speed_gcps;
  // Match on (ref, shard): the ref's generation keeps a recycled request
  // state from passing for the one this event was armed for.
  r.completion = sim().schedule_in(duration, [this, ref = r.task.request,
                                              shard = r.task.shard_index] {
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (running_[i].task.request == ref && running_[i].task.shard_index == shard) {
        finish(i);
        return;
      }
    }
  });
}

bool Worker::try_start(Task task) {
  if (free_cores() <= 0) return false;
  busy_core_seconds_ = busy_core_seconds();
  busy_accum_mark_ = now();
  DF3_OBS_TRACE_IF(o) {
    if (task.enqueued_at >= 0.0) {
      o->journey_span(this, name(), obs::Phase::kQueueWait, task.enqueued_at, now(),
                      task.request->request.id, task.shard_index,
                      static_cast<std::uint32_t>(task.shard_index));
    }
  }
  Running r;
  r.task = std::move(task);
  r.started_at = now();
  r.dispatched_at = now();
  r.speed_gcps = server_.core_speed_gcps();
  running_.push_back(std::move(r));
  server_.set_busy_cores(busy_cores());
  arm_completion(running_.back());
  return true;
}

void Worker::finish(std::size_t idx) {
  busy_core_seconds_ = busy_core_seconds();
  busy_accum_mark_ = now();
  Running r = std::move(running_[idx]);
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(idx));
  settle(r);
  r.task.remaining_gigacycles = 0.0;
  sync_busy_cores();
  ++completed_;
  DF3_OBS_TRACE_IF(o) {
    o->journey_span(this, name(), obs::Phase::kRun, r.dispatched_at, now(),
                    r.task.request->request.id, r.task.shard_index,
                    static_cast<std::uint32_t>(r.task.shard_index));
  }
  host_->on_task_done(index_, std::move(r.task));
}

std::optional<Task> Worker::preempt_one(Priority min_keep) {
  std::size_t best = running_.size();
  double most_remaining = -1.0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    Running& r = running_[i];
    if (r.task.priority() >= min_keep || !r.task.preemptible()) continue;
    settle(r);  // refresh remaining work before comparing
    if (r.task.remaining_gigacycles > most_remaining) {
      most_remaining = r.task.remaining_gigacycles;
      best = i;
    }
  }
  if (best == running_.size()) return std::nullopt;
  busy_core_seconds_ = busy_core_seconds();
  busy_accum_mark_ = now();
  Running victim = std::move(running_[best]);
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(best));
  victim.completion.cancel();
  settle(victim);
  sync_busy_cores();
  // The partial execution segment still shows up in the trace; the ladder
  // records the preemption event itself on the cluster track.
  DF3_OBS_TRACE_IF(o) {
    o->journey_span(this, name(), obs::Phase::kRun, victim.dispatched_at, now(),
                    victim.task.request->request.id, victim.task.shard_index,
                    static_cast<std::uint32_t>(victim.task.shard_index));
  }
  return std::move(victim.task);
}

void Worker::audit(std::vector<std::string>& out) const {
  const int expect = std::min(busy_cores(), server_.usable_cores());
  if (server_.busy_cores() != expect) {
    out.push_back(name() + ": server busy-core count " + std::to_string(server_.busy_cores()) +
                  " inconsistent with running set (" + std::to_string(busy_cores()) +
                  " running, " + std::to_string(server_.usable_cores()) + " usable)");
  }
  for (const auto& r : running_) {
    if (r.task.remaining_gigacycles < 0.0) {
      out.push_back(name() + ": running shard " + std::to_string(r.task.shard_index) +
                    " of request id " + std::to_string(r.task.request->request.id) +
                    " has negative remaining work");
    }
  }
}

int Worker::running_below(Priority p) const {
  int n = 0;
  for (const auto& r : running_) {
    if (r.task.priority() < p && r.task.preemptible()) ++n;
  }
  return n;
}

double Worker::backlog_gigacycles() const {
  double total = 0.0;
  for (const auto& r : running_) total += r.task.remaining_gigacycles;
  return total;
}

}  // namespace df3::core
