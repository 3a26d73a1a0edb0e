#pragma once
/// \file worker.hpp
/// \brief Worker runtime on one DF server: executes task shards, tracks
///        progress across DVFS/throttle speed changes, supports preemption.
///
/// The worker is the "worker system" of the paper's component architecture
/// (Fig. 5). It owns no scheduling policy — the cluster gateway decides what
/// runs; the worker faithfully executes at whatever speed the hardware
/// currently sustains (P-state chosen by the heat regulator, derated by the
/// free-cooling throttle, zero when the chassis is gated off). Progress
/// accounting is exact: on every speed change the remaining gigacycles of
/// each running shard are updated and completion events re-armed.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "df3/core/task.hpp"
#include "df3/hw/server.hpp"
#include "df3/net/network.hpp"
#include "df3/sim/engine.hpp"

namespace df3::core {

/// The owner of a set of workers (a Cluster, or a test harness): the
/// simulation they run on, the name theirs derive from, and the hook their
/// completions go to.
class WorkerHost : public sim::Entity {
 public:
  using sim::Entity::Entity;

  /// Fires when worker `worker` completes a shard. The worker frees the
  /// core before invoking it, so the hook may immediately dispatch new work
  /// to that worker.
  virtual void on_task_done(std::size_t worker, Task task) = 0;
};

/// Executes tasks on one hw::DfServer. A worker reaches its simulation,
/// completion hook and name through its host and its index there, so it
/// stores no callback and no name; the host keeps it at a fixed address
/// (completion events point at it).
class Worker {
 public:
  /// Worker `index` of `host`, named "<host name>/w<index>".
  Worker(WorkerHost& host, std::size_t index, const hw::ServerModel& model, net::NodeId node);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// "<host name>/w<index>", built on each call: only audit findings and
  /// kFull trace tracks print it.
  [[nodiscard]] std::string name() const;

  [[nodiscard]] hw::DfServer& server() { return server_; }
  [[nodiscard]] const hw::DfServer& server() const { return server_; }
  [[nodiscard]] net::NodeId node() const { return node_; }

  [[nodiscard]] int total_cores() const { return server_.spec().total_cores(); }
  [[nodiscard]] int busy_cores() const { return static_cast<int>(running_.size()); }
  [[nodiscard]] int free_cores() const;
  [[nodiscard]] bool available() const { return free_cores() > 0; }

  /// Start a shard on a free core. Returns false (and leaves the task
  /// untouched) when no core is free or the server is unusable.
  [[nodiscard]] bool try_start(Task task);

  /// Preempt one running *preemptible* shard with priority strictly below
  /// `min_keep`; its remaining work is captured and the shard returned.
  /// Picks the shard with the most remaining work (least progress lost).
  [[nodiscard]] std::optional<Task> preempt_one(Priority min_keep);

  /// Number of running shards with priority below `p`.
  [[nodiscard]] int running_below(Priority p) const;

  /// Re-evaluate speed after a hardware change (P-state, throttle, gating).
  /// Must be called by whoever mutates the server. Paused tasks (speed 0)
  /// resume automatically when speed returns. Header-inline: the city tick
  /// calls this once per worker per tick and the common case (no running
  /// shards, speed unchanged) must cost a handful of instructions.
  void sync_speed() {
    const double new_speed = server_.core_speed_gcps();
    for (auto& r : running_) {
      if (r.speed_gcps == new_speed) continue;
      settle(r);
      r.speed_gcps = new_speed;
      arm_completion(r);
    }
    // Re-assert busy-core accounting: gating clears it inside the server.
    sync_busy_cores();
  }

  /// Sum of remaining gigacycles across running shards.
  [[nodiscard]] double backlog_gigacycles() const;

  // --- accounting ---
  [[nodiscard]] std::uint64_t tasks_completed() const { return completed_; }
  /// Core-seconds of executed work (at whatever speed), for utilization.
  [[nodiscard]] double busy_core_seconds() const;

  /// Structural invariant sweep (lifecycle auditor, DESIGN.md §9): the
  /// server's busy-core count must match the running set clamped to what is
  /// usable, and no running shard may carry negative remaining work.
  /// Appends one human-readable line per violation.
  void audit(std::vector<std::string>& out) const;

  /// Visit every running shard (core-acquisition order). Read-only
  /// state-capture hook for the model checker's snapshot digests
  /// (DESIGN.md §13); `speed_gcps` is the per-core speed the shard was last
  /// (re)armed at. Not a hot path.
  void for_each_running(
      const std::function<void(const Task&, double speed_gcps)>& fn) const {
    for (const auto& r : running_) fn(r.task, r.speed_gcps);
  }

 private:
  struct Running {
    Task task;
    sim::Time started_at = 0.0;        ///< last (re)start instant
    sim::Time dispatched_at = 0.0;     ///< core acquired (survives speed changes)
    double speed_gcps = 0.0;           ///< per-core speed when (re)started
    sim::EventHandle completion;
  };

  [[nodiscard]] sim::Simulation& sim() const { return host_->sim(); }
  [[nodiscard]] sim::Time now() const { return host_->now(); }
  void arm_completion(Running& r);
  void settle(Running& r);  ///< fold elapsed progress into remaining work
  void finish(std::size_t idx);

  /// Re-assert the server's busy-core count from the running set, clamped
  /// to what is currently usable (0 while gated or thermally shut down).
  /// finish/preempt/sync all funnel through this so the chassis count can
  /// never diverge from the running set, even across gate/ungate cycles.
  void sync_busy_cores() { server_.set_busy_cores(std::min(busy_cores(), server_.usable_cores())); }

  WorkerHost* host_;
  hw::DfServer server_;
  std::vector<Running> running_;
  std::uint64_t completed_ = 0;
  double busy_core_seconds_ = 0.0;
  sim::Time busy_accum_mark_ = 0.0;
  net::NodeId node_;
  std::uint32_t index_;  ///< position in the host
};

}  // namespace df3::core
