#include "df3/core/composition.hpp"

#include <limits>
#include <stdexcept>

namespace df3::core {

ServiceComposer::ServiceComposer(Cluster& cluster, net::Network& network, net::NodeId origin)
    : cluster_(cluster), network_(network), origin_(origin) {}

void ServiceComposer::provide(const std::string& function, std::size_t widx) {
  if (widx >= cluster_.worker_count()) {
    throw std::out_of_range("ServiceComposer::provide: bad worker index");
  }
  providers_[function].push_back(widx);
}

std::size_t ServiceComposer::providers_of(const std::string& function) const {
  const auto it = providers_.find(function);
  return it == providers_.end() ? 0 : it->second.size();
}

double ServiceComposer::compute_time_s(const ServiceFunction& f, std::size_t widx) const {
  const auto& server = worker(widx).server();
  const double speed = server.core_speed_gcps();
  if (speed <= 0.0) return std::numeric_limits<double>::infinity();  // gated/throttled out
  return f.work_gigacycles / speed;
}

double ServiceComposer::compute_energy_j(const ServiceFunction& f, std::size_t widx) const {
  const auto& server = worker(widx).server();
  const double speed = server.core_speed_gcps();
  if (speed <= 0.0) return std::numeric_limits<double>::infinity();
  // Marginal energy of occupying one extra core for the stage's duration:
  // the per-core dynamic power at the current operating point.
  const double chassis_dynamic =
      server.max_power_now().value() - server.idle_power().value();
  const double per_core_w = chassis_dynamic / server.spec().total_cores();
  return per_core_w * (f.work_gigacycles / speed);
}

double ServiceComposer::transfer_time_s(net::NodeId from, net::NodeId to,
                                        util::Bytes size) const {
  if (from == to) return 0.0;
  const auto d = network_.unloaded_delay(from, to, size);
  return d ? d->value() : std::numeric_limits<double>::infinity();
}

SelectionResult ServiceComposer::select(const ServiceChain& chain, Objective objective,
                                        double balance) const {
  if (chain.stages.empty()) throw std::invalid_argument("select: empty chain");
  if (balance < 0.0 || balance > 1.0) throw std::invalid_argument("select: balance outside [0,1]");
  const std::size_t n = chain.stages.size();

  // Candidate lists per stage.
  std::vector<const std::vector<std::size_t>*> candidates(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto it = providers_.find(chain.stages[s].name);
    if (it == providers_.end() || it->second.empty()) {
      throw std::invalid_argument("select: no provider for " + chain.stages[s].name);
    }
    candidates[s] = &it->second;
  }

  // Cost scaling for the balanced objective: normalize by the best
  // single-stage latency/energy so the weights are comparable.
  auto stage_cost = [&](const ServiceFunction& f, std::size_t widx, double xfer_s) {
    const double latency = compute_time_s(f, widx) + xfer_s;
    const double energy = compute_energy_j(f, widx);
    switch (objective) {
      case Objective::kLatency: return latency;
      case Objective::kEnergy: return energy + xfer_s * 1e-6;  // tiny tiebreak toward locality
      case Objective::kBalanced: return balance * latency + (1.0 - balance) * energy * 0.01;
    }
    return latency;
  };

  // Layered DP over (stage, candidate).
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> best(n);
  std::vector<std::vector<std::size_t>> from(n);
  for (std::size_t s = 0; s < n; ++s) {
    best[s].assign(candidates[s]->size(), inf);
    from[s].assign(candidates[s]->size(), 0);
  }
  for (std::size_t j = 0; j < candidates[0]->size(); ++j) {
    const std::size_t w = (*candidates[0])[j];
    const double xfer =
        transfer_time_s(origin_, worker(w).node(), chain.input);
    best[0][j] = stage_cost(chain.stages[0], w, xfer);
  }
  for (std::size_t s = 1; s < n; ++s) {
    for (std::size_t j = 0; j < candidates[s]->size(); ++j) {
      const std::size_t w = (*candidates[s])[j];
      for (std::size_t i = 0; i < candidates[s - 1]->size(); ++i) {
        if (best[s - 1][i] == inf) continue;
        const std::size_t pw = (*candidates[s - 1])[i];
        const double xfer = transfer_time_s(worker(pw).node(),
                                            worker(w).node(),
                                            chain.stages[s - 1].output);
        const double cost = best[s - 1][i] + stage_cost(chain.stages[s], w, xfer);
        if (cost < best[s][j]) {
          best[s][j] = cost;
          from[s][j] = i;
        }
      }
    }
  }
  // Close the loop: the final output returns to the origin.
  std::size_t arg = 0;
  double total = inf;
  for (std::size_t j = 0; j < candidates[n - 1]->size(); ++j) {
    if (best[n - 1][j] == inf) continue;
    const std::size_t w = (*candidates[n - 1])[j];
    const double ret = transfer_time_s(worker(w).node(), origin_,
                                       chain.stages[n - 1].output);
    const double cost = best[n - 1][j] + (objective == Objective::kEnergy ? ret * 1e-6 : ret);
    if (cost < total) {
      total = cost;
      arg = j;
    }
  }
  if (total == inf) throw std::runtime_error("select: no feasible assignment (cluster gated?)");

  // Reconstruct and compute the *physical* predictions for the chosen path.
  SelectionResult result;
  result.worker_per_stage.resize(n);
  std::size_t cur = arg;
  for (std::size_t s = n; s-- > 0;) {
    result.worker_per_stage[s] = (*candidates[s])[cur];
    cur = from[s][cur];
  }
  net::NodeId at = origin_;
  util::Bytes payload = chain.input;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t w = result.worker_per_stage[s];
    result.predicted_latency_s += transfer_time_s(at, worker(w).node(), payload);
    result.predicted_latency_s += compute_time_s(chain.stages[s], w);
    result.predicted_energy_j += compute_energy_j(chain.stages[s], w);
    at = worker(w).node();
    payload = chain.stages[s].output;
  }
  result.predicted_latency_s += transfer_time_s(at, origin_, payload);
  return result;
}

struct ServiceComposer::Pending {
  ServiceChain chain;
  SelectionResult selection;
  std::function<void(double, bool)> done;
  std::size_t stage = 0;
  double started_at = 0.0;
};

void ServiceComposer::execute(const ServiceChain& chain, const SelectionResult& selection,
                              std::function<void(double, bool)> done) {
  if (selection.worker_per_stage.size() != chain.stages.size()) {
    throw std::invalid_argument("execute: selection does not match chain");
  }
  if (chain.stages.empty()) throw std::invalid_argument("execute: empty chain");
  if (!done) throw std::invalid_argument("execute: null completion callback");
  auto p = std::make_shared<Pending>();
  p->chain = chain;
  p->selection = selection;
  p->done = std::move(done);
  p->started_at = cluster_.now();
  run_stage(p, origin_);
}

void ServiceComposer::run_stage(const std::shared_ptr<Pending>& pending, net::NodeId at) {
  const std::size_t s = pending->stage;
  const auto& f = pending->chain.stages[s];
  const std::size_t widx = pending->selection.worker_per_stage[s];
  workload::Request r;
  r.flow = workload::Flow::kEdgeDirect;
  r.app = pending->chain.name + "/" + f.name;
  r.arrival = cluster_.now();
  r.work_gigacycles = f.work_gigacycles;
  r.input_size = s == 0 ? pending->chain.input : pending->chain.stages[s - 1].output;
  r.output_size = f.output;
  r.preemptible = false;
  const net::NodeId target = worker(widx).node();
  network_.send(
      net::Message{at, target, r.input_size, 0},
      [this, pending, widx, target, r]() mutable {
        cluster_.run_pinned(std::move(r), widx,
                            [this, pending, target](workload::CompletionRecord rec) {
                              if (rec.outcome != workload::Outcome::kCompleted &&
                                  rec.outcome != workload::Outcome::kDeadlineMissed) {
                                pending->done(cluster_.now() - pending->started_at, false);
                                return;
                              }
                              ++pending->stage;
                              if (pending->stage < pending->chain.stages.size()) {
                                run_stage(pending, target);
                              } else {
                                finish(pending, target);
                              }
                            });
      },
      [this, pending] { pending->done(cluster_.now() - pending->started_at, false); });
}

void ServiceComposer::finish(const std::shared_ptr<Pending>& pending, net::NodeId at) {
  const auto out = pending->chain.stages.back().output;
  network_.send(
      net::Message{at, origin_, out, 0},
      [this, pending] {
        const double latency = cluster_.now() - pending->started_at;
        const bool met =
            !pending->chain.deadline_s || latency <= *pending->chain.deadline_s;
        pending->done(latency, met);
      },
      [this, pending] { pending->done(cluster_.now() - pending->started_at, false); });
}

}  // namespace df3::core
