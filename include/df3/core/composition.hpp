#pragma once
/// \file composition.hpp
/// \brief Resource-oriented service composition over a DF cluster (§IV).
///
/// "RESTful APIs were introduced for defining uniform resource interface
///  that supports this ROC view. The goal was to define a generic interface
///  of functions for resources ... in order to transform the design of
///  distributed middlewares as the problem of automatically composing
///  resource functions [19]."
///
/// Reference [19] (Ngoko, Goldman & Milojicic) selects, for each stage of a
/// service composition, the provider that optimizes energy consumption and
/// response time. We implement exactly that for linear chains:
///
///  * a `ServiceRegistry` maps function names to the workers offering them;
///  * `select` solves the layered-graph shortest path (DP, exact): stage
///    costs are compute time/energy on the candidate worker, edge costs are
///    the network transfer of the intermediate payload between consecutive
///    workers, under a latency / energy / weighted objective;
///  * `execute` runs the chain for real through the cluster, stage by
///    stage, so predictions can be validated against simulated truth.

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "df3/core/cluster.hpp"

namespace df3::core {

/// One stage of a chain: a named function with its compute and output size.
struct ServiceFunction {
  std::string name;
  double work_gigacycles = 1.0;
  util::Bytes output{1024.0};  ///< payload handed to the next stage
};

/// A linear composition. `input` enters stage 0 from `origin`.
struct ServiceChain {
  std::string name = "chain";
  std::vector<ServiceFunction> stages;
  util::Bytes input{1024.0};
  std::optional<double> deadline_s;
};

/// What the composer optimizes.
enum class Objective : std::uint8_t { kLatency, kEnergy, kBalanced };

/// The chosen provider per stage plus the model's predictions.
struct SelectionResult {
  std::vector<std::size_t> worker_per_stage;
  double predicted_latency_s = 0.0;
  double predicted_energy_j = 0.0;
};

/// Registry + optimizer + executor bound to one cluster.
class ServiceComposer {
 public:
  /// `origin` is the node where chain inputs enter and results return.
  ServiceComposer(Cluster& cluster, net::Network& network, net::NodeId origin);

  /// Declare that worker `widx` offers `function`. A worker may offer many
  /// functions; a function may have many providers.
  void provide(const std::string& function, std::size_t widx);

  [[nodiscard]] std::size_t providers_of(const std::string& function) const;

  /// Exact optimal provider assignment for the chain under the objective
  /// (layered-graph dynamic programming). Throws if any stage has no
  /// provider. `balance` weighs latency vs energy for kBalanced (0 = pure
  /// energy, 1 = pure latency).
  [[nodiscard]] SelectionResult select(const ServiceChain& chain, Objective objective,
                                       double balance = 0.5) const;

  /// Execute the chain on the selected workers: real transfers, real
  /// queueing for cores. `done(latency_s, deadline_met)` fires when the
  /// final result reaches the origin.
  void execute(const ServiceChain& chain, const SelectionResult& selection,
               std::function<void(double, bool)> done);

  // --- model pieces exposed for tests ---
  [[nodiscard]] double compute_time_s(const ServiceFunction& f, std::size_t widx) const;
  [[nodiscard]] double compute_energy_j(const ServiceFunction& f, std::size_t widx) const;
  [[nodiscard]] double transfer_time_s(net::NodeId from, net::NodeId to, util::Bytes size) const;

 private:
  struct Pending;
  /// Read-only worker access: planning and staging must not bump the
  /// cluster's control epoch (only run_pinned does, once per stage).
  [[nodiscard]] const Worker& worker(std::size_t widx) const {
    return std::as_const(cluster_).worker(widx);
  }
  void run_stage(const std::shared_ptr<Pending>& pending, net::NodeId at);
  void finish(const std::shared_ptr<Pending>& pending, net::NodeId at);

  Cluster& cluster_;
  net::Network& network_;
  net::NodeId origin_;
  std::unordered_map<std::string, std::vector<std::size_t>> providers_;
};

}  // namespace df3::core
