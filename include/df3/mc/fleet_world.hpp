#pragma once
/// \file fleet_world.hpp
/// \brief The concrete checked world: a small fixed DF3 fleet whose
///        exogenous decision-relevant events are explicit choice points.
///
/// Fixture (per `reset()`, bit-identical every time):
///
///  * 2-3 buildings ("b0", "b1"[, "b2"]), 2 rooms each, every room hosting
///    a single-core DF server — so one task shard saturates a worker and
///    every placement decision is observable;
///  * full four-rung peak ladder (preempt -> horizontal -> vertical ->
///    delay), EDF discipline, full-mesh federation, datacenter attached,
///    lifecycle auditing at kFull;
///  * background load pinning the root state: b0's workers run
///    non-preemptible cloud work (so a native edge burst must escalate past
///    preemption to horizontal offload), every other building runs one
///    preemptible victim and one non-preemptible filler (so preemption can
///    fire exactly once before the ladder escalates further);
///  * injectors wired but *not* RNG-scheduled: one LinkFlapper over the
///    building uplinks and each building's gw-srv0 link, and one
///    WorkerChurn (power gating) per cluster, driven exclusively through
///    their force_toggle choice points.
///
/// The action alphabet (cluster count n):
///
///   edge(bK)      submit a 1-task edge request at building K
///   edge2(b1)     submit a 2-task edge request at b1 (multi-shard requests
///                 cannot offload, so this reaches the delay rung)
///   cloud_dl(b1)  submit a deadline-carrying cloud request at b1 (EDF lane
///                 ordering pressure)
///   pinned(b0/w0) run a composition stage pinned to b0's worker 0
///   flap(up-bK)   toggle building K's uplink (partition choice point)
///   flap(lan-bK)  toggle building K's gw-srv0 link, inside the building's
///                 {gw, dev, wifi, srv0} cycle: staging to srv0 reroutes
///                 through the dev or wifi back door
///   gate(bK/w0)   power-gate / restore worker 0 of cluster K
///   step          advance simulated time by 1 s (lets in-flight network
///                 transfers land between choice points)
///   tick          advance by one physics tick (thermal / regulator /
///                 gating interleavings)
///
/// Once a branch has flapped, check() and finalize() also report every
/// cached route that differs from a fresh search (coverage: route_checks).
/// check() also runs the platform's tick-cache oracle,
/// Df3Platform::verify_tick_caches() (coverage: tick_checks).
///
/// Submissions and toggles advance no simulated time themselves, so a flap
/// can be ordered *between* a submission and the ladder decision it
/// triggers — exactly the hand-off-vs-partition and gate-vs-placement races
/// this checker exists to flush.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "df3/core/fault.hpp"
#include "df3/core/platform.hpp"
#include "df3/mc/world.hpp"
#include "df3/net/fault.hpp"

namespace df3::mc {

struct FleetWorldConfig {
  std::uint64_t seed = 1;
  /// Buildings/clusters in the fleet (2 or 3).
  std::size_t clusters = 2;
  /// Simulated seconds advanced by the "step" action.
  double step_s = 1.0;
  /// Physics control period; also the "tick" action's advance.
  double tick_s = 60.0;
  /// Gigacycles of each background request — long enough to outlive any
  /// explored branch (workers stay busy), short enough that finalize()
  /// drains in bounded simulated time.
  double background_work_gc = 2000.0;
  /// Restrict the alphabet to these labels (empty = full alphabet). Labels
  /// must exist in the full alphabet; order is normalized to canonical.
  std::vector<std::string> alphabet;
};

/// World implementation over a real Df3Platform. See file comment.
class FleetWorld final : public World {
 public:
  explicit FleetWorld(FleetWorldConfig config);
  ~FleetWorld() override;

  void reset() override;
  [[nodiscard]] std::vector<std::string> enabled() override;
  void apply(const std::string& action) override;
  [[nodiscard]] std::vector<std::string> check() override;
  [[nodiscard]] std::vector<std::string> finalize() override;
  [[nodiscard]] std::uint64_t digest() override;
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> coverage() override;

  /// The live platform of the current branch (tests only; reset() replaces
  /// it). Undefined before the first reset().
  [[nodiscard]] core::Df3Platform& platform() { return *city_; }

 private:
  void build_actions();
  [[nodiscard]] workload::Request make_request(const char* app, double work_gc);
  /// Appends Network::verify_route_cache()'s mismatches once the branch
  /// has flapped, and counts the cached routes checked.
  void check_routes(std::vector<std::string>& out);

  FleetWorldConfig config_;
  std::unique_ptr<core::Df3Platform> city_;
  std::unique_ptr<net::LinkFlapper> flapper_;
  std::vector<std::unique_ptr<core::WorkerChurn>> churn_;
  /// (label, thunk) in canonical order; filtered by config_.alphabet.
  std::vector<std::pair<std::string, std::function<void()>>> actions_;
  std::uint64_t next_id_ = 0;
  std::uint64_t route_checks_ = 0;
  std::uint64_t tick_checks_ = 0;
};

}  // namespace df3::mc
