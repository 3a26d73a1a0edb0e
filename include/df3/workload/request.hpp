#pragma once
/// \file request.hpp
/// \brief The unit of work flowing through DF3: one request in one of the
///        paper's three flows.
///
/// Paper section II-C defines the flows:
///   * **heating** — comfort targets from the hosts (not represented here;
///     they are continuous signals produced by thermostats, see
///     df3::thermal);
///   * **Internet (cloud / DCC)** — batch computations from remote users;
///   * **local (edge)** — near-real-time requests from the local network,
///     *direct* (device -> server) or *indirect* (device -> gateway ->
///     worker).
///
/// Work is measured in gigacycles per task (a core at f GHz retires f
/// gigacycles per second), so the same request takes longer on a
/// downclocked or throttled server — this is the coupling between heat
/// demand and computing capacity the whole model is about.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "df3/sim/engine.hpp"
#include "df3/util/units.hpp"

namespace df3::workload {

/// Which of the paper's request flows this request belongs to.
enum class Flow : std::uint8_t { kCloud, kEdgeDirect, kEdgeIndirect };

[[nodiscard]] constexpr bool is_edge(Flow f) { return f != Flow::kCloud; }

[[nodiscard]] constexpr const char* flow_name(Flow f) {
  switch (f) {
    case Flow::kCloud: return "cloud";
    case Flow::kEdgeDirect: return "edge-direct";
    case Flow::kEdgeIndirect: return "edge-indirect";
  }
  return "?";
}

/// One computing request.
struct Request {
  std::uint64_t id = 0;
  Flow flow = Flow::kCloud;
  sim::Time arrival = 0.0;

  /// Application label ("render", "alarm-detection", ...), for reporting
  /// and the suitability experiment E12.
  std::string app = "generic";

  /// CPU work per task, in gigacycles.
  double work_gigacycles = 1.0;

  /// Number of parallel tasks (render batches, parallel solvers). Tasks are
  /// independently schedulable; the request completes when all finish.
  int tasks = 1;

  /// Fraction of each task's runtime spent in synchronous all-to-all
  /// communication (0 = embarrassingly parallel). Tightly coupled apps pay
  /// this over the cluster network — the paper predicts they fare poorly on
  /// data furnace (section VI).
  double comm_fraction = 0.0;

  util::Bytes input_size{1024.0};
  util::Bytes output_size{1024.0};

  /// Relative deadline (seconds after arrival) for near-real-time edge
  /// requests; nullopt for throughput-oriented cloud jobs.
  std::optional<double> deadline_s;

  /// Whether a running task may be preempted and resumed later (checkpoint
  /// restart). The paper's peak-management options include preempting DCC
  /// work for edge requests.
  bool preemptible = true;

  /// Privacy-sensitive requests must not leave the local cluster
  /// (vertical offloading forbidden) — edge confidentiality, section I.
  bool privacy_sensitive = false;

  /// Total gigacycles across all tasks.
  [[nodiscard]] double total_work() const { return work_gigacycles * tasks; }

  /// Absolute deadline, if any.
  [[nodiscard]] std::optional<sim::Time> absolute_deadline() const {
    if (!deadline_s) return std::nullopt;
    return arrival + *deadline_s;
  }
};

/// Terminal status of a request, for metric collection.
enum class Outcome : std::uint8_t {
  kCompleted,        ///< finished (deadline met if it had one)
  kDeadlineMissed,   ///< finished or abandoned after its deadline
  kRejected,         ///< admission control refused it
  kDropped,          ///< lost (network partition, host churn)
};

[[nodiscard]] constexpr const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kDeadlineMissed: return "deadline-missed";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDropped: return "dropped";
  }
  return "?";
}

/// Which lever or facility produced a terminal record (paper §III-B's peak
/// management: local run, horizontal/vertical offload, or a loss on the
/// way). One value per terminal site, so a record carries no label string.
enum class ServedBy : std::uint8_t {
  kLocal,            ///< ran on its own cluster, result delivered
  kPinned,           ///< composition stage run on its pinned worker
  kExpired,          ///< edge shard abandoned at dispatch past its deadline
  kNoWorkers,        ///< the cluster has no workers to take it
  kPartition,        ///< lost staging input, or on the hand-off hop to a peer
  kReturnPartition,  ///< ran locally, result lost on the way back
  kHorizontal,       ///< handed to a peer cluster (any outcome there)
  kVertical,         ///< offloaded to the datacenter
  kGrid,             ///< served by the desktop-grid baseline
  kNowhere,          ///< cloud request with no cluster and no datacenter
  kLanPartition,     ///< lost on the building LAN before intake
  kUplinkPartition,  ///< lost on the Internet uplink before intake
};

inline constexpr std::size_t kServedByCount =
    static_cast<std::size_t>(ServedBy::kUplinkPartition) + 1;

[[nodiscard]] constexpr const char* served_by_name(ServedBy s) {
  switch (s) {
    case ServedBy::kLocal: return "local";
    case ServedBy::kPinned: return "pinned";
    case ServedBy::kExpired: return "expired";
    case ServedBy::kNoWorkers: return "no-workers";
    case ServedBy::kPartition: return "partition";
    case ServedBy::kReturnPartition: return "return-partition";
    case ServedBy::kHorizontal: return "horizontal";
    case ServedBy::kVertical: return "vertical";
    case ServedBy::kGrid: return "grid";
    case ServedBy::kNowhere: return "nowhere";
    case ServedBy::kLanPartition: return "lan-partition";
    case ServedBy::kUplinkPartition: return "uplink-partition";
  }
  return "?";
}

/// Completion record produced by whichever platform served the request.
struct CompletionRecord {
  Request request;
  Outcome outcome = Outcome::kCompleted;
  sim::Time completed_at = 0.0;
  /// Terminal site that produced it; every record of a handed-off request reads kHorizontal.
  ServedBy served_by = ServedBy::kLocal;

  [[nodiscard]] double response_time() const { return completed_at - request.arrival; }
};

}  // namespace df3::workload
