#pragma once
/// \file slo.hpp
/// \brief Rolling-window per-flow SLO monitor: deadline-miss ratio, failure
///        ratio, and response-time percentiles over the trailing window.
///
/// The monitor answers "is this flow healthy *now*?", which the cumulative
/// `FlowMetrics` cannot: a run that missed every deadline in hour one and
/// none since has a terrible lifetime ratio but a clean window. The window
/// is a ring of sub-buckets (default 60 buckets over 3600 s): recording
/// lazily reuses the bucket for the current epoch, reports merge the buckets
/// still inside the window. Percentiles come from merged
/// `util::PercentileSampler` sketches (1 % relative error), the one quantile
/// type shared with `FlowMetrics`, the metric registry and `df3trace`.
///
/// Reports are *staleness-bounded*: a flow that has seen no terminal within
/// the staleness bound reports `stale = true`, so a gauge consumer can
/// distinguish "0% misses" from "no data" (DESIGN.md section 14).
///
/// Flows are dense small integers (the `workload::Flow` enum values); the
/// monitor itself is workload-agnostic so `df3::obs` keeps its thin
/// dependency surface.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "df3/util/stats.hpp"

namespace df3::obs {

/// Terminal outcome class fed to the SLO plane.
enum class SloOutcome : std::uint8_t {
  kOk,      ///< completed within its deadline
  kMissed,  ///< deadline missed (completed late or abandoned)
  kFailed,  ///< rejected or dropped
};

class SloMonitor {
 public:
  explicit SloMonitor(double window_s = 3600.0, std::size_t buckets = 60);

  /// Record one terminal outcome for `flow` at simulated time `now_s`.
  /// `response_s` is the end-to-end response time (fed to the percentile
  /// histogram for kOk/kMissed; failures carry no meaningful latency).
  void record(std::uint32_t flow, SloOutcome outcome, double response_s, double now_s);

  struct FlowReport {
    std::uint64_t total = 0;
    std::uint64_t missed = 0;
    std::uint64_t failed = 0;
    double miss_ratio = 0.0;   ///< missed / total over the window
    double fail_ratio = 0.0;   ///< failed / total over the window
    double p50_s = 0.0;
    double p99_s = 0.0;
    double max_s = 0.0;
    double last_event_s = -1.0;  ///< last terminal ever seen (-1: never)
    bool stale = false;          ///< no terminal within the staleness bound
  };

  /// Windowed report for `flow` at time `now_s`. `staleness_s < 0` uses one
  /// full window as the staleness bound. Merges into one reused scratch
  /// sketch, so the per-tick reports allocate nothing once it has grown;
  /// not safe to call concurrently on one monitor.
  [[nodiscard]] FlowReport report(std::uint32_t flow, double now_s,
                                  double staleness_s = -1.0) const;

  /// Highest flow index seen + 1 (0 when nothing was recorded).
  [[nodiscard]] std::size_t flows() const { return per_flow_.size(); }
  [[nodiscard]] double window_s() const { return window_s_; }
  [[nodiscard]] std::size_t buckets() const { return buckets_; }

  void clear() { per_flow_.clear(); }

 private:
  struct Bucket {
    std::uint64_t epoch = UINT64_MAX;  ///< absolute sub-window index, or unused
    std::uint64_t total = 0;
    std::uint64_t missed = 0;
    std::uint64_t failed = 0;
    util::PercentileSampler resp;
  };
  struct PerFlow {
    std::vector<Bucket> ring;
    double last_event_s = -1.0;
  };

  [[nodiscard]] std::uint64_t epoch_of(double now_s) const {
    return now_s <= 0.0 ? 0 : static_cast<std::uint64_t>(now_s / span_s_);
  }

  double window_s_;
  std::size_t buckets_;
  double span_s_;  ///< seconds per sub-bucket
  std::vector<PerFlow> per_flow_;
  /// report()'s merge target; clear() keeps its bucket storage.
  mutable util::PercentileSampler merged_;
};

}  // namespace df3::obs
