#pragma once
/// \file obs.hpp
/// \brief Observability aggregate: trace recorder + metric registry behind a
///        single install point and two hook-guard macros.
///
/// Instrumented code never talks to `TraceRecorder`/`MetricRegistry`
/// directly; it goes through two macros:
///
/// ```cpp
/// DF3_OBS_IF(o) { o->registry()...; }          // level >= kCounters
/// DF3_OBS_TRACE_IF(o) {                        // level == kFull
///   o->span(this, name(), obs::Phase::kRun, t0, t1, req.id);
/// }
/// ```
///
/// Hooks are always compiled in; the installed sink and its level decide
/// whether a hook body runs. While nothing is installed a hook costs one
/// pointer load and a predictable branch, and no hook ever changes the
/// simulated state.
///
/// Installation is scoped: `Df3Platform::run` installs its `Observability`
/// for the duration of the event loop via `Install`, so hooks fire only for
/// the platform being run — concurrent platforms in tests/benches don't see
/// each other's recorders, and a platform at level kOff installs nothing.

#include <cstdint>
#include <string_view>

#include "df3/obs/journey.hpp"
#include "df3/obs/metrics.hpp"
#include "df3/obs/slo.hpp"
#include "df3/obs/trace.hpp"

namespace df3::obs {

struct ObsConfig {
  TraceLevel level = TraceLevel::kOff;
  /// Ring capacity in records (32 B each). 0 = the ~1M-record
  /// `TraceRecorder::kDefaultCapacity`.
  std::size_t trace_capacity = 0;
  /// Emit journey span-link records at kFull (DESIGN.md section 14). Off
  /// restores the pre-journey trace byte-for-byte; the obs bench uses this
  /// to price the link overhead.
  bool journey_links = true;
  /// Rolling SLO window (active at >= kCounters).
  double slo_window_s = 3600.0;
};

/// Everything a run records: the span ring, journey links, the metric
/// registry, and the rolling SLO monitor.
class Observability {
 public:
  explicit Observability(ObsConfig cfg)
      : cfg_(cfg),
        trace_(cfg.trace_capacity != 0 ? cfg.trace_capacity : TraceRecorder::kDefaultCapacity),
        slo_(cfg.slo_window_s) {}

  [[nodiscard]] TraceLevel level() const { return cfg_.level; }
  [[nodiscard]] bool tracing() const { return cfg_.level == TraceLevel::kFull; }
  [[nodiscard]] bool journeys_enabled() const { return cfg_.journey_links && tracing(); }

  [[nodiscard]] TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }
  [[nodiscard]] MetricRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricRegistry& registry() const { return registry_; }
  [[nodiscard]] JourneyLog& journeys() { return journeys_; }
  [[nodiscard]] const JourneyLog& journeys() const { return journeys_; }
  [[nodiscard]] SloMonitor& slo() { return slo_; }
  [[nodiscard]] const SloMonitor& slo() const { return slo_; }

  /// One-call hook helpers: register-or-lookup the track for `key` and
  /// record. Only meaningful at kFull; callers guard with
  /// DF3_OBS_TRACE_IF so the track hash lookup never runs below that.
  void span(const void* key, std::string_view track, Phase p, double t0_s, double t1_s,
            std::uint64_t id) {
    trace_.span(trace_.track(key, track), p, t0_s, t1_s, id);
  }
  void instant(const void* key, std::string_view track, Phase p, double t_s, std::uint64_t id) {
    trace_.instant(trace_.track(key, track), p, t_s, id);
  }
  void host_span(const void* key, std::string_view track, Phase p, double t0_s, double t1_s) {
    trace_.host_span(trace_.track(key, track), p, t0_s, t1_s);
  }

  // --- Journey-aware helpers (DESIGN.md section 14). ---
  //
  // `journey_span`/`journey_instant` always emit the plain record (identical
  // to `span`/`instant`) and, when the journey id was opened at intake,
  // follow it with an adjacent kSpanLink record. The `_if_open` variants
  // emit nothing for unopened ids: they mark sites that exist purely to
  // close journey-chain gaps (datacenter segments, queue-wait at offload or
  // abandonment) and must not change traces of non-journey traffic.

  /// Open the journey context at intake. No-op unless links are enabled.
  void journey_open(std::uint64_t id) {
    if (journeys_enabled()) journeys_.open(id);
  }

  void journey_span(const void* key, std::string_view track, Phase p, double t0_s, double t1_s,
                    std::uint64_t id, int shard = -1, std::uint32_t attr = 0) {
    trace_.span(trace_.track(key, track), p, t0_s, t1_s, id);
    link_if_open(p, id, shard, attr);
  }
  void journey_instant(const void* key, std::string_view track, Phase p, double t_s,
                       std::uint64_t id, int shard = -1, std::uint32_t attr = 0) {
    trace_.instant(trace_.track(key, track), p, t_s, id);
    link_if_open(p, id, shard, attr);
  }
  bool journey_span_if_open(const void* key, std::string_view track, Phase p, double t0_s,
                            double t1_s, std::uint64_t id, int shard = -1,
                            std::uint32_t attr = 0) {
    if (!journeys_enabled() || !journeys_.is_open(id)) return false;
    journey_span(key, track, p, t0_s, t1_s, id, shard, attr);
    return true;
  }
  bool journey_instant_if_open(const void* key, std::string_view track, Phase p, double t_s,
                               std::uint64_t id, int shard = -1, std::uint32_t attr = 0) {
    if (!journeys_enabled() || !journeys_.is_open(id)) return false;
    journey_instant(key, track, p, t_s, id, shard, attr);
    return true;
  }

  /// Terminal instant: plain record + link, then the journey context is
  /// erased so open-journey memory stays bounded by in-flight requests.
  void journey_terminal(const void* key, std::string_view track, Phase p, double t_s,
                        std::uint64_t id, std::uint32_t attr = 0) {
    trace_.instant(trace_.track(key, track), p, t_s, id);
    if (!journeys_enabled()) return;
    JourneyLog::Link l;
    if (journeys_.annotate(id, p, -1, l)) {
      trace_.link(id, l.seq, l.parent, attr);
      journeys_.close(id);
    }
  }

 private:
  void link_if_open(Phase p, std::uint64_t id, int shard, std::uint32_t attr) {
    if (!journeys_enabled()) return;
    JourneyLog::Link l;
    if (journeys_.annotate(id, p, shard, l)) trace_.link(id, l.seq, l.parent, attr);
  }

  ObsConfig cfg_;
  TraceRecorder trace_;
  MetricRegistry registry_;
  JourneyLog journeys_;
  SloMonitor slo_;
};

namespace detail {
/// The currently installed sink, or nullptr. Not thread_local: the physics
/// phase is the only parallel region and it contains no hooks; every hook
/// site runs on the event-loop thread.
extern Observability* g_current;
}  // namespace detail

[[nodiscard]] inline Observability* current() { return detail::g_current; }

/// RAII install scope. Installs `o` unless it is null or at level kOff;
/// restores the previous sink on destruction (scopes nest).
class Install {
 public:
  explicit Install(Observability* o) : prev_(detail::g_current) {
    if (o != nullptr && o->level() != TraceLevel::kOff) detail::g_current = o;
  }
  ~Install() { detail::g_current = prev_; }
  Install(const Install&) = delete;
  Install& operator=(const Install&) = delete;

 private:
  Observability* prev_;
};

/// Hook guard: body runs iff an Observability at level >= kCounters is
/// installed. `o` names the sink inside the body.
#define DF3_OBS_IF(o) if (::df3::obs::Observability* o = ::df3::obs::current(); o != nullptr)

/// Trace-hook guard: body runs iff the installed sink is at level kFull.
#define DF3_OBS_TRACE_IF(o) \
  if (::df3::obs::Observability* o = ::df3::obs::current(); o != nullptr && o->tracing())

}  // namespace df3::obs
