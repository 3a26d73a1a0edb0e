#pragma once
/// \file trace.hpp
/// \brief Deterministic request-lifecycle and engine-phase trace recorder.
///
/// The simulator's answer to "where did the time of request 17 go": a
/// compact ring buffer of span/instant records keyed by request id and
/// engine phase, written by observation-only hooks along the full request
/// lifecycle (arrival -> staging -> queue -> dispatch -> run -> preempt ->
/// vertical/horizontal offload -> network hop -> terminal outcome) and by
/// the platform tick's host-side phase scopes. Exportable to Chrome
/// trace-event JSON (obs/export.hpp) that loads directly in Perfetto or
/// chrome://tracing.
///
/// Design constraints (DESIGN.md section 10):
///
///  * **observation-only** — recording a trace never mutates simulation
///    state, allocates through the engine, or perturbs event order; golden
///    determinism digests are bit-identical with tracing on or off;
///  * **near-zero cost when disabled** — every hook costs one pointer load
///    and branch while no `Observability` is installed (`obs::current()`
///    returns nullptr outside `Df3Platform::run` or at level kOff);
///  * **two clocks** — request/fault events carry *simulated* time (the
///    trace's primary axis, exported as microseconds); tick-phase scopes
///    carry *host wall time* (their duration is real compute cost, which
///    has no extent on the simulated axis). The exporter maps them to two
///    separate Perfetto process groups so the axes never mix.
///
/// The phase vocabulary is a closed enum rather than interned strings: the
/// instrumentation sites are all in-tree, and an enum keeps the hot path
/// free of hashing while making the export tables exhaustive.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace df3::obs {

/// How much observability to record. Levels are strictly additive.
enum class TraceLevel : std::uint8_t {
  kOff,       ///< no hooks run; obs::current() stays null
  kCounters,  ///< metric registry fed and snapshotted; no span records
  kFull,      ///< + span/instant records into the trace ring
};

[[nodiscard]] constexpr const char* trace_level_name(TraceLevel l) {
  switch (l) {
    case TraceLevel::kOff: return "off";
    case TraceLevel::kCounters: return "counters";
    case TraceLevel::kFull: return "full";
  }
  return "?";
}

/// Engine phase of a trace record: which lifecycle or platform step the
/// span/instant describes. One request id threads through many phases.
enum class Phase : std::uint8_t {
  // Request lifecycle (simulated clock, keyed by request id).
  kArrival,            ///< request entered the system (instant)
  kTransport,          ///< origin -> gateway/worker delivery hop
  kStaging,            ///< gateway -> staging-worker input transfer
  kQueueWait,          ///< enqueue -> dispatch onto a core
  kRun,                ///< one execution segment on a worker core
  kPreempt,            ///< peak ladder rung 1: evicted a cloud shard
  kOffloadHorizontal,  ///< peak ladder rung: handed to a peer cluster
  kOffloadVertical,    ///< peak ladder rung / backlog valve: to datacenter
  kDelay,              ///< peak ladder rung: left queued
  kNetHop,             ///< one network message, send -> delivery
  kCompleted,          ///< terminal outcome (instant)
  kDeadlineMissed,     ///< terminal outcome (instant)
  kRejected,           ///< terminal outcome (instant)
  kDropped,            ///< terminal outcome (instant)
  // Platform tick scopes (host clock).
  kPhysicsPhase,       ///< one tick's fused serial walk, or its parallel fan-out
  kControlPhase,       ///< serial boundary drain of a parallel tick
  kLaneControl,        ///< one lane's physics + control math (own track)
  kAuditSweep,         ///< structural invariant sweep (kFull audit only)
  // Fault injection (simulated clock).
  kLinkOutage,         ///< link down -> restored (span), id = link index
  kLinkFlap,           ///< up->down toggle (instant), id = link index
  kWorkerOutage,       ///< worker down -> restored (span), id = worker index
  kWorkerChurn,        ///< healthy->outage toggle (instant), id = worker idx
  kGridCurtailment,    ///< demand-response window (span), id = region index
  kGridToggle,         ///< curtailment start/end toggle (instant), id = region
  // Journey causality (simulated clock, paired with the preceding record).
  kSpanLink,           ///< parent/child link annotating the previous record
};

[[nodiscard]] constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kArrival: return "arrival";
    case Phase::kTransport: return "transport";
    case Phase::kStaging: return "staging";
    case Phase::kQueueWait: return "queue-wait";
    case Phase::kRun: return "run";
    case Phase::kPreempt: return "preempt";
    case Phase::kOffloadHorizontal: return "offload-horizontal";
    case Phase::kOffloadVertical: return "offload-vertical";
    case Phase::kDelay: return "delay";
    case Phase::kNetHop: return "net-hop";
    case Phase::kCompleted: return "completed";
    case Phase::kDeadlineMissed: return "deadline-missed";
    case Phase::kRejected: return "rejected";
    case Phase::kDropped: return "dropped";
    case Phase::kPhysicsPhase: return "physics-phase";
    case Phase::kControlPhase: return "control-phase";
    case Phase::kLaneControl: return "lane-control";
    case Phase::kAuditSweep: return "audit-sweep";
    case Phase::kLinkOutage: return "link-outage";
    case Phase::kLinkFlap: return "link-flap";
    case Phase::kWorkerOutage: return "worker-outage";
    case Phase::kWorkerChurn: return "worker-churn";
    case Phase::kGridCurtailment: return "grid-curtailment";
    case Phase::kGridToggle: return "grid-toggle";
    case Phase::kSpanLink: return "span-link";
  }
  return "?";
}

/// Export category for a phase ("request", "tick", "fault", "net").
[[nodiscard]] constexpr const char* phase_category(Phase p) {
  switch (p) {
    case Phase::kNetHop: return "net";
    case Phase::kPhysicsPhase:
    case Phase::kControlPhase:
    case Phase::kLaneControl:
    case Phase::kAuditSweep: return "tick";
    case Phase::kLinkOutage:
    case Phase::kLinkFlap:
    case Phase::kWorkerOutage:
    case Phase::kWorkerChurn:
    case Phase::kGridCurtailment:
    case Phase::kGridToggle: return "fault";
    case Phase::kSpanLink: return "link";
    default: return "request";
  }
}

/// Which clock a record's timestamps are on.
enum class Clock : std::uint8_t {
  kSim,   ///< simulated seconds (Simulation::now)
  kHost,  ///< host wall seconds since recorder construction
};

/// Sentinel parent for a journey root in a span-link record.
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// One trace record: 32 bytes. `dur_s < 0` marks an instant.
///
/// A `kSpanLink` record reinterprets the same 32 bytes as a causality edge
/// annotating the *immediately preceding* record in emission order (both are
/// pushed back-to-back on the event-loop thread, so the ring keeps them
/// adjacent — a ring wrap can only strand a link at the very front of the
/// retained window, which analyzers count as an orphan):
///   t_s   = span sequence number within the journey (exact as a double),
///   dur_s = parent sequence number, or -1 for the journey root,
///   id    = journey id (== request id),
///   track = phase-specific attribute (flow, shard index, hop kind).
struct TraceEvent {
  double t_s = 0.0;         ///< begin timestamp, seconds on `clock`
  double dur_s = -1.0;      ///< span duration (>= 0) or instant (< 0)
  std::uint64_t id = 0;     ///< request id, link index, worker index, or 0
  std::uint32_t track = 0;  ///< row in the exported timeline
  Phase phase = Phase::kArrival;
  Clock clock = Clock::kSim;

  [[nodiscard]] bool is_span() const { return dur_s >= 0.0; }
  [[nodiscard]] bool is_link() const { return phase == Phase::kSpanLink; }

  /// Field accessors for kSpanLink records.
  [[nodiscard]] std::uint32_t link_seq() const { return static_cast<std::uint32_t>(t_s); }
  [[nodiscard]] std::uint32_t link_parent() const {
    return dur_s < 0.0 ? kNoParent : static_cast<std::uint32_t>(dur_s);
  }
  [[nodiscard]] std::uint32_t link_attr() const { return track; }
};

/// Fixed-capacity ring of trace records. When full, the oldest records are
/// overwritten and `dropped()` counts the loss — a long soak keeps the tail
/// of its history instead of exhausting memory. Recording never allocates
/// after the first lap (the ring vector grows to capacity once).
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Register (or look up) the timeline row for an entity. `key` is any
  /// stable address identifying the entity; the name is captured on first
  /// registration. Track ids are assigned in first-seen order, so a
  /// deterministic simulation yields a deterministic track table.
  std::uint32_t track(const void* key, std::string_view name);

  /// Record a span [t0, t1] (simulated clock). t1 < t0 is clamped to t0.
  void span(std::uint32_t track_id, Phase phase, double t0_s, double t1_s, std::uint64_t id);

  /// Record an instant at `t` (simulated clock).
  void instant(std::uint32_t track_id, Phase phase, double t_s, std::uint64_t id);

  /// Record a host-clock span (tick phase scopes): `t0_s`/`t1_s` are host
  /// wall seconds since recorder construction.
  void host_span(std::uint32_t track_id, Phase phase, double t0_s, double t1_s);

  /// Record a journey span-link annotating the record pushed immediately
  /// before (see TraceEvent). `parent == kNoParent` marks the journey root.
  void link(std::uint64_t journey, std::uint32_t seq, std::uint32_t parent, std::uint32_t attr);

  /// Host wall seconds since construction (monotonic).
  [[nodiscard]] double host_now_s() const;

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const { return recorded_ - count_; }
  [[nodiscard]] const std::vector<std::string>& track_names() const { return track_names_; }

  /// Visit the retained records oldest-first.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::size_t start = (count_ < capacity_) ? 0 : head_;
    for (std::size_t i = 0; i < count_; ++i) {
      fn(ring_[(start + i) % capacity_]);
    }
  }

  void clear();

 private:
  void push(const TraceEvent& e);

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   ///< next write position once the ring is full
  std::size_t count_ = 0;  ///< retained records (<= capacity_)
  std::uint64_t recorded_ = 0;
  std::vector<std::string> track_names_;
  std::unordered_map<const void*, std::uint32_t> track_by_key_;
  std::uint64_t host_epoch_ns_ = 0;  ///< steady_clock at construction
};

}  // namespace df3::obs
