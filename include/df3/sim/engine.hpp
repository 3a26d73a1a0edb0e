#pragma once
/// \file engine.hpp
/// \brief Deterministic discrete-event simulation engine.
///
/// A single-threaded event calendar with a double-precision clock (seconds).
/// Determinism rules:
///  * events at equal timestamps execute in scheduling order (a monotone
///    sequence number breaks ties), so a run is a pure function of the seed;
///  * callbacks may schedule/cancel freely, including at the current time;
///  * scheduling in the past is an error (throws), never silently reordered;
///  * the calendar's internal layout (record pool, 4-ary heap, eager
///    compaction) is invisible to callbacks: pops follow the strict total
///    order (time, sequence), so any rewrite of the storage must reproduce
///    the exact firing sequence (see Engine.GoldenEventOrderHash).
///
/// Hot-path design (see DESIGN.md "Engine internals"): event records live in
/// a slab pool addressed by {slot, generation} handles — no per-event
/// shared_ptr allocation or refcount. Callbacks are move-only
/// small-buffer-optimized `util::UniqueFunction`s, so typical lambdas never
/// touch the heap. The calendar is an explicit 4-ary min-heap with lazy
/// deletion plus eager compaction once cancelled entries outnumber live
/// ones.
///
/// The engine knows nothing about the domain; buildings, servers, gateways
/// and workloads are all `Entity`-derived objects that post events.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "df3/util/function.hpp"

namespace df3::sim {

/// Simulation time, in seconds since simulation start.
using Time = double;

class Simulation;
class PeriodicProcess;

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert; `cancel()` on an already-fired or cancelled event is a no-op
/// that returns false. Handles are small value types ({engine, slot,
/// generation}); copies observe the same underlying event. A handle must not
/// be used after its Simulation is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  [[nodiscard]] bool pending() const;

  /// Cancel the event if still pending. Returns true if this call
  /// cancelled it.
  bool cancel();

 private:
  friend class Simulation;
  EventHandle(Simulation* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}
  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event calendar and clock. Not copyable; entities hold references.
class Simulation {
 public:
  using Callback = util::UniqueFunction<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time in seconds.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` to run at absolute time `t` (>= now). Throws
  /// std::invalid_argument on a time in the past, NaN or infinite.
  EventHandle schedule_at(Time t, Callback cb);

  /// Schedule `cb` to run `dt` seconds from now (dt >= 0).
  EventHandle schedule_in(Time dt, Callback cb) { return schedule_at(now_ + dt, std::move(cb)); }

  /// Run events until the calendar is empty or `max_events` have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Run all events with timestamp <= `t`, then advance the clock to exactly
  /// `t` (even if the calendar still holds later events). Returns events run.
  /// Throws std::invalid_argument on a time in the past, NaN or infinite.
  std::size_t run_until(Time t);

  /// Request that the current `run`/`run_until` stops after the current
  /// callback returns. Pending events stay in the calendar.
  void stop() { stop_requested_ = true; }

  /// Number of live (non-cancelled, not yet fired) events in the calendar.
  /// Exact: cancelled entries awaiting lazy removal are not counted.
  [[nodiscard]] std::size_t pending_events() const { return heap_.size() - ghosts_; }

  // --- introspection counters, for tests and engine benchmarks ---
  [[nodiscard]] std::uint64_t events_scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }

 private:
  friend class EventHandle;
  friend class PeriodicProcess;

  /// One pooled event record. Slots are recycled through a free list; the
  /// generation counter is bumped on every release so stale {slot, gen}
  /// handles and stale heap entries are recognized in O(1).
  /// Callbacks are invoked in place with `armed` cleared; a record whose
  /// callback re-armed its own slot from inside the call (PeriodicProcess
  /// re-arm fast path) survives the firing, anything else is released.
  struct Record {
    Callback callback;
    std::uint32_t gen = 0;
    bool armed = false;  // has a live calendar entry
  };

  /// Calendar entry: 24 bytes, kept in an explicit 4-ary min-heap ordered
  /// by (t, seq). `gen` detects ghosts (entries whose record was released).
  /// The timestamp is stored as its IEEE-754 bit pattern: simulation times
  /// are always >= 0, where the bit order equals the numeric order, so the
  /// (t, seq) comparison is two integer compares that compile branchless.
  struct HeapEntry {
    std::uint64_t tkey;  // key_of(t); numeric order == unsigned bit order
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static std::uint64_t key_of(Time t) {
    // +0.0 normalizes -0.0 (whose bit pattern would sort above everything).
    return std::bit_cast<std::uint64_t>(t + 0.0);
  }
  static Time time_of(const HeapEntry& e) { return std::bit_cast<Time>(e.tkey); }

  bool step();  // execute the next live event; false if calendar empty

  // The pool is a chunked slab: growing it allocates a fresh fixed-size
  // slab and never moves existing records, so scheduling N events costs N/1024
  // allocations instead of one per event (and no growth-time record moves).
  static constexpr std::uint32_t kSlabShift = 10;  // 1024 records per slab
  static constexpr std::uint32_t kSlabMask = (1U << kSlabShift) - 1;

  [[nodiscard]] Record& record(std::uint32_t slot) {
    return slabs_[slot >> kSlabShift][slot & kSlabMask];
  }
  [[nodiscard]] const Record& record(std::uint32_t slot) const {
    return slabs_[slot >> kSlabShift][slot & kSlabMask];
  }
  std::uint32_t alloc_record();
  void release_record(std::uint32_t slot);
  [[nodiscard]] bool slot_live(std::uint32_t slot, std::uint32_t gen) const {
    const Record& rec = record(slot);
    return rec.gen == gen && rec.armed;
  }

  // PeriodicProcess re-arm fast path: keep one persistent record and push a
  // fresh calendar entry per tick instead of allocating a record per tick.
  std::uint32_t acquire_persistent(Callback cb);
  EventHandle arm_slot(std::uint32_t slot, Time t);

  // 4-ary min-heap primitives over heap_. Ordering on (tkey, seq) is one
  // 128-bit unsigned compare, which compiles branchless (cmp/sbb/setb):
  // min-child selection on random times is inherently unpredictable, and a
  // mispredict per level costs more than the heap's cache advantages save.
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
#if defined(__SIZEOF_INT128__)
    __extension__ typedef unsigned __int128 U128;
    const U128 ka = (static_cast<U128>(a.tkey) << 64) | a.seq;
    const U128 kb = (static_cast<U128>(b.tkey) << 64) | b.seq;
    return ka < kb;
#else
    return a.tkey < b.tkey || (a.tkey == b.tkey && a.seq < b.seq);
#endif
  }
  /// Heap fan-out. Power of two; 4 halves the depth of a binary heap while
  /// a child group still spans only two cache lines.
  static constexpr std::size_t kHeapArity = 4;

  /// Index of the smallest child of the hole whose *complete* group of
  /// kHeapArity children starts at `first_child`; callers handle the
  /// partial group at the heap's end. A pairwise tournament of branchless
  /// compares — the loops fully unroll, and cmov chains beat
  /// mispredict-prone branches since which child wins is unpredictable.
  static std::size_t min_child_full(const HeapEntry* h, std::size_t first_child) {
    std::size_t best[kHeapArity / 2];
    for (std::size_t i = 0; i < kHeapArity / 2; ++i) {
      const std::size_t c = first_child + 2 * i;
      best[i] = c + static_cast<std::size_t>(entry_less(h[c + 1], h[c]));
    }
    for (std::size_t w = kHeapArity / 2; w > 1; w /= 2) {
      for (std::size_t i = 0; i < w / 2; ++i) {
        best[i] = entry_less(h[best[2 * i + 1]], h[best[2 * i]]) ? best[2 * i + 1] : best[2 * i];
      }
    }
    return best[0];
  }

  void heap_push(const HeapEntry& e);
  void heap_pop();  // removes heap_[0]
  void sift_down(std::size_t i);
  void maybe_compact();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  bool stop_requested_ = false;
  std::vector<std::unique_ptr<Record[]>> slabs_;
  std::uint32_t pool_size_ = 0;      // slots handed out so far (never shrinks)
  std::vector<std::uint32_t> free_;  // recycled pool slots
  std::vector<HeapEntry> heap_;
  std::size_t ghosts_ = 0;  // cancelled entries still in heap_
};

/// A named simulation participant. Owns no engine state; provides uniform
/// access to the clock and calendar for derived domain objects.
class Entity {
 public:
  Entity(Simulation& sim, std::string name) : sim_(&sim), name_(std::move(name)) {}
  virtual ~Entity() = default;

  Entity(const Entity&) = delete;
  Entity& operator=(const Entity&) = delete;

  [[nodiscard]] Simulation& sim() const { return *sim_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Time now() const { return sim_->now(); }

 private:
  Simulation* sim_;
  std::string name_;
};

/// Repeating process: runs `tick` every `period` seconds starting at
/// `start`. `stop()` cancels the next occurrence. The callback may call
/// `stop()` on its own process. Tick k fires at exactly `start + k * period`
/// (computed directly, not accumulated, so long runs do not drift). Must be
/// destroyed before its Simulation.
class PeriodicProcess {
 public:
  PeriodicProcess(Simulation& sim, Time start, Time period,
                  util::UniqueFunction<void(Time)> tick);
  ~PeriodicProcess() { stop(); }

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] Time period() const { return period_; }

 private:
  void on_fire();

  Simulation& sim_;
  Time start_;
  Time period_;
  std::uint64_t k_ = 0;  // index of the next tick; fires at start_ + k_ * period_
  util::UniqueFunction<void(Time)> tick_;
  std::uint32_t slot_ = 0;  // persistent record in the engine's pool
  EventHandle next_;
  bool running_ = true;
};

}  // namespace df3::sim
