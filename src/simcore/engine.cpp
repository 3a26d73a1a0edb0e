#include "df3/sim/engine.hpp"

#include <cmath>
#include <utility>

namespace df3::sim {

namespace {
constexpr const char* kBadTime = "Simulation: time is in the past or not finite";

/// Compaction is only worthwhile once the heap is non-trivial; below this
/// size the lazy-deletion pops are cheaper than a rebuild.
constexpr std::size_t kCompactMinHeap = 64;

/// Below this heap size (~768 KiB of entries) the calendar is cache-resident
/// and sift prefetches are pure instruction overhead; above it the deep
/// levels miss and prefetching grandchildren overlaps the miss with the
/// current level's comparisons.
constexpr std::size_t kPrefetchMinHeap = std::size_t{1} << 15;
}  // namespace

// ---------------------------------------------------------------------------
// EventHandle

bool EventHandle::pending() const { return sim_ != nullptr && sim_->slot_live(slot_, gen_); }

bool EventHandle::cancel() {
  if (!pending()) return false;
  ++sim_->cancelled_;
  ++sim_->ghosts_;  // the calendar entry for this record is now a ghost
  sim_->release_record(slot_);
  sim_->maybe_compact();
  return true;
}

// ---------------------------------------------------------------------------
// Record pool

std::uint32_t Simulation::alloc_record() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (pool_size_ == (static_cast<std::uint32_t>(slabs_.size()) << kSlabShift)) {
    slabs_.push_back(std::make_unique<Record[]>(std::size_t{1} << kSlabShift));
  }
  return pool_size_++;
}

void Simulation::release_record(std::uint32_t slot) {
  Record& rec = record(slot);
  rec.callback = nullptr;  // release captured resources eagerly
  ++rec.gen;               // invalidates outstanding handles and heap entries
  rec.armed = false;
  free_.push_back(slot);
}

// ---------------------------------------------------------------------------
// 4-ary min-heap. Compared to the binary heap in std::priority_queue this
// halves the tree depth; sift-down does up to 4 comparisons per level but
// all four children share a cache line pair (24-byte entries), which wins on
// the pop-heavy engine workload.

// Sifts use hole insertion (save the element, slide entries into the hole,
// place once) rather than pairwise swaps — one 24-byte store per level
// instead of three.

void Simulation::heap_push(const HeapEntry& e) {
  heap_.push_back(e);  // grows storage; value is overwritten below
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!entry_less(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  HeapEntry* h = heap_.data();
  const HeapEntry e = h[i];
  std::size_t hole = i;
  for (;;) {
    const std::size_t first_child = kHeapArity * hole + 1;
    if (first_child + kHeapArity <= n) {
      // Pull the grandchild block toward the cache while this level's
      // comparisons run; only worthwhile once the heap outgrows L2.
      if (n >= kPrefetchMinHeap) {
        const std::size_t grandchild = kHeapArity * first_child + 1;
        if (grandchild < n) {
          __builtin_prefetch(&h[grandchild]);
          __builtin_prefetch(&h[grandchild + 8 < n ? grandchild + 8 : n - 1]);
        }
      }
      const std::size_t best = min_child_full(h, first_child);
      if (!entry_less(h[best], e)) break;
      h[hole] = h[best];
      hole = best;
    } else if (first_child < n) {
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < n; ++c) {
        if (entry_less(h[c], h[best])) best = c;
      }
      if (!entry_less(h[best], e)) break;
      h[hole] = h[best];
      hole = best;
    } else {
      break;
    }
  }
  h[hole] = e;
}

void Simulation::heap_pop() {
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up pop (Wegener): percolate the root hole down the min-child
  // path all the way to a leaf without comparing against `e`, then bubble
  // `e` up from the leaf. `e` came from the bottom of the heap, so it almost
  // always belongs near the leaves — this saves the per-level "done yet?"
  // comparison of the classic sift, whose branch is unpredictable.
  HeapEntry* h = heap_.data();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = kHeapArity * hole + 1;
    if (first_child + kHeapArity <= n) {
      if (n >= kPrefetchMinHeap) {
        const std::size_t grandchild = kHeapArity * first_child + 1;
        if (grandchild < n) {
          __builtin_prefetch(&h[grandchild]);
          __builtin_prefetch(&h[grandchild + 8 < n ? grandchild + 8 : n - 1]);
        }
      }
      const std::size_t best = min_child_full(h, first_child);
      h[hole] = h[best];
      hole = best;
    } else if (first_child < n) {
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < n; ++c) {
        if (entry_less(h[c], h[best])) best = c;
      }
      h[hole] = h[best];
      hole = best;
    } else {
      break;
    }
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!entry_less(e, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
}

/// Eager compaction: once cancelled entries outnumber live ones, filter the
/// ghosts out and rebuild in O(n) (Floyd). Amortized O(1) per cancellation,
/// and it bounds the calendar at 2x the live event count — the seed engine's
/// lazy deletion let ghosts accumulate without bound under churn.
void Simulation::maybe_compact() {
  if (heap_.size() < kCompactMinHeap || ghosts_ * 2 < heap_.size()) return;
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (record(e.slot).gen == e.gen) heap_[kept++] = e;
  }
  heap_.resize(kept);
  for (std::size_t i = kept / kHeapArity + 1; i-- > 0;) {
    if (i < kept) sift_down(i);
  }
  ghosts_ = 0;
}

// ---------------------------------------------------------------------------
// Scheduling and dispatch

// Time guards are written so that NaN (every comparison false) and inf fail.
EventHandle Simulation::schedule_at(Time t, Callback cb) {
  if (!(t >= now_) || !std::isfinite(t)) throw std::invalid_argument(kBadTime);
  if (!cb) throw std::invalid_argument("Simulation::schedule_at: empty callback");
  const std::uint32_t slot = alloc_record();
  Record& rec = record(slot);
  rec.callback = std::move(cb);
  rec.armed = true;
  heap_push(HeapEntry{key_of(t), next_seq_++, slot, rec.gen});
  ++scheduled_;
  return EventHandle{this, slot, rec.gen};
}

std::uint32_t Simulation::acquire_persistent(Callback cb) {
  const std::uint32_t slot = alloc_record();
  record(slot).callback = std::move(cb);
  return slot;
}

EventHandle Simulation::arm_slot(std::uint32_t slot, Time t) {
  if (!(t >= now_) || !std::isfinite(t)) throw std::invalid_argument(kBadTime);
  Record& rec = record(slot);
  rec.armed = true;
  heap_push(HeapEntry{key_of(t), next_seq_++, slot, rec.gen});
  ++scheduled_;
  return EventHandle{this, slot, rec.gen};
}

bool Simulation::step() {
  while (!heap_.empty()) {
    const HeapEntry entry = heap_.front();
    // The record line is needed right after the pop's sift-down; start the
    // (usually cold) load now so it overlaps the sift.
    Record& rec = record(entry.slot);
    __builtin_prefetch(&rec);
    heap_pop();
    if (rec.gen != entry.gen || !rec.armed) {
      --ghosts_;  // lazily discard a cancelled entry
      continue;
    }
    now_ = time_of(entry);
    ++executed_;
    // Invoke the callback in place: clearing `armed` first makes handles
    // read as fired (pending() false, cancel() a no-op), and the slot is
    // not on the free list during the call, so nothing the callback
    // schedules can reuse this record out from under it. Slab storage is
    // stable across pool growth, so `rec` stays valid even if the callback
    // schedules into a fresh slab.
    rec.armed = false;
    rec.callback();
    // A persistent record (PeriodicProcess) re-arms itself from inside the
    // callback; release only when it did not (one-shot event or stopped
    // process).
    if (!rec.armed) release_record(entry.slot);
    return true;
  }
  return false;
}

std::size_t Simulation::run(std::size_t max_events) {
  stop_requested_ = false;
  std::size_t n = 0;
  while (n < max_events && !stop_requested_) {
    if (!step()) break;
    ++n;
  }
  return n;
}

std::size_t Simulation::run_until(Time t) {
  if (!(t >= now_) || !std::isfinite(t)) throw std::invalid_argument(kBadTime);
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_) {
    // Peek past cancelled entries to find the next live event.
    while (!heap_.empty() && !slot_live(heap_.front().slot, heap_.front().gen)) {
      heap_pop();
      --ghosts_;
    }
    if (heap_.empty() || heap_.front().tkey > key_of(t)) break;
    step();
    ++n;
  }
  if (!stop_requested_ && now_ < t) now_ = t;
  return n;
}

// ---------------------------------------------------------------------------
// PeriodicProcess

PeriodicProcess::PeriodicProcess(Simulation& sim, Time start, Time period,
                                 util::UniqueFunction<void(Time)> tick)
    : sim_(sim), start_(start), period_(period), tick_(std::move(tick)) {
  if (!(period_ > 0.0) || !std::isfinite(period_)) {
    throw std::invalid_argument("PeriodicProcess: period must be positive and finite");
  }
  if (!tick_) throw std::invalid_argument("PeriodicProcess: empty tick callback");
  if (!(start_ >= sim_.now()) || !std::isfinite(start_)) throw std::invalid_argument(kBadTime);
  slot_ = sim_.acquire_persistent([this] { on_fire(); });
  next_ = sim_.arm_slot(slot_, start_);
}

void PeriodicProcess::on_fire() {
  if (!running_) return;
  // Tick k fires at exactly start + k*period; computing it directly (rather
  // than accumulating t += period) keeps month-long runs phase-accurate.
  tick_(start_ + static_cast<Time>(k_) * period_);
  if (running_) {
    ++k_;
    next_ = sim_.arm_slot(slot_, start_ + static_cast<Time>(k_) * period_);
  }
}

void PeriodicProcess::stop() {
  running_ = false;
  next_.cancel();
}

}  // namespace df3::sim
