#pragma once
/// \file scheduler.hpp
/// \brief Gateway task queue: earliest deadline first within each class.
///
/// The gateway keeps one logical queue of task shards, ordered EDF: earliest
/// absolute deadline first, deadline-less cloud shards after every
/// deadline-carrying one, arrival order among equal deadlines.
///
/// Edge priority always dominates cloud priority (paper: the whole point of
/// the edge flow is near-real-time service); EDF orders *within* a class.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "df3/core/task.hpp"

namespace df3::core {

/// Priority queue of task shards. Not a std::priority_queue: we need
/// removal of expired work and requeue-at-front for preemption victims.
class TaskQueue {
 public:
  /// Enqueue a fresh shard: by deadline, behind entries with an equal key.
  void push(Task t);

  /// Requeue a preemption/delay victim: by deadline, ahead of fresh work
  /// with an equal key — a blind front-insert would break the sorted-lane
  /// invariant the binary-search insert of push() depends on.
  void push_front(Task t);

  /// Remove and return the best shard to run next; nullopt when empty.
  [[nodiscard]] std::optional<Task> pop();

  [[nodiscard]] std::size_t size() const { return edge_.size() + cloud_.size(); }
  [[nodiscard]] bool empty() const { return edge_.empty() && cloud_.empty(); }

  /// Total queued gigacycles, for backlog-based offload decisions and the
  /// per-tick lane snapshots (DESIGN.md §12). Cached: mutations mark the
  /// cache dirty and the next query re-sums in lane order, so the value is
  /// bit-identical to a fresh walk while a stable queue pays O(1).
  [[nodiscard]] double backlog_gigacycles() const;

  /// Structural invariant sweep (lifecycle auditor, DESIGN.md §9): lanes
  /// sorted by deadline, no negative remaining work. Appends one
  /// human-readable line per violation, prefixed with `who`.
  void audit(std::vector<std::string>& out, const std::string& who) const;

  /// Visit every queued shard in pop order (edge lane front-to-back, then
  /// cloud lane). Read-only state-capture hook for the model checker's
  /// snapshot digests (DESIGN.md §13); not a hot path.
  void for_each(const std::function<void(const Task&, Priority)>& fn) const;

  /// Test-only fault plant: when set, push_front() performs the blind
  /// front-insert an earlier version of this class shipped, re-breaking the
  /// sorted-lane invariant. Exists solely so the model checker's self-test
  /// can prove it detects a known-bad build (tests/mc_test.cpp); never
  /// enable outside a test.
  static void set_test_unsorted_push_front(bool plant) { test_unsorted_push_front_ = plant; }
  [[nodiscard]] static bool test_unsorted_push_front() { return test_unsorted_push_front_; }

 private:
  /// One priority class's shards in pop order: a ring over a power-of-two
  /// buffer that holds no storage until the first push and doubles when
  /// full. An idle cluster's lanes cost no heap block, and a warm lane
  /// reuses its slots instead of cycling allocations.
  class Lane {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /// The i-th shard in pop order.
    [[nodiscard]] Task& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
    [[nodiscard]] const Task& operator[](std::size_t i) const {
      return buf_[(head_ + i) & (buf_.size() - 1)];
    }
    [[nodiscard]] Task& front() { return (*this)[0]; }
    [[nodiscard]] const Task& front() const { return (*this)[0]; }
    [[nodiscard]] const Task& back() const { return (*this)[size_ - 1]; }
    void pop_front() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }
    /// Insert before position `i` (0 = front, size() = back), shifting the
    /// shorter side by one slot.
    void insert(std::size_t i, Task t);

   private:
    std::vector<Task> buf_;  ///< capacity == buf_.size(), 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  Lane& lane(Priority p) { return p == Priority::kEdge ? edge_ : cloud_; }
  void insert_by_deadline(Lane& q, Task t);

  static bool test_unsorted_push_front_;  ///< see set_test_unsorted_push_front

  Lane edge_;
  Lane cloud_;
  mutable double backlog_cache_ = 0.0;
  mutable bool backlog_dirty_ = false;
};

}  // namespace df3::core
