#include "df3/core/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <ranges>

namespace df3::core {

bool TaskQueue::test_unsorted_push_front_ = false;

namespace {
/// EDF key: absolute deadline, +infinity for deadline-less shards.
double edf_key(const Task& t) {
  const auto d = t.deadline();
  return d ? *d : std::numeric_limits<double>::infinity();
}

/// First position in [0, n) whose shard fails `before` (lanes are
/// partitioned by it, so this is a binary search).
template <typename Pred>
std::size_t first_not(std::size_t n, Pred before) {
  return *std::ranges::partition_point(std::views::iota(std::size_t{0}, n), before);
}
}  // namespace

void TaskQueue::Lane::insert(std::size_t i, Task t) {
  if (size_ == buf_.size()) {
    std::vector<Task> grown(std::max<std::size_t>(4, 2 * buf_.size()));
    for (std::size_t k = 0; k < size_; ++k) grown[k] = std::move((*this)[k]);
    buf_ = std::move(grown);
    head_ = 0;
  }
  const std::size_t mask = buf_.size() - 1;
  if (i < size_ - i) {
    // Front side is shorter: open the slot by moving [0, i) one step back.
    head_ = (head_ + mask) & mask;
    for (std::size_t k = 0; k < i; ++k) {
      buf_[(head_ + k) & mask] = std::move(buf_[(head_ + k + 1) & mask]);
    }
  } else {
    for (std::size_t k = size_; k > i; --k) {
      buf_[(head_ + k) & mask] = std::move(buf_[(head_ + k - 1) & mask]);
    }
  }
  buf_[(head_ + i) & mask] = std::move(t);
  ++size_;
}

void TaskQueue::insert_by_deadline(Lane& q, Task t) {
  // Stable insert before the first entry with a later deadline. The
  // lane is always sorted, so binary search finds the spot in O(log n) —
  // and the dominant case (deadline-less cloud shards, key = +inf, which
  // land at the back) degenerates to an O(1) append instead of a full
  // scan per shard.
  const double key = edf_key(t);
  if (q.empty() || edf_key(q.back()) <= key) {
    q.insert(q.size(), std::move(t));
    return;
  }
  q.insert(first_not(q.size(), [&](std::size_t i) { return edf_key(q[i]) <= key; }),
           std::move(t));
}

void TaskQueue::push(Task t) {
  backlog_dirty_ = true;
  // Evaluate the lane before moving `t` into the parameter: function
  // argument evaluation order is unspecified.
  auto& q = lane(t.priority());
  insert_by_deadline(q, std::move(t));
}

void TaskQueue::push_front(Task t) {
  backlog_dirty_ = true;
  auto& q = lane(t.priority());
  // A blind front-insert would break the sorted-lane invariant that
  // insert_by_deadline's binary search relies on — every later
  // upper_bound would probe a lane that is no longer ordered and could
  // land fresh shards at the wrong position. Re-queue by deadline instead,
  // in front of any entry with an equal key so the returning shard still
  // resumes ahead of fresh work with the same deadline.
  if (test_unsorted_push_front_) {
    // Planted pre-fix behavior for the model checker's self-test.
    q.insert(0, std::move(t));
    return;
  }
  const double key = edf_key(t);
  if (q.empty() || key <= edf_key(q.front())) {
    q.insert(0, std::move(t));
    return;
  }
  q.insert(first_not(q.size(), [&](std::size_t i) { return edf_key(q[i]) < key; }),
           std::move(t));
}

std::optional<Task> TaskQueue::pop() {
  backlog_dirty_ = true;
  if (!edge_.empty()) {
    Task t = std::move(edge_.front());
    edge_.pop_front();
    return t;
  }
  if (!cloud_.empty()) {
    Task t = std::move(cloud_.front());
    cloud_.pop_front();
    return t;
  }
  return std::nullopt;
}

void TaskQueue::audit(std::vector<std::string>& out, const std::string& who) const {
  const auto check_lane = [&](const Lane& q, const char* lane_name) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].remaining_gigacycles < 0.0) {
        out.push_back(who + ": negative remaining work (" +
                      std::to_string(q[i].remaining_gigacycles) + " Gc) queued in " + lane_name +
                      " lane at position " + std::to_string(i));
      }
      if (i + 1 < q.size() && edf_key(q[i]) > edf_key(q[i + 1])) {
        out.push_back(who + ": EDF " + lane_name + " lane out of order at position " +
                      std::to_string(i) + " (deadline " + std::to_string(edf_key(q[i])) +
                      " before " + std::to_string(edf_key(q[i + 1])) + ")");
      }
    }
  };
  check_lane(edge_, "edge");
  check_lane(cloud_, "cloud");
}

void TaskQueue::for_each(const std::function<void(const Task&, Priority)>& fn) const {
  for (std::size_t i = 0; i < edge_.size(); ++i) fn(edge_[i], Priority::kEdge);
  for (std::size_t i = 0; i < cloud_.size(); ++i) fn(cloud_[i], Priority::kCloud);
}

double TaskQueue::backlog_gigacycles() const {
  if (backlog_dirty_) {
    // Re-sum in the same edge-then-cloud lane order a fresh walk always
    // used: the cached value is bitwise equal, never incrementally drifted
    // (routing policies compare these doubles, so order matters).
    double total = 0.0;
    for (std::size_t i = 0; i < edge_.size(); ++i) total += edge_[i].remaining_gigacycles;
    for (std::size_t i = 0; i < cloud_.size(); ++i) total += cloud_[i].remaining_gigacycles;
    backlog_cache_ = total;
    backlog_dirty_ = false;
  }
  return backlog_cache_;
}

}  // namespace df3::core
