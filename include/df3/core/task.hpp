#pragma once
/// \file task.hpp
/// \brief The schedulable unit inside a cluster: one task of one request,
///        and the pooled per-request record its shards share.
///
/// A `Request` with `tasks == k` is split by the gateway into k `Task`
/// shards, each occupying one core. The request completes when all shards
/// have finished; shards carry their remaining work so preemption (paper
/// section III-B, option 1 for peak management) can checkpoint and resume.
///
/// Every request in a cluster has one `RequestState`, taken from a
/// `RequestPool` at intake and given back when its terminal record is built
/// (DESIGN.md, "Request path objects"). Shards and in-flight callbacks refer
/// to it through a `RequestRef`, a pointer plus the generation the state had
/// when it was taken, so a recycled slot never passes for an older request.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "df3/net/network.hpp"
#include "df3/sim/engine.hpp"
#include "df3/workload/request.hpp"

namespace df3::core {

/// Scheduling class: edge requests outrank cloud requests in the shared-
/// worker architecture (class A).
enum class Priority : std::uint8_t { kCloud = 0, kEdge = 1 };

[[nodiscard]] constexpr Priority priority_of(const workload::Request& r) {
  return workload::is_edge(r.flow) ? Priority::kEdge : Priority::kCloud;
}

/// Where a terminal record goes.
using CompletionSink = std::function<void(workload::CompletionRecord)>;

/// Bookkeeping for one request, from intake to its terminal record. The
/// cluster fields are valid while the request is in a cluster's in-flight
/// list (`slot != kNoSlot`) and until its terminal record is built.
struct RequestState {
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  workload::Request request;
  int shards_remaining = 0;
  /// Client endpoint the result ships back to.
  net::NodeId origin = 0;
  /// Position in the owning cluster's in-flight list; kNoSlot when in none.
  std::uint32_t slot = kNoSlot;
  /// Worker affinity for direct and pinned requests; SIZE_MAX = none.
  std::size_t preferred_worker = SIZE_MAX;
  /// Worker that last started one of the request's shards; SIZE_MAX until
  /// first placement. For direct requests the result ships from this
  /// worker's node — which may differ from `preferred_worker` when the
  /// preferred one was busy/gated and placement fell through to another.
  std::size_t served_worker = SIZE_MAX;
  /// True when this request arrived via horizontal offload.
  bool foreign = false;
  /// True for composition stages: report straight to the sink with no
  /// return-network hop.
  bool local_only = false;
  /// Set only for foreign and pinned requests; empty means the owning
  /// cluster's own sink.
  CompletionSink sink;
  /// Bumped each time the state goes back to its pool.
  std::uint32_t generation = 0;
};

/// Handle to a pooled RequestState: the state and the generation it had
/// when it was taken. Two refs are equal only for the same request.
struct RequestRef {
  RequestState* ptr = nullptr;
  std::uint32_t generation = 0;

  [[nodiscard]] RequestState* get() const { return ptr; }
  RequestState* operator->() const { return ptr; }
  RequestState& operator*() const { return *ptr; }
  bool operator==(const RequestRef&) const = default;
};

/// Chunked slab of RequestStates with a free list (the event calendar's
/// record-pool pattern): states never move, so refs stay valid, and a
/// steady request stream reuses the same slots without touching the heap.
/// Not thread-safe: requests are created and resolved on the event loop.
class RequestPool {
 public:
  RequestPool() = default;
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// A fresh state for `r`: cluster fields reset, one shard outstanding
  /// per task.
  [[nodiscard]] RequestRef acquire(workload::Request r);
  /// Give `ref`'s state back; no ref taken before compares equal to one
  /// taken after.
  void release(RequestRef ref);
  /// States handed out and not yet given back.
  [[nodiscard]] std::size_t live() const { return chunks_.size() * kChunk - free_.size(); }

 private:
  static constexpr std::size_t kChunk = 64;
  std::vector<std::unique_ptr<RequestState[]>> chunks_;
  std::vector<RequestState*> free_;
};

/// One core-sized shard of a request.
struct Task {
  RequestRef request;
  int shard_index = 0;
  double remaining_gigacycles = 0.0;
  /// Multiplier >= 1 applied to service time for communication overhead of
  /// tightly coupled tasks on the hosting fabric (computed at dispatch).
  double slowdown = 1.0;
  /// When this shard last started waiting in a queue; -1 before the first
  /// enqueue. Observability bookkeeping only (queue-wait trace spans) —
  /// nothing in the scheduler reads it.
  sim::Time enqueued_at = -1.0;

  [[nodiscard]] Priority priority() const { return priority_of(request->request); }
  [[nodiscard]] bool preemptible() const { return request->request.preemptible; }
  [[nodiscard]] std::optional<sim::Time> deadline() const {
    return request->request.absolute_deadline();
  }
};

/// Split a request into its shards, which share one state from `pool`.
/// Throws std::invalid_argument when the request has no tasks or
/// `slowdown` < 1.
[[nodiscard]] std::vector<Task> make_tasks(RequestPool& pool, workload::Request r,
                                           double slowdown = 1.0);

}  // namespace df3::core
