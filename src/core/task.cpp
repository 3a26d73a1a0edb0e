#include "df3/core/task.hpp"

#include <stdexcept>

namespace df3::core {

RequestRef RequestPool::acquire(workload::Request r) {
  if (free_.empty()) {
    chunks_.push_back(std::make_unique<RequestState[]>(kChunk));
    RequestState* const chunk = chunks_.back().get();
    // Reversed, so the chunk is handed out front to back.
    for (std::size_t i = kChunk; i-- > 0;) free_.push_back(chunk + i);
  }
  RequestState* const s = free_.back();
  free_.pop_back();
  s->request = std::move(r);
  s->shards_remaining = s->request.tasks;
  s->origin = 0;
  s->slot = RequestState::kNoSlot;
  s->preferred_worker = SIZE_MAX;
  s->served_worker = SIZE_MAX;
  s->foreign = false;
  s->local_only = false;
  return RequestRef{s, s->generation};
}

void RequestPool::release(RequestRef ref) {
  RequestState* const s = ref.ptr;
  s->sink = nullptr;
  ++s->generation;
  free_.push_back(s);
}

std::vector<Task> make_tasks(RequestPool& pool, workload::Request r, double slowdown) {
  if (r.tasks <= 0) throw std::invalid_argument("make_tasks: request has no tasks");
  if (slowdown < 1.0) throw std::invalid_argument("make_tasks: slowdown must be >= 1");
  const RequestRef ref = pool.acquire(std::move(r));
  std::vector<Task> out;
  out.reserve(static_cast<std::size_t>(ref->request.tasks));
  for (int i = 0; i < ref->request.tasks; ++i) {
    out.push_back(Task{ref, i, ref->request.work_gigacycles, slowdown});
  }
  return out;
}

}  // namespace df3::core
