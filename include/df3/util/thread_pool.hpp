#pragma once
/// \file thread_pool.hpp
/// \brief Small fixed-size worker pool for embarrassingly parallel sweeps.
///
/// The event engine itself is single-threaded and deterministic. The pool
/// serves two kinds of work: `Df3Platform::tick` fans each district shard's
/// physics and building-local control math out with `for_each_index` every
/// tick (work items own disjoint building state; cross-building effects
/// drain serially afterwards, so results are bit-identical at any width).
/// `submit` and `parallel_map` run independent tasks — parameter sweeps or
/// Monte-Carlo replications, each owning its own `Simulation`.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace df3::util {

/// Fixed-size thread pool; joins all workers on destruction.
class ThreadPool {
 public:
  /// Spawn `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its result.
  template <class F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Run `fn(i)` for every i in [0, n) and return once all calls finished.
  /// The calling thread participates, so a pool of T threads gives T+1
  /// concurrent lanes. Unlike submit(), indices are handed out through one
  /// shared atomic counter — no per-item futures or queue traffic — which
  /// makes it cheap enough to call every physics tick. At most n-1 helpers
  /// are enqueued and exactly that many workers are woken, so batches
  /// narrower than the pool (a tick with few shards) leave the remaining
  /// workers parked. The first exception thrown by `fn` is rethrown here
  /// after the batch drains.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run `fn(i)` for i in [0, n) on a transient pool and block until done.
/// Results are collected in index order, so output is deterministic even
/// though execution order is not. Work is submitted as ~2x-threads
/// contiguous index chunks (not one task per item), so the per-task
/// packaged_task/future overhead is amortized across sweep sizes while
/// still leaving enough chunks for load balancing under uneven item costs.
template <class Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  using R = std::invoke_result_t<Fn, std::size_t>;
  std::vector<R> results;
  if (n == 0) return results;
  ThreadPool pool(threads);
  const std::size_t chunks = std::min(n, 2 * pool.size());
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  std::vector<std::future<std::vector<R>>> futures;
  futures.reserve(chunks);
  std::size_t lo = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t hi = lo + base + (c < rem ? 1 : 0);
    futures.push_back(pool.submit([&fn, lo, hi] {
      std::vector<R> part;
      part.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) part.push_back(fn(i));
      return part;
    }));
    lo = hi;
  }
  results.reserve(n);
  for (auto& f : futures) {
    std::vector<R> part = f.get();
    for (auto& r : part) results.push_back(std::move(r));
  }
  return results;
}

}  // namespace df3::util
