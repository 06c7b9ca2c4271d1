// Fixed-size worker pool plus a structured parallel-for, the concurrency
// substrate behind Algorithm 1's trial batches (iblt::SearchOptions::pool,
// reached by bench_param_search_speed and gen_param_table).
//
// Design constraints (rationale in docs/CONCURRENCY.md):
//
//  * Determinism lives in the WORK DECOMPOSITION, not in the pool.
//    parallel_for runs fn(i) over a fixed index range; callers key all
//    randomness off the index (util::Rng::split or an index-derived seed),
//    so results are identical for any worker count — including zero.
//
//  * The calling thread participates. parallel_for never parks waiting for
//    a pool slot: the caller drains the same index counter as the workers,
//    so nested calls, zero-thread pools, and fully-busy pools all complete
//    without deadlock.
//
//  * One pool per process is the intended shape; oversubscribing with one
//    pool per subsystem defeats the point.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace graphene::util {

class ThreadPool {
 public:
  /// `threads == 0` sizes to hardware_concurrency (at least 1 worker).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool() EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues fire-and-forget work. Tasks must not throw (parallel_for
  /// wraps its chunks so user exceptions are captured and rethrown there).
  void post(std::function<void()> task) EXCLUDES(mu_);

 private:
  void worker_loop() EXCLUDES(mu_);

  Mutex mu_;
  // condition_variable_any so waits release the annotated Mutex directly;
  // the analysis sees mu_ held across the whole wait loop (see util/sync.hpp).
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0) … fn(count-1) across the pool and the calling thread; returns
/// once every index has completed. `pool == nullptr` (or an exhausted pool)
/// degrades to a plain loop on the caller. The first exception thrown by fn
/// is rethrown on the caller after all indices finish or are claimed.
///
/// fn must be safe to call concurrently for distinct indices; index
/// execution order is unspecified, so deterministic callers must make fn(i)
/// depend only on i and write to per-index slots.
void parallel_for(ThreadPool* pool, std::uint64_t count,
                  const std::function<void(std::uint64_t)>& fn);

}  // namespace graphene::util
