// A fixed-size thread pool for wavefront-parallel evaluation.
//
// The timing analyzer levelizes its stage DAG and evaluates each level's
// stages concurrently; every stage builds thread-local MnaSystem/Engine
// objects and writes into its own result slot, so the only shared state
// is the pool's work queue.  Determinism is the caller's contract: jobs
// communicate exclusively through pre-sized slot arrays and all
// reductions happen serially after parallel_for returns.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace awesim::core {

class ThreadPool {
 public:
  /// A pool that evaluates with `threads` concurrent threads in total:
  /// the calling thread participates, so `threads - 1` workers are
  /// spawned.  threads == 0 selects one per hardware core; threads == 1
  /// spawns nothing and parallel_for runs inline (the serial walk).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total evaluating threads (workers + caller).
  std::size_t size() const { return workers_.size() + 1; }

  /// Run fn(0), ..., fn(count-1) across the pool and block until all
  /// complete.  Indices are claimed dynamically; callers needing
  /// deterministic output must write results into per-index slots.  If
  /// jobs throw, the exception of the lowest-index failing job is
  /// rethrown after every job has finished.  A single job (count == 1)
  /// runs inline on the caller without waking the workers.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a >= 1 floor.
  static std::size_t hardware_threads();

 private:
  void work(std::unique_lock<std::mutex>& lock);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
};

}  // namespace awesim::core
