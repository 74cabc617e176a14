#include "core/parallel.h"

#include <algorithm>

namespace awesim::core {

std::size_t ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work(std::unique_lock<std::mutex>& lock) {
  // Claim-and-run loop; entered with the lock held.
  const auto* fn = fn_;
  while (next_ < count_) {
    const std::size_t i = next_++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) errors_.emplace_back(i, error);
    if (--remaining_ == 0) batch_done_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    work_ready_.wait(lock,
                     [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    work(lock);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || workers_.empty()) {
    // A one-job wave runs inline: waking every worker to claim nothing
    // costs more than the job on deep, narrow wavefronts.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  fn_ = &fn;
  next_ = 0;
  count_ = count;
  remaining_ = count;
  errors_.clear();
  ++generation_;
  work_ready_.notify_all();
  work(lock);  // the calling thread participates
  batch_done_.wait(lock, [&] { return remaining_ == 0; });
  fn_ = nullptr;
  count_ = 0;
  if (!errors_.empty()) {
    auto first = std::min_element(
        errors_.begin(), errors_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
}

}  // namespace awesim::core
