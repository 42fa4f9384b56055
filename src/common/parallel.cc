#include "common/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace deepmap {
namespace {

// Instrument handles resolved once (registry lookups take a mutex; per-task
// updates must stay lock-free).
obs::Counter& PoolTasksTotal() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "deepmap_pool_tasks_total",
      "tasks executed by ThreadPool helpers and Wait() callers");
  return counter;
}

obs::Histogram& PoolTaskSeconds() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Default().GetHistogram(
          "deepmap_pool_task_seconds", {},
          "wall time of individual ThreadPool tasks");
  return histogram;
}

obs::Counter& ParallelForChunksTotal() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "deepmap_pool_parallel_for_chunks_total",
      "contiguous index chunks executed by ParallelFor");
  return counter;
}

obs::Histogram& ParallelForChunkSeconds() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Default().GetHistogram(
          "deepmap_pool_parallel_for_chunk_seconds", {},
          "wall time of ParallelFor chunks (straggler detection)");
  return histogram;
}

}  // namespace

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("DEEPMAP_NUM_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = DefaultNumThreads();
  }
  // The Wait() caller is the n-th thread.
  helpers_.reserve(num_threads - 1);
  for (size_t i = 1; i < num_threads; ++i) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& h : helpers_) h.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!tasks_.empty()) RunFront(lock);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::HelperLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    task_available_.wait(lock,
                         [this] { return shutting_down_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // shutting down with nothing left to run
    RunFront(lock);
  }
}

void ThreadPool::RunFront(std::unique_lock<std::mutex>& lock) {
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop();
  lock.unlock();
  // Latency fault: stalls this task (e.g. a slow preprocessing shard) to
  // shake out ordering assumptions; never changes results, only timing.
  if (DEEPMAP_FAILPOINT_TRIGGERED("pool.task.delay")) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  {
    PoolTasksTotal().Increment();
    obs::ScopedStageTimer timer(&PoolTaskSeconds(), "pool.task", "pool");
    task();
  }
  task = nullptr;  // captures die outside the lock
  lock.lock();
  if (--in_flight_ == 0) all_done_.notify_all();
}

void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 size_t num_threads) {
  if (n == 0) return;
  if (num_threads == 0) {
    num_threads = DefaultNumThreads();
  }
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1) {
    ParallelForChunksTotal().Increment();
    obs::ScopedStageTimer timer(&ParallelForChunkSeconds(),
                                "pool.parallel_for", "pool");
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  size_t chunk = (n + num_threads - 1) / num_threads;
  for (size_t t = 0; t < num_threads; ++t) {
    size_t begin = t * chunk;
    size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&body, begin, end] {
      ParallelForChunksTotal().Increment();
      obs::ScopedStageTimer timer(&ParallelForChunkSeconds(),
                                  "pool.parallel_for", "pool");
      for (size_t i = begin; i < end; ++i) body(i);
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace deepmap
