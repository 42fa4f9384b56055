// Minimal thread pool and parallel-for.
//
// Used for embarrassingly parallel work: Gram-matrix rows, per-fold cross
// validation, per-graph feature extraction. On single-core machines the pool
// degrades gracefully to sequential execution.
#ifndef DEEPMAP_COMMON_PARALLEL_H_
#define DEEPMAP_COMMON_PARALLEL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace deepmap {

/// Thread count used whenever a caller passes 0 ("auto"): the value of the
/// DEEPMAP_NUM_THREADS environment variable when it parses as a positive
/// integer, otherwise std::thread::hardware_concurrency (at least 1). Read
/// on every call so tests and benches can re-pin mid-process.
size_t DefaultNumThreads();

/// Fixed-size pool executing void() tasks FIFO, in which the thread that
/// calls Wait() is one of the workers.
///
/// ThreadPool(n) runs tasks on n threads: n - 1 helper threads it spawns,
/// plus whichever thread calls Wait(), which pops and runs queued tasks
/// itself before it blocks on the tasks still running on helpers. So
/// ThreadPool(1) starts no thread at all: its tasks run on the Wait()
/// caller, with no handoff and no sleep/wake round trip. The flip side is
/// that, without helpers, a submitted task may not start before Wait() is
/// called; callers that need the work done must call Wait() (the destructor
/// does, so no submitted task is ever dropped).
class ThreadPool {
 public:
  /// Runs tasks on `num_threads` threads, the Wait() caller included;
  /// 0 means DefaultNumThreads().
  explicit ThreadPool(size_t num_threads = 0);
  /// Runs whatever is still queued (as Wait() does), then joins the helpers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution by a helper or the next Wait() caller.
  void Submit(std::function<void()> task);

  /// Runs queued tasks on the calling thread until the queue is empty, then
  /// blocks until every submitted task has completed.
  void Wait();

  /// Threads that run tasks: the helpers plus the Wait() caller. Callers
  /// size their sharding by it.
  size_t num_threads() const { return helpers_.size() + 1; }

 private:
  void HelperLoop();
  /// Pops the front task and runs it with `lock` released; `lock` holds mu_
  /// on entry and on return. The one task-running routine, shared by the
  /// helpers and the Wait() caller.
  void RunFront(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> helpers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs body(i) for i in [0, n). Work is split into contiguous chunks across
/// `num_threads` threads (0 = DefaultNumThreads(); 1 = run inline).
void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 size_t num_threads = 0);

}  // namespace deepmap

#endif  // DEEPMAP_COMMON_PARALLEL_H_
