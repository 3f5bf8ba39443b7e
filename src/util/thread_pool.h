#ifndef CAUSALFORMER_UTIL_THREAD_POOL_H_
#define CAUSALFORMER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

/// \file
/// A small fixed-size thread pool plus a ParallelFor helper used by the heavy
/// tensor kernels (matmul, causal convolution). The pool is created lazily and
/// shared process-wide; set CF_NUM_THREADS to override the worker count
/// (CF_NUM_THREADS=1 disables parallelism, useful for debugging).

namespace causalformer {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw.
  void Schedule(std::function<void()> task);

  /// Blocks until all scheduled tasks have finished — pool-wide, including
  /// tasks scheduled by other threads. ParallelFor tracks its own chunks with
  /// a per-call latch instead, so concurrent callers never wait on each other;
  /// prefer that pattern for new code.
  void Wait();

  /// Process-wide pool (created on first use).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  int64_t pending_ = 0;
  bool shutdown_ = false;
};

/// Runs fn(begin, end) over [0, n) split into roughly equal chunks across the
/// global pool; the calling thread executes the first chunk itself and a
/// per-call latch tracks the rest, so the call is safe from any number of
/// concurrent threads and re-entrant (nested calls — from any chunk, the
/// caller's included — run inline).
/// Falls back to a single inline call when n is small or the pool has one
/// thread. `grain` is the minimum chunk size worth parallelising.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace causalformer

#endif  // CAUSALFORMER_UTIL_THREAD_POOL_H_
