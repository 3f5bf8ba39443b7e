#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/profiler.h"
#include "util/logging.h"

namespace causalformer {
namespace {
// True on pool worker threads, and on a ParallelFor caller while it runs its
// own chunk: nested ParallelFor calls then run inline. A worker blocking in
// a latch wait on tasks only it could run would deadlock, and a caller
// fanning out again would queue its inner chunks behind its siblings' outer
// ones and idle until a worker freed up.
thread_local bool t_in_worker = false;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  CF_CHECK_GT(num_threads, 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      const std::string name = "cf-work-" + std::to_string(i);
      obs::RegisterProfilingThread(name.c_str());
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      if (pending_ == 0) done_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    int n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 4;
    if (const char* env = std::getenv("CF_NUM_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) n = v;
    }
    return new ThreadPool(n);
  }();
  return *pool;
}

namespace {

// Per-call completion latch. ParallelFor used to rely on ThreadPool::Wait(),
// which blocks on the pool-wide pending count: with two concurrent callers
// (e.g. the serving layer detecting on several models at once) each Wait()
// also waited for the *other* caller's tasks, and under a continuous request
// stream could block indefinitely. Each call now tracks only its own chunks.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  int64_t remaining;

  explicit Latch(int64_t count) : remaining(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining == 0; });
  }
};

}  // namespace

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  ThreadPool& pool = ThreadPool::Global();
  const int workers = pool.num_threads();
  // Nested calls (a pool task fanning out again) run inline: every worker
  // blocking in a latch wait on tasks only it could run would deadlock.
  if (t_in_worker || workers <= 1 || n <= grain) {
    fn(0, n);
    return;
  }
  const int64_t max_chunks = (n + grain - 1) / grain;
  const int64_t chunks = std::min<int64_t>(workers, max_chunks);
  const int64_t chunk_size = (n + chunks - 1) / chunks;
  Latch latch(chunks - 1);
  for (int64_t c = 1; c < chunks; ++c) {
    const int64_t begin = c * chunk_size;
    const int64_t end = std::min(n, begin + chunk_size);
    if (begin >= end) {
      latch.CountDown();  // rounding left this chunk empty
      continue;
    }
    pool.Schedule([&fn, &latch, begin, end] {
      fn(begin, end);
      latch.CountDown();
    });
  }
  // The caller works on the first chunk instead of idling in the wait.
  t_in_worker = true;
  fn(0, std::min(n, chunk_size));
  t_in_worker = false;
  latch.Wait();
}

}  // namespace causalformer
