#ifndef CAUSALFORMER_TESTS_SERVE_TEST_UTIL_H_
#define CAUSALFORMER_TESTS_SERVE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Shared fixtures of the serving-layer tests (serve_test, serve_stress_test,
// stream_test): tiny models, the pool-hostage dispatch-timing lever, and the
// deterministic concurrency primitives (Barrier, ScriptedClock) the stress
// harness is built on.

namespace causalformer {
namespace serve {
namespace testutil {

inline core::ModelOptions TinyModelOptions(int64_t num_series = 3,
                                           int64_t window = 8) {
  core::ModelOptions opt;
  opt.num_series = num_series;
  opt.window = window;
  opt.d_model = 16;
  opt.d_qk = 16;
  opt.heads = 2;
  opt.d_ffn = 16;
  return opt;
}

inline std::unique_ptr<core::CausalityTransformer> TinyModel(
    uint64_t seed = 7) {
  Rng rng(seed);
  return std::make_unique<core::CausalityTransformer>(TinyModelOptions(),
                                                      &rng);
}

inline Tensor RandomWindows(int64_t b, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(Shape{b, 3, 8}, &rng);
}

inline void ExpectSameDetection(const core::DetectionResult& a,
                                const core::DetectionResult& b) {
  const int n = a.scores.num_series();
  ASSERT_EQ(b.scores.num_series(), n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(a.scores.at(i, j), b.scores.at(i, j)) << i << "," << j;
      EXPECT_EQ(a.delays[i][j], b.delays[i][j]) << i << "," << j;
    }
  }
  EXPECT_EQ(a.graph.ToString(), b.graph.ToString());
}

// Parks every global ThreadPool worker until Release() (or destruction), so
// detection kernels cannot progress and engine submissions stay queued — the
// lever the batching, hot-swap and dedup tests use to control dispatch
// timing. Releasing in the destructor keeps workers from blocking forever on
// dead stack state when a test assertion fails mid-scope; the destructor also
// waits for every hostage to leave the wait before the primitives go away.
class PoolHostage {
 public:
  PoolHostage() : hostages_(ThreadPool::Global().num_threads()) {
    for (int i = 0; i < hostages_; ++i) {
      ThreadPool::Global().Schedule([this] {
        ++blocked_;
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [this] { return release_; });
        }
        ++exited_;
      });
    }
    while (blocked_.load() < hostages_) std::this_thread::yield();
  }

  ~PoolHostage() {
    Release();
    while (exited_.load() < hostages_) std::this_thread::yield();
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      release_ = true;
    }
    cv_.notify_all();
  }

 private:
  const int hostages_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool release_ = false;
  std::atomic<int> blocked_{0};
  std::atomic<int> exited_{0};
};

// A reusable (generation-counted) thread barrier: Wait() blocks until
// `parties` threads have arrived, then releases them all. The stress harness
// uses it to line K submitter threads up on the same instant so their
// submissions genuinely race instead of trickling in.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties), waiting_(0) {}

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  const int parties_;
  int waiting_;
  uint64_t generation_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

// A deterministic, thread-safe test clock: time stands still until the test
// advances it. Installed via ScoreCacheOptions/EngineOptions
// `cache_clock_for_testing`, it makes TTL expiry a scripted event instead of
// a wall-clock race — the stress harness uses it to force "cached result
// just expired, identical queries must coalesce in flight, not recompute K
// times".
class ScriptedClock {
 public:
  explicit ScriptedClock(double start = 0) : now_(start) {}

  double Now() const {
    std::lock_guard<std::mutex> lock(mu_);
    return now_;
  }

  void Advance(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    now_ += seconds;
  }

  // The clock as the std::function the cache options expect. The returned
  // callable references this clock; keep it alive for the cache's lifetime.
  std::function<double()> fn() {
    return [this] { return Now(); };
  }

 private:
  mutable std::mutex mu_;
  double now_;
};

}  // namespace testutil
}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_TESTS_SERVE_TEST_UTIL_H_
