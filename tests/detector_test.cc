#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>

#include "core/causalformer.h"
#include "core/detector.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "graph/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace causalformer {
namespace {

using core::CausalFormer;
using core::CausalFormerOptions;
using core::DetectionResult;
using core::DetectorOptions;

// A strongly coupled bivariate system: S0 -> S1 at lag 1 plus self-loops.
data::Dataset StrongBivariate(Rng* rng, int64_t length = 600) {
  const int64_t burn = 20;
  std::vector<float> x0(length + burn), x1(length + burn);
  x0[0] = static_cast<float>(rng->Normal());
  x1[0] = 0.0f;
  for (int64_t t = 1; t < length + burn; ++t) {
    x0[t] = 0.3f * x0[t - 1] + 0.8f * static_cast<float>(rng->Normal());
    x1[t] = 0.3f * x1[t - 1] + 1.2f * x0[t - 1] +
            0.2f * static_cast<float>(rng->Normal());
  }
  Tensor series = Tensor::Zeros(Shape{2, length});
  for (int64_t t = 0; t < length; ++t) {
    series.at({0, t}) = x0[t + burn];
    series.at({1, t}) = x1[t + burn];
  }
  data::StandardizeSeries(series);
  CausalGraph truth(2);
  truth.AddEdge(0, 1, 1);
  truth.AddEdge(0, 0, 1);
  truth.AddEdge(1, 1, 1);
  return data::Dataset("bivariate", std::move(series), std::move(truth));
}

CausalFormerOptions SmallConfig(int n) {
  CausalFormerOptions opt = CausalFormerOptions::ForSeries(n, /*window=*/8);
  opt.model.d_model = 16;
  opt.model.d_qk = 16;
  opt.model.heads = 2;
  opt.model.d_ffn = 16;
  opt.train.max_epochs = 25;
  opt.train.stride = 2;
  return opt;
}

TEST(DetectorTest, RecoversStrongBivariateCause) {
  Rng rng(21);
  const data::Dataset ds = StrongBivariate(&rng);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  const DetectionResult res = cf.Discover();
  // The driving edge S0 -> S1 must carry a higher score than the spurious
  // reverse direction.
  EXPECT_GT(res.scores.at(0, 1), res.scores.at(1, 0));
  EXPECT_TRUE(res.graph.HasEdge(0, 1));
}

TEST(DetectorTest, ScoresAreNonNegativeAndFinite) {
  Rng rng(22);
  const data::Dataset ds = StrongBivariate(&rng, 300);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  const DetectionResult res = cf.Discover();
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_GE(res.scores.at(i, j), 0.0);
      EXPECT_TRUE(std::isfinite(res.scores.at(i, j)));
      EXPECT_GE(res.delays[i][j], 0);
      EXPECT_LE(res.delays[i][j], 8);
    }
  }
}

TEST(DetectorTest, AblationVariantsProduceGraphs) {
  Rng rng(23);
  const data::Dataset ds = StrongBivariate(&rng, 300);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);

  DetectorOptions base;
  for (const bool interpretation : {true, false}) {
    for (const bool relevance : {true, false}) {
      for (const bool gradient : {true, false}) {
        if (!relevance && !gradient) continue;  // no signal source
        DetectorOptions opt = base;
        opt.use_interpretation = interpretation;
        opt.use_relevance = relevance;
        opt.use_gradient = gradient;
        const DetectionResult res = cf.Discover(opt);
        EXPECT_EQ(res.graph.num_series(), 2);
        // Every produced score must be finite.
        for (int i = 0; i < 2; ++i) {
          for (int j = 0; j < 2; ++j) {
            EXPECT_TRUE(std::isfinite(res.scores.at(i, j)));
          }
        }
      }
    }
  }
}

TEST(DetectorTest, WithoutBiasAblationRuns) {
  Rng rng(24);
  const data::Dataset ds = StrongBivariate(&rng, 300);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  DetectorOptions opt;
  opt.bias_absorption = false;
  const DetectionResult res = cf.Discover(opt);
  EXPECT_GT(res.scores.at(0, 1), 0.0);
}

TEST(DetectorTest, DelayMappingEq20) {
  // Verify the tap -> delay arithmetic directly: build a model, overwrite
  // one kernel with a spike at a known tap, and check the reported delay.
  Rng rng(25);
  core::ModelOptions mopt;
  mopt.num_series = 2;
  mopt.window = 8;
  mopt.d_model = 8;
  mopt.d_qk = 8;
  mopt.heads = 1;
  mopt.d_ffn = 8;
  core::CausalityTransformer model(mopt, &rng);

  // Kernel layout [from, to, tap]: tap T-1-l corresponds to lag l.
  Tensor kernel = model.kernel();
  float* pk = kernel.data();
  for (int64_t i = 0; i < kernel.numel(); ++i) pk[i] = 0.01f;
  // Edge 0 -> 1 with lag 3: spike at tap T-1-3 = 4.
  kernel.at({0, 1, 4}) = 5.0f;

  Rng drng(26);
  Tensor windows = Tensor::Randn(Shape{8, 2, 8}, &drng);
  core::DetectorOptions dopt;
  dopt.max_windows = 8;
  const DetectionResult res = core::DetectCausalGraph(model, windows, dopt);
  EXPECT_EQ(res.delays[0][1], 3);
}

TEST(DetectorTest, SelfDelayIncludesShiftCorrection) {
  Rng rng(27);
  core::ModelOptions mopt;
  mopt.num_series = 2;
  mopt.window = 8;
  mopt.d_model = 8;
  mopt.d_qk = 8;
  mopt.heads = 1;
  mopt.d_ffn = 8;
  core::CausalityTransformer model(mopt, &rng);
  Tensor kernel = model.kernel();
  for (int64_t i = 0; i < kernel.numel(); ++i) kernel.data()[i] = 0.01f;
  // Self edge 1 -> 1, spike at tap T-1 (lag 0 pre-shift) => delay 1 after
  // the diagonal right shift.
  kernel.at({1, 1, 7}) = 5.0f;
  Rng drng(28);
  Tensor windows = Tensor::Randn(Shape{8, 2, 8}, &drng);
  const DetectionResult res = core::DetectCausalGraph(model, windows, {});
  EXPECT_EQ(res.delays[1][1], 1);
}

TEST(DetectorTest, MaxWindowsLimitsInterpretationBatch) {
  Rng rng(29);
  const data::Dataset ds = StrongBivariate(&rng, 200);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  DetectorOptions opt;
  opt.max_windows = 2;  // tiny interpretation batch must still work
  const DetectionResult res = cf.Discover(opt);
  EXPECT_EQ(res.graph.num_series(), 2);
}

// A 6-series model on random windows: enough rows for the conv and attention
// kernels to split over a 4-worker pool in uneven chunks.
core::CausalityTransformer SixSeriesModel(Rng* rng, bool multi_kernel) {
  core::ModelOptions mopt;
  mopt.num_series = 6;
  mopt.window = 8;
  mopt.d_model = 16;
  mopt.d_qk = 16;
  mopt.heads = 2;
  mopt.d_ffn = 16;
  mopt.multi_kernel = multi_kernel;
  return core::CausalityTransformer(mopt, rng);
}

bool SameScoresAndDelays(const DetectionResult& a, const DetectionResult& b) {
  const int n = a.scores.num_series();
  if (b.scores.num_series() != n) return false;
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      const double x = a.scores.at(from, to);
      const double y = b.scores.at(from, to);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
      if (a.delays[from][to] != b.delays[from][to]) return false;
    }
  }
  return true;
}

// The conv and attention kernels split over the pool from a plain thread;
// inside a pool task the same call runs them inline (nested ParallelFor is
// inline). Both must produce the same bits.
TEST(DetectorTest, PoolEqualsInlineBitForBit) {
  for (const bool multi_kernel : {true, false}) {
    Rng rng(multi_kernel ? 31 : 32);
    const core::CausalityTransformer model = SixSeriesModel(&rng, multi_kernel);
    const std::vector<Tensor> batches = {
        Tensor::Randn(Shape{5, 6, 8}, &rng), Tensor::Randn(Shape{3, 6, 8}, &rng)};
    for (const bool bias : {true, false}) {
      DetectorOptions opt;
      opt.bias_absorption = bias;
      const std::vector<DetectionResult> pooled =
          core::DetectCausalGraphBatched(model, batches, opt);

      std::vector<DetectionResult> inline_run;
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      ThreadPool::Global().Schedule([&] {
        std::vector<DetectionResult> r =
            core::DetectCausalGraphBatched(model, batches, opt);
        std::lock_guard<std::mutex> lock(mu);
        inline_run = std::move(r);
        done = true;
        cv.notify_all();
      });
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });

      ASSERT_EQ(pooled.size(), inline_run.size());
      for (size_t r = 0; r < pooled.size(); ++r) {
        EXPECT_TRUE(SameScoresAndDelays(pooled[r], inline_run[r]))
            << "request " << r << " multi_kernel=" << multi_kernel
            << " bias_absorption=" << bias;
      }
    }
  }
}

// With a collector installed, the detector's phases and kernel timers land
// in the caller's collector, and the detector phases stay a decomposition of
// the call: they never add up to more than its wall time.
TEST(DetectorTest, PhasesReachTheCallersCollector) {
  Rng rng(33);
  const core::CausalityTransformer model = SixSeriesModel(&rng, true);
  const Tensor windows = Tensor::Randn(Shape{8, 6, 8}, &rng);

  obs::PhaseCollector collector;
  collector.set_collect_kernels(true);
  Stopwatch wall;
  {
    obs::ScopedPhaseCollector install(&collector);
    core::DetectCausalGraph(model, windows, {});
  }
  const double wall_seconds = wall.ElapsedSeconds();

  double detector_total = 0.0;
  std::map<std::string, double> phases;
  for (const auto& [name, seconds] : collector.phases()) phases[name] = seconds;
  for (const char* name : {"forward", "backward", "relevance", "cluster"}) {
    detector_total += phases[name];
  }
  EXPECT_GT(phases["backward"], 0.0);
  EXPECT_GT(phases["relevance"], 0.0);
  EXPECT_GT(phases["kernel.matmul"], 0.0);
  EXPECT_LE(detector_total, wall_seconds);
}

}  // namespace
}  // namespace causalformer
