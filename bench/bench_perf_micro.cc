// Kernel microbenchmarks: times the tensor hot loops (conv, matmul, softmax,
// elementwise, reductions, relevance) once with the scalar reference kernel
// table and once with the best vectorized table this build/CPU offers, in the
// same process via simd::SetLevelForTesting. Reports per-kernel speedups and
// their geometric mean, which CI gates at >= 3x on SIMD-capable hosts.
//
// Then times whole detections (detect_e2e): DetectCausalGraph on a randomly
// initialised model for several (N series, d_model, B windows) geometries,
// once single-threaded and once with the conv and attention kernels split over
// the pool, with per-phase (forward/backward/relevance/cluster) columns.
//
// Last, the serving layer's per-request byte work (wire): encoding and
// decoding a Detect frame at the hot_hits_4c (B=32, N=4, T=16) and
// detect_cold_1c (B=8, N=10, T=16) shapes of e2ebench, the CRC-32 of an
// 8 KiB payload, and the window content hash a cache lookup computes. These
// rows stay out of the kernel geomean.
//
// Self-contained (no google-benchmark): each case runs for a fixed iteration
// budget, best-of-3 repetitions. Kernel cases and the single-thread detect
// rows run inside a pool task, where every ParallelFor runs inline; the pool
// itself has CF_NUM_THREADS workers (default: the hardware concurrency).
//
// Results are printed as tables and written to BENCH_perf.json.
//
// Environment knobs: CF_BENCH_PERF_ITERS scales the per-case iteration
// budget (percent, default 100), CF_FAST=1 (smoke: 1 rep, 10% iterations).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "core/causal_conv.h"
#include "core/causality_transformer.h"
#include "core/detector.h"
#include "interpret/relevance.h"
#include "obs/trace.h"
#include "serve/score_cache.h"
#include "serve/wire.h"
#include "tensor/allocator.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace cf = causalformer;

namespace {

int EnvInt(const char* name, int fallback) {
  if (const char* value = std::getenv(name)) {
    const int v = std::atoi(value);
    if (v > 0) return v;
  }
  return fallback;
}

// A volatile sink so the optimizer cannot drop the benchmarked work.
volatile float g_sink = 0.0f;

struct BenchCase {
  std::string name;
  int iters = 0;                   // per repetition, before scaling
  std::function<void()> fn;        // one iteration of the workload
};

// Best-of-reps time for `iters` iterations of fn, in milliseconds per iter.
double TimeCase(const BenchCase& c, int iters, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    cf::Stopwatch sw;
    for (int i = 0; i < iters; ++i) c.fn();
    const double s = sw.ElapsedSeconds();
    if (s < best) best = s;
  }
  return best * 1000.0 / iters;
}

struct Result {
  std::string name;
  double scalar_ms = 0;
  double simd_ms = 0;
  double speedup = 1;
};

// Runs fn on a pool worker and waits for it. ParallelFor calls made there run
// inline, so the work is single-threaded whatever the pool size.
void RunOnOneThread(const std::function<void()>& fn) {
  std::promise<void> done;
  cf::ThreadPool::Global().Schedule([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

struct DetectGeometry {
  int64_t n = 0;  // series
  int64_t d = 0;  // d_model = d_qk
  int64_t b = 0;  // windows per request
  int iters = 0;  // per repetition, before scaling
};

struct DetectRow {
  DetectGeometry geometry;
  int threads = 1;
  double detect_ms = 0;  // best-of-reps mean wall time per detect
  // Phase means per detect over the best repetition (ScopedPhaseTimer
  // attribution, so they sum to at most detect_ms).
  double forward_ms = 0, backward_ms = 0, relevance_ms = 0, cluster_ms = 0;
};

// Times DetectCausalGraph on one geometry: a randomly initialised model with
// T = 16, 2 heads, d_ffn = 64 (the served models' shape) and B random windows.
DetectRow TimeDetect(const DetectGeometry& g, int threads, int iters,
                     int reps) {
  cf::Rng rng(static_cast<uint64_t>(1000 + g.n * 7 + g.d + g.b));
  cf::core::ModelOptions mopt;
  mopt.num_series = g.n;
  mopt.window = 16;
  mopt.d_model = g.d;
  mopt.d_qk = g.d;
  mopt.heads = 2;
  mopt.d_ffn = 64;
  const cf::core::CausalityTransformer model(mopt, &rng);
  const cf::Tensor windows = cf::Tensor::Randn(cf::Shape{g.b, g.n, 16}, &rng);
  cf::core::DetectorOptions dopt;
  dopt.max_windows = g.b;

  DetectRow row;
  row.geometry = g;
  row.threads = threads;
  row.detect_ms = 1e300;
  auto run = [&] {
    cf::ScopedAllocator arena_guard(cf::DetectArena());
    g_sink = static_cast<float>(
        cf::core::DetectCausalGraph(model, windows, dopt).scores.at(0, 0));
    for (int r = 0; r < reps; ++r) {
      cf::obs::PhaseCollector phases;
      phases.set_collect_kernels(false);
      cf::obs::ScopedPhaseCollector install(&phases);
      cf::Stopwatch sw;
      for (int i = 0; i < iters; ++i) {
        g_sink = static_cast<float>(
            cf::core::DetectCausalGraph(model, windows, dopt).scores.at(0, 0));
      }
      const double ms = sw.ElapsedSeconds() * 1000.0 / iters;
      if (ms >= row.detect_ms) continue;
      row.detect_ms = ms;
      row.forward_ms = row.backward_ms = row.relevance_ms = row.cluster_ms = 0;
      for (const auto& [name, seconds] : phases.phases()) {
        const double per = seconds * 1000.0 / iters;
        if (name == "forward") row.forward_ms = per;
        if (name == "backward") row.backward_ms = per;
        if (name == "relevance") row.relevance_ms = per;
        if (name == "cluster") row.cluster_ms = per;
      }
    }
  };
  if (threads == 1) {
    RunOnOneThread(run);
  } else {
    run();
  }
  return row;
}

struct WireRow {
  std::string name;
  size_t bytes = 0;  // bytes the operation reads or writes
  double us = 0;     // best-of-reps mean microseconds per operation
};

// The wire rows: frame encode/decode per e2ebench shape, CRC and hash.
std::vector<WireRow> TimeWire(int pct, int reps) {
  namespace wire = cf::serve::wire;
  struct Shape3 {
    const char* label;
    int64_t b, n, t;
  };
  const Shape3 shapes[] = {{"32x4x16", 32, 4, 16}, {"8x10x16", 8, 10, 16}};
  std::vector<WireRow> rows;
  const auto time = [&](const std::string& name, size_t bytes, int iters,
                        std::function<void()> fn) {
    fn();
    const BenchCase c{name, iters, std::move(fn)};
    const double ms = TimeCase(c, std::max(1, iters * pct / 100), reps);
    rows.push_back({name, bytes, ms * 1000.0});
  };
  cf::Rng rng(7);
  for (const Shape3& shape : shapes) {
    wire::DetectMsg msg;
    msg.model = "hot";
    msg.windows =
        cf::Tensor::Randn(cf::Shape{shape.b, shape.n, shape.t}, &rng);
    const std::vector<uint8_t> frame = wire::EncodeFrame(
        wire::MessageType::kDetect, wire::EncodeDetect(msg));
    time(std::string("detect_encode_") + shape.label, frame.size(), 20000,
         [&] {
           g_sink = static_cast<float>(
               wire::EncodeFrame(wire::MessageType::kDetect,
                                 wire::EncodeDetect(msg))
                   .size());
         });
    time(std::string("detect_decode_") + shape.label, frame.size(), 20000,
         [&] {
           wire::Frame decoded;
           size_t consumed = 0;
           wire::DetectMsg out;
           if (wire::DecodeFrame(frame.data(), frame.size(), &decoded,
                                 &consumed) != wire::DecodeResult::kFrame ||
               !wire::DecodeDetect(decoded.payload, &out).ok()) {
             std::abort();
           }
           g_sink = out.windows.data()[0];
         });
    time(std::string("hash_windows_") + shape.label,
         sizeof(float) * static_cast<size_t>(msg.windows.numel()), 20000,
         [&] {
           g_sink = static_cast<float>(cf::serve::HashWindows(msg.windows).lo);
         });
  }
  std::vector<uint8_t> payload(8192);
  for (uint8_t& byte : payload) byte = static_cast<uint8_t>(rng.Next());
  time("crc32_8k", payload.size(), 40000, [&] {
    g_sink = static_cast<float>(cf::Crc32(payload.data(), payload.size()));
  });
  return rows;
}

}  // namespace

int main() {
  const bool fast = std::getenv("CF_FAST") != nullptr;
  const int pct = EnvInt("CF_BENCH_PERF_ITERS", fast ? 10 : 100);
  const int reps = fast ? 1 : 3;

  cf::Rng rng(42);

  // Workloads sized to stay cache-resident so the measurement is the kernel,
  // not memory bandwidth. Every case exercises forward *and* backward where
  // the detector does.
  cf::Tensor mm_a = cf::Tensor::Randn(cf::Shape{128, 128}, &rng);
  cf::Tensor mm_b = cf::Tensor::Randn(cf::Shape{128, 128}, &rng);
  cf::Tensor mm_at = mm_a.Clone().set_requires_grad(true);

  cf::Tensor sm_x = cf::Tensor::Randn(cf::Shape{128, 256}, &rng);
  cf::Tensor sm_x3 = cf::Tensor::Randn(cf::Shape{16, 64, 64}, &rng);

  cf::Tensor ew_a = cf::Tensor::Randn(cf::Shape{4096}, &rng);
  cf::Tensor ew_b = cf::Tensor::Randn(cf::Shape{4096}, &rng);
  cf::Tensor ew_o = cf::Tensor::Zeros(cf::Shape{4096});

  cf::Tensor conv_x = cf::Tensor::Randn(cf::Shape{4, 8, 128}, &rng);
  cf::Tensor conv_k = cf::Tensor::Randn(cf::Shape{8, 8, 128}, &rng);
  cf::Tensor conv_xg = conv_x.Clone().set_requires_grad(true);
  cf::Tensor conv_kg = conv_k.Clone().set_requires_grad(true);
  cf::Tensor conv_seed = cf::Tensor::Ones(cf::Shape{4, 8, 8, 128});

  cf::core::ModelOptions mopt;
  mopt.num_series = 8;
  mopt.window = 32;
  mopt.d_model = 64;
  mopt.d_qk = 64;
  mopt.heads = 2;
  mopt.d_ffn = 64;
  cf::core::CausalityTransformer model(mopt, &rng);
  cf::Tensor model_x = cf::Tensor::Randn(cf::Shape{8, 8, 32}, &rng);
  const auto model_fwd = model.Forward(model_x);
  cf::Tensor rel_seed = cf::Tensor::Ones(model_fwd.prediction.shape());

  std::vector<BenchCase> cases;
  cases.push_back({"matmul_128", 60, [&] {
                     g_sink = cf::MatMul(mm_a, mm_b).data()[0];
                   }});
  cases.push_back({"matmul_backward_128", 30, [&] {
                     cf::Tensor out = cf::MatMul(mm_at, mm_b);
                     out.Backward(cf::Tensor::Ones(out.shape()));
                     g_sink = out.data()[0];
                   }});
  cases.push_back({"softmax_rows_256", 200, [&] {
                     g_sink = cf::Softmax(sm_x, 1).data()[0];
                   }});
  cases.push_back({"softmax_strided_axis1", 100, [&] {
                     g_sink = cf::Softmax(sm_x3, 1).data()[0];
                   }});
  // Elementwise is measured at the kernel-table level (L1-resident row, no
  // op dispatch/autograd overhead): at op level the fixed per-op cost is the
  // same for both tables and would measure dispatch, not the kernel.
  cases.push_back({"elementwise_add_4k", 20000, [&] {
                     cf::simd::Active().add(ew_a.data(), ew_b.data(),
                                            ew_o.data(), 4096);
                     g_sink = ew_o.data()[0];
                   }});
  cases.push_back({"elementwise_fma_4k", 20000, [&] {
                     cf::simd::Active().fma_into(ew_o.data(), ew_a.data(),
                                                 ew_b.data(), 4096);
                     g_sink = ew_o.data()[0];
                   }});
  cases.push_back({"reduce_sum_axis", 400, [&] {
                     g_sink = cf::Sum(sm_x, 1, false).data()[0];
                   }});
  cases.push_back({"causal_conv_forward", 20, [&] {
                     g_sink =
                         cf::core::MultiKernelCausalConv(conv_x, conv_k)
                             .data()[0];
                   }});
  cases.push_back({"causal_conv_backward", 10, [&] {
                     cf::Tensor out =
                         cf::core::MultiKernelCausalConv(conv_xg, conv_kg);
                     out.Backward(conv_seed);
                     g_sink = out.data()[0];
                   }});
  cases.push_back({"relevance_propagation", 10, [&] {
                     const auto map = cf::interpret::PropagateRelevance(
                         model_fwd.prediction, rel_seed);
                     g_sink = static_cast<float>(map.size());
                   }});

  const cf::simd::IsaLevel best_level = cf::simd::ActiveLevel();
  const char* level_name = cf::simd::LevelName(best_level);
  std::vector<Result> results;

  std::printf("%-26s %12s %12s %9s\n", "kernel", "scalar ms/it",
              (std::string(level_name) + " ms/it").c_str(), "speedup");
  // Kernel speedups must not be confounded by ParallelFor splits: run the
  // cases on one thread, under the detect arena as the serving path does
  // (intermediate tensors recycle instead of round-tripping through malloc
  // and its page faults on every iteration, so the timings isolate the
  // kernels).
  RunOnOneThread([&] {
    cf::ScopedAllocator arena_guard(cf::DetectArena());
    for (const BenchCase& c : cases) {
      const int iters = std::max(1, c.iters * pct / 100);
      Result r;
      r.name = c.name;
      // Warm the arena/pool and the instruction cache once per table.
      cf::simd::SetLevelForTesting(cf::simd::IsaLevel::kScalar);
      c.fn();
      r.scalar_ms = TimeCase(c, iters, reps);
      cf::simd::SetLevelForTesting(best_level);
      c.fn();
      r.simd_ms = TimeCase(c, iters, reps);
      r.speedup = r.simd_ms > 0 ? r.scalar_ms / r.simd_ms : 1.0;
      results.push_back(r);
      std::printf("%-26s %12.4f %12.4f %8.2fx\n", r.name.c_str(),
                  r.scalar_ms, r.simd_ms, r.speedup);
    }
  });

  double log_sum = 0.0;
  for (const Result& r : results) log_sum += std::log(r.speedup);
  const double geomean =
      results.empty() ? 1.0
                      : std::exp(log_sum / static_cast<double>(results.size()));
  std::printf("%-26s %34.2fx\n", "geomean", geomean);

  // Whole detections, best vectorized table, at 1 thread and the pool size.
  const std::vector<DetectGeometry> geometries = {
      {10, 32, 8, 40}, {20, 32, 8, 10}, {10, 128, 32, 4}};
  const int pool_threads = cf::ThreadPool::Global().num_threads();
  std::vector<DetectRow> detect_rows;
  std::printf("\n%-16s %7s %10s %10s %10s %10s %10s\n", "detect_e2e N,d,B",
              "threads", "detect ms", "forward", "backward", "relevance",
              "cluster");
  for (const DetectGeometry& g : geometries) {
    const int iters = std::max(1, g.iters * pct / 100);
    std::vector<int> thread_counts = {1};
    if (pool_threads > 1) thread_counts.push_back(pool_threads);
    for (const int threads : thread_counts) {
      const DetectRow row = TimeDetect(g, threads, iters, reps);
      detect_rows.push_back(row);
      const std::string label = std::to_string(g.n) + "," +
                                std::to_string(g.d) + "," +
                                std::to_string(g.b);
      std::printf("%-16s %7d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                  label.c_str(), threads, row.detect_ms, row.forward_ms,
                  row.backward_ms, row.relevance_ms, row.cluster_ms);
    }
  }

  const std::vector<WireRow> wire_rows = TimeWire(pct, reps);
  std::printf("\n%-26s %8s %12s\n", "wire", "bytes", "us/op");
  for (const WireRow& r : wire_rows) {
    std::printf("%-26s %8zu %12.3f\n", r.name.c_str(), r.bytes, r.us);
  }

  FILE* f = std::fopen("BENCH_perf.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"perf_micro\",\n");
    std::fprintf(f, "  \"simd_level\": \"%s\",\n", level_name);
    std::fprintf(f, "  \"kernels\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"scalar_ms\": %.6f, "
                   "\"simd_ms\": %.6f, \"speedup\": %.4f}%s\n",
                   r.name.c_str(), r.scalar_ms, r.simd_ms, r.speedup,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"kernel_speedup_geomean\": %.4f,\n", geomean);
    std::fprintf(f, "  \"pool_threads\": %d,\n", pool_threads);
    std::fprintf(f, "  \"detect_e2e\": [\n");
    for (size_t i = 0; i < detect_rows.size(); ++i) {
      const DetectRow& r = detect_rows[i];
      std::fprintf(f,
                   "    {\"n\": %lld, \"d\": %lld, \"b\": %lld, "
                   "\"threads\": %d, \"detect_ms\": %.6f, "
                   "\"forward_ms\": %.6f, \"backward_ms\": %.6f, "
                   "\"relevance_ms\": %.6f, \"cluster_ms\": %.6f}%s\n",
                   static_cast<long long>(r.geometry.n),
                   static_cast<long long>(r.geometry.d),
                   static_cast<long long>(r.geometry.b), r.threads,
                   r.detect_ms, r.forward_ms, r.backward_ms, r.relevance_ms,
                   r.cluster_ms, i + 1 < detect_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"wire\": [\n");
    for (size_t i = 0; i < wire_rows.size(); ++i) {
      const WireRow& r = wire_rows[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"bytes\": %zu, \"us\": %.6f}%s\n",
                   r.name.c_str(), r.bytes, r.us,
                   i + 1 < wire_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_perf.json (simd_level=%s)\n", level_name);
  }
  return 0;
}
