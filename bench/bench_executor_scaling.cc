// Executor-scaling benchmark: closed-loop clients fire discovery queries at
// one InferenceEngine and we measure requests/sec with 1, 2, 4 and 8 batch
// executors, on three scenarios:
//
//  * uniform — one model, every query a distinct window batch of one shape
//    (pure compute scaling across executors);
//  * mixed_shape — two models with different geometries queried
//    alternately, so the micro-batcher runs several shape buckets at once;
//  * duplicate_heavy — 16 clients hammering only 8 distinct window batches
//    with in-flight dedup ON: most submissions coalesce onto a running
//    leader, so watch for a *collapse* here, not a speedup.
//
// The engine is configured so each batch's whole detection pass runs
// serially on its executor thread: CF_NUM_THREADS=1 (set before any pool
// work, so ParallelFor runs inline on the caller) and a fixed
// max_in_flight_batches (adaptive admission off). Scaling then comes purely
// from the executor count — one compute thread per in-flight batch — up to
// the machine's core count, which is recorded in the output: on a
// single-core box every configuration time-slices the same core and the
// curve is flat, so judge BENCH_executor.json against its "cores" field.
//
// Results are printed as a table and written to BENCH_executor.json.
//
// Environment knobs: CF_BENCH_EXECUTOR_QUERIES (per configuration, default
// 256), CF_BENCH_EXECUTOR_CONNS (client threads, default 16), CF_FAST=1
// (smoke: fewer queries and only 1 and 2 executors).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "serve/inference_engine.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace cf = causalformer;

namespace {

int EnvInt(const char* name, int fallback) {
  if (const char* value = std::getenv(name)) {
    const int v = std::atoi(value);
    if (v > 0) return v;
  }
  return fallback;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

// One query of the workload: a model name plus a distinct window batch.
struct WorkItem {
  std::string model;
  cf::Tensor windows;
};

struct RunResult {
  std::string scenario;
  int executors = 0;
  int queries = 0;
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double speedup = 1.0;  // vs the 1-executor run of the same scenario
};

// Closed loop: `concurrency` clients drain the shared work list against a
// fresh engine with `executors` batch executors. Caches are off so every
// request computes — the bench measures detection throughput, not cache hit
// rate. `dedup` is on only for the duplicate-heavy scenario (elsewhere
// queries are distinct and the table would be pure overhead).
RunResult RunExecutors(cf::serve::ModelRegistry* registry,
                       const std::string& scenario,
                       const std::vector<WorkItem>& work, int executors,
                       int concurrency, bool dedup) {
  cf::serve::EngineOptions eopts;
  eopts.cache_capacity = 0;
  eopts.dedup_in_flight = dedup;
  // A fixed executor count, no adaptation: each executor is one serial
  // compute thread, so req/s scales with executors up to the core count.
  eopts.batcher.max_in_flight_batches = executors;
  eopts.batcher.adaptive_in_flight = false;
  cf::serve::InferenceEngine engine(registry, eopts);

  std::atomic<int> next{0};
  std::mutex mu;
  std::vector<double> latencies;
  latencies.reserve(work.size());

  cf::Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      std::vector<double> local;
      const int total = static_cast<int>(work.size());
      for (int i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        const WorkItem& item = work[static_cast<size_t>(i)];
        cf::serve::DiscoveryRequest request;
        request.model = item.model;
        request.windows = item.windows;
        cf::Stopwatch timer;
        const auto response = engine.Discover(std::move(request));
        if (!response.status.ok()) std::abort();
        local.push_back(timer.ElapsedSeconds());
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (auto& c : clients) c.join();

  RunResult result;
  result.scenario = scenario;
  result.executors = executors;
  result.queries = static_cast<int>(work.size());
  result.rps = static_cast<double>(work.size()) / wall.ElapsedSeconds();
  result.p50_ms = Percentile(latencies, 0.50) * 1e3;
  result.p99_ms = Percentile(latencies, 0.99) * 1e3;
  return result;
}

// A small trained model registered under `name`; returns its windows.
cf::Tensor TrainAndRegister(cf::serve::ModelRegistry* registry,
                            const std::string& name, int64_t window,
                            int64_t d_model, uint64_t seed, bool fast) {
  cf::Rng rng(seed);
  cf::data::SyntheticOptions data_opt;
  data_opt.length = 400;
  const auto dataset = GenerateSynthetic(cf::data::SyntheticStructure::kDiamond,
                                         data_opt, &rng);
  cf::core::ModelOptions mopt;
  mopt.num_series = dataset.num_series();
  mopt.window = window;
  mopt.d_model = d_model;
  mopt.d_qk = d_model;
  mopt.heads = 2;
  mopt.d_ffn = d_model;
  auto model = std::make_unique<cf::core::CausalityTransformer>(mopt, &rng);
  cf::core::TrainOptions topt;
  topt.max_epochs = fast ? 1 : 3;
  topt.stride = 2;
  TrainCausalityTransformer(model.get(), dataset.series, topt, &rng, nullptr);
  if (!registry->Register(name, std::move(model)).ok()) std::abort();
  return cf::data::MakeWindows(dataset.series, window, 1);
}

}  // namespace

int main() {
  // Before anything touches the global ThreadPool: one pool worker means
  // ParallelFor runs inline on its calling thread, so each executor is an
  // independent serial compute lane (see the header comment).
  ::setenv("CF_NUM_THREADS", "1", /*overwrite=*/1);

  const bool fast = std::getenv("CF_FAST") != nullptr;
  const int queries = EnvInt("CF_BENCH_EXECUTOR_QUERIES", fast ? 96 : 256);
  const int conns = EnvInt("CF_BENCH_EXECUTOR_CONNS", 16);
  const unsigned cores = std::thread::hardware_concurrency();
  const std::vector<int> executor_counts =
      fast ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::printf("executor scaling benchmark: %d queries/config, %d clients, "
              "%u cores\n",
              queries, conns, cores);

  cf::serve::ModelRegistry registry;
  const cf::Tensor windows_a =
      TrainAndRegister(&registry, "bench_a", /*window=*/8, /*d_model=*/16,
                       /*seed=*/99, fast);
  const cf::Tensor windows_b =
      TrainAndRegister(&registry, "bench_b", /*window=*/12, /*d_model=*/24,
                       /*seed=*/177, fast);

  // Distinct single-window batches: index i picks window i (mod pool), so
  // every query is a different cache key. With
  // `distinct` set, the work list cycles through that many keys instead —
  // the duplicate-heavy shape, where identical submissions coalesce.
  auto make_work = [&](bool mixed, int distinct) {
    std::vector<WorkItem> work;
    work.reserve(static_cast<size_t>(queries));
    for (int i = 0; i < queries; ++i) {
      const int key = distinct > 0 ? i % distinct : i;
      const bool b = mixed && (key % 2 == 1);
      const cf::Tensor& pool_windows = b ? windows_b : windows_a;
      std::vector<int64_t> idx{(key * 7 + (b ? 3 : 0)) % pool_windows.dim(0)};
      WorkItem item;
      item.model = b ? "bench_b" : "bench_a";
      item.windows = cf::data::GatherWindows(pool_windows, idx);
      work.push_back(std::move(item));
    }
    return work;
  };

  struct Scenario {
    const char* name;
    bool mixed;
    int distinct;  // 0 = every query its own key
    bool dedup;
  };
  const Scenario scenarios[] = {
      {"uniform", false, 0, false},
      {"mixed_shape", true, 0, false},
      {"duplicate_heavy", false, 8, true},
  };

  std::vector<RunResult> results;
  for (const Scenario& scenario : scenarios) {
    const std::vector<WorkItem> work =
        make_work(scenario.mixed, scenario.distinct);
    double base_rps = 0;
    for (const int executors : executor_counts) {
      RunResult r = RunExecutors(&registry, scenario.name, work, executors,
                                 conns, scenario.dedup);
      if (executors == 1) base_rps = r.rps;
      r.speedup = base_rps > 0 ? r.rps / base_rps : 0.0;
      std::fprintf(stderr,
                   "  [%s executors=%d] %.1f req/s p50=%.2fms p99=%.2fms "
                   "speedup=%.2fx\n",
                   r.scenario.c_str(), r.executors, r.rps, r.p50_ms, r.p99_ms,
                   r.speedup);
      results.push_back(std::move(r));
    }
  }

  cf::Table table(
      {"scenario", "executors", "req/s", "p50 ms", "p99 ms", "speedup"});
  for (const auto& r : results) {
    table.AddRow({r.scenario, std::to_string(r.executors),
                  cf::StrFormat("%.1f", r.rps), cf::StrFormat("%.2f", r.p50_ms),
                  cf::StrFormat("%.2f", r.p99_ms),
                  cf::StrFormat("%.2fx", r.speedup)});
  }
  std::printf("%s\n", table.ToString().c_str());

  FILE* json = std::fopen("BENCH_executor.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_executor.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"benchmark\": \"executor_scaling\",\n"
               "  \"cores\": %u,\n  \"clients\": %d,\n"
               "  \"queries_per_config\": %d,\n  \"runs\": [\n",
               cores, conns, queries);
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(json,
                 "    {\"scenario\": \"%s\", \"executors\": %d, "
                 "\"requests_per_sec\": %.2f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"speedup\": %.3f}%s\n",
                 r.scenario.c_str(), r.executors, r.rps, r.p50_ms, r.p99_ms,
                 r.speedup, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_executor.json\n");
  return 0;
}
