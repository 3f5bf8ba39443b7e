// End-to-end loopback benchmark of the shipped server binary.
//
//   cf_e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's models (generate, train, checkpoint), spawns
// `serve_cli serve --port 0`, loads every model through the LoadModel frame,
// then drives the server over loopback TCP for --seconds with closed-loop
// client connections. Every response is validated; a seeded sample is
// compared bit for bit with the in-process detector on the same checkpoint.
// The last stdout line is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (a traced run also writes
// a chrome-trace span file and a per-layer table under .bench_results/).
// See e2ebench/README.md for the metric and workload catalog.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench.h"
#include "data/windowing.h"
#include "obs/trace.h"
#include "server_process.h"
#include "serve/inference_engine.h"
#include "tensor/allocator.h"
#include "tensor/simd.h"
#include "wire_conn.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 5;
constexpr double kHardLimitS = 170.0;
// Granularity of the host-steal correction of the timing estimates.
constexpr double kBlockS = 1.0;
// Shortest stretch of an op the steal correction scales (see its use).
constexpr double kStallMs = 1.0;
const char* const kWorkloads[] = {"detect_cold_1c", "detect_mixed_4c",
                                  "hot_hits_4c", "stream_follow"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || !(args->seconds > 0)) return false;
  return std::find(std::begin(kWorkloads), std::end(kWorkloads),
                   args->workload) != std::end(kWorkloads);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) /
                             static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Server-side counters at one instant of the timed phase.
struct Snapshot {
  double at = 0;
  bool ok = false;
  wire::StatsResultMsg stats;
  wire::MetricsResultMsg metrics;
  ProcSample proc;
};

Snapshot TakeSnapshot(WireConn* admin, const ServerProcess& server) {
  Snapshot s;
  s.at = Now();
  auto stats = admin->Stats();
  auto metrics = admin->Metrics();
  s.ok = stats.ok() && metrics.ok() && server.Sample(&s.proc);
  if (stats.ok()) s.stats = *stats;
  if (metrics.ok()) s.metrics = *metrics;
  return s;
}

// Sum of a histogram family's `sum` across label sets whose name contains
// `needle` (e.g. `kernel_seconds{kernel="matmul"`).
double HistSum(const Snapshot& s, const std::string& needle) {
  double total = 0;
  for (const auto& h : s.metrics.histograms) {
    if (h.name.find(needle) != std::string::npos) total += h.sum;
  }
  return total;
}

const wire::HistogramSummaryMsg* FindHist(const Snapshot& s,
                                          const std::string& name) {
  for (const auto& h : s.metrics.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The steady_clock time point of a Now() reading.
std::chrono::steady_clock::time_point AtTime(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

// Reads the host CPU counters at every kBlockS boundary of the timed phase
// and, in a traced run, the server's counters at the boundary where tracing
// starts, on a helper thread while the workers run.
class PhaseSampler {
 public:
  struct Point {
    bool ok = false;
    HostCpu host;
  };

  /// `snapshot_block` < 0: no mid-phase server snapshot.
  PhaseSampler(WireConn* admin, const ServerProcess* server, double start,
               int blocks, int snapshot_block)
      : points_(static_cast<size_t>(blocks) + 1),
        thread_([this, admin, server, start, snapshot_block] {
          std::unique_lock<std::mutex> lock(mu_);
          for (size_t k = 0; k < points_.size(); ++k) {
            if (cv_.wait_until(lock, AtTime(start + k * kBlockS),
                               [this] { return cancel_; })) {
              return;
            }
            points_[k].ok = ReadHostCpu(&points_[k].host);
            if (static_cast<int>(k) == snapshot_block) {
              mid_ = TakeSnapshot(admin, *server);
            }
          }
        }) {}
  ~PhaseSampler() { Finish(); }
  PhaseSampler(const PhaseSampler&) = delete;
  PhaseSampler& operator=(const PhaseSampler&) = delete;

  /// Stops sampling; points not reached stay !ok.
  void Finish() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        cancel_ = true;
      }
      cv_.notify_all();
      thread_.join();
    }
  }

  /// Valid after Finish().
  const std::vector<Point>& points() const { return points_; }
  const Snapshot& mid() const { return mid_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool cancel_ = false;
  std::vector<Point> points_;
  Snapshot mid_;
  std::thread thread_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Everything that makes results from two hosts incomparable.
std::string Fingerprint(const Args& args, int nproc, int server_threads) {
  const char* simd_env = std::getenv("CF_SIMD");
  std::string out = "{";
  out += "\"workload\": \"" + args.workload + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + Num(args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += ", \"nproc\": " + std::to_string(nproc);
  out += ", \"server_cf_num_threads\": " + std::to_string(server_threads);
  out += ", \"simd\": \"" +
         std::string(cf::simd::LevelName(cf::simd::ActiveLevel())) + "\"";
  out += ", \"cf_simd_env\": \"" + JsonEscape(simd_env ? simd_env : "") + "\"";
  out += ", \"compiler\": \"" + JsonEscape(__VERSION__) + "\"";
  out += ", \"build_type\": \"" CF_E2E_BUILD_TYPE "\"";
  out += ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\"";
  return out + "}";
}

// One replayed request: the detector phases of a served cache miss, timed
// in process on the same checkpoint.
struct Replay {
  size_t op = 0;
  double detect_ms = 0;
  std::map<std::string, double> phase_ms;
};

// The hard deadline: a run that has not ended by then kills the server and
// exits without a result line.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                            [this] { return done_; })) {
            KillAllServers();
            std::fprintf(stderr, "e2e: hard time limit reached\n");
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

void OnSignal(int) {
  KillAllServers();
  std::_Exit(130);
}

int Run(const Args& args) {
  const double start = Now();
  const fs::path root = fs::current_path();
  const fs::path work =
      root / ".bench_work" / (args.workload + "-" + std::to_string(::getpid()));
  // The run's scratch directory goes on every exit path, after the server
  // (declared later, so destroyed first) has been reaped.
  struct RemoveOnExit {
    fs::path path;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } remove_work{work};
  const fs::path results = root / ".bench_results";
  fs::create_directories(results);
  const int nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  // detect_mixed_4c's server runs each request on one thread. With the
  // 4-worker pool, every kernel of its concurrent batches fanned out to the
  // pool; on a shared VM those wake-ups waited for the host (steal 0.17-0.52
  // of the CPU asked for, against 0.001-0.15 in the same hour with one
  // thread), raw throughput was lower and ten-run spreads reached 0.29.
  const int server_threads =
      args.workload == "detect_mixed_4c" ? 1 : std::max(1, std::min(4, nproc));
  const std::string fingerprint = Fingerprint(args, nproc, server_threads);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  // ---- Set-up, repeated: generate, train, checkpoint, spawn, load, ping.
  std::vector<double> setup_s, setup_steal, train_s, load_ms;
  int epochs = 0;
  std::vector<ModelSpec> models;
  ServerProcess server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const fs::path dir = work / ("rep" + std::to_string(rep));
    fs::create_directories(dir);
    server.Stop();
    HostCpu host0;
    ReadHostCpu(&host0);
    const double t0 = Now();
    models = BuildModels(args.workload, dir.string());
    const ModelSpec& first = models[0];
    const std::vector<std::string> server_args = {
        "serve", "--port", "0", "--checkpoint", first.checkpoint,
        "--dump-dir", (dir / "dumps").string(),
        "--series", std::to_string(first.mopt.num_series),
        "--window", std::to_string(first.mopt.window),
        "--d_model", std::to_string(first.mopt.d_model),
        "--d_qk", std::to_string(first.mopt.d_qk),
        "--heads", std::to_string(first.mopt.heads),
        "--d_ffn", std::to_string(first.mopt.d_ffn)};
    cf::Status st = server.Start(CF_E2E_SERVER_BIN, server_args, dir.string(),
                                 server_threads, 60.0);
    WireConn admin;
    if (st.ok()) st = admin.Connect(server.port(), 30.0);
    for (const ModelSpec& spec : models) {
      if (!st.ok()) break;
      wire::LoadModelMsg load;
      load.name = spec.name;
      load.checkpoint_path = spec.checkpoint;
      load.options = spec.mopt;
      const double l0 = Now();
      auto loaded = admin.LoadModel(load);
      load_ms.push_back((Now() - l0) * 1e3);
      if (!loaded.ok()) st = loaded.status();
    }
    if (st.ok()) {
      auto pong = admin.Ping(0xC0FFEE);
      if (!pong.ok()) st = pong.status();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "e2e: set-up failed: %s\n", st.ToString().c_str());
      server.Stop();
      return 2;
    }
    setup_s.push_back(Now() - t0);
    HostCpu host1;
    ReadHostCpu(&host1);
    setup_steal.push_back(StealShare(host0, host1));
    double train = 0;
    for (const ModelSpec& spec : models) {
      train += spec.train_s;
      epochs += spec.epochs;
    }
    train_s.push_back(train);
  }
  epochs /= kSetupReps;
  if (cf::Status st = LoadReferences(&models); !st.ok()) {
    std::fprintf(stderr, "e2e: reference load: %s\n", st.ToString().c_str());
    return 2;
  }

  // ---- Warm-up: first-use costs and the hot working set stay out of timing.
  PhaseConfig cfg;
  cfg.port = server.port();
  cfg.seconds = args.seconds;
  cfg.trace = args.trace;
  cfg.seed = args.seed;
  cfg.server = &server;
  const bool stream = args.workload == "stream_follow";
  DetectPlan plan;
  WarmResults warm;
  if (!stream) {
    plan = MakePlan(args.workload, models, args.seed);
    if (cf::Status st = WarmUp(cfg, plan, models, &warm); !st.ok()) {
      std::fprintf(stderr, "e2e: warm-up failed: %s\n", st.ToString().c_str());
      return 2;
    }
  } else {
    // Windows of the training series: never part of the stream feed.
    WireConn conn;
    if (!conn.Connect(cfg.port, 30.0).ok()) return 2;
    const cf::Tensor train_windows =
        cf::data::MakeWindows(models[0].train, models[0].mopt.window, 16);
    for (int64_t i = 0; i < 4 && i < train_windows.dim(0); ++i) {
      if (!conn.Detect(models[0].name,
                       cf::data::GatherWindows(train_windows, {i}))
               .ok()) {
        std::fprintf(stderr, "e2e: stream warm-up failed\n");
        return 2;
      }
    }
  }

  double f1 = 0, f1_cross = 0;
  if (cf::Status st = EvaluateQuality(cfg.port, models, stream, &f1, &f1_cross);
      !st.ok()) {
    std::fprintf(stderr, "e2e: evaluation failed: %s\n", st.ToString().c_str());
    return 2;
  }
  const double warm_done = Now();
  // ---- Timed phase. A traced run measures its first half untraced and
  // records spans in the second; the gap between the halves is the tracing
  // overhead.
  WireConn admin;
  if (!admin.Connect(cfg.port, 30.0).ok()) return 2;
  // Scrapes must not eat the watchdog's budget when the server is wedged.
  admin.set_timeout(5.0);
  const int blocks = std::max(1, static_cast<int>(args.seconds / kBlockS));
  // A traced run's traced half starts on a whole second, where the sampler
  // scrapes the server's counters.
  const int split_block = args.trace ? std::max(1, blocks / 2) : -1;
  cfg.trace_from_s = args.trace ? split_block * kBlockS : 1e300;
  const Snapshot before = TakeSnapshot(&admin, server);
  PhaseResult phase;
  Snapshot mid;
  std::vector<PhaseSampler::Point> points;
  {
    cfg.start = Now();
    PhaseSampler sampler(&admin, &server, cfg.start, blocks, split_block);
    phase = stream ? RunStreamPhase(cfg, models[0])
                   : RunDetectPhase(cfg, plan, models, warm);
    sampler.Finish();
    points = sampler.points();
    mid = sampler.mid();
  }
  const Snapshot after = TakeSnapshot(&admin, server);
  ProcSample final_proc = after.proc;

  // ---- Bit-exact check of the sampled responses.
  int checked = 0, mismatched = 0;
  for (const Sample& s : phase.samples) {
    const OpRecord& op = phase.ops[s.op];
    const ModelSpec& spec = models[static_cast<size_t>(op.model)];
    const cf::core::DetectionResult ref =
        cf::core::DetectCausalGraph(*spec.reference, s.windows);
    bool same = true;
    if (s.edges_only) {
      const auto& a = ref.graph.edges();
      const auto& b = s.result.graph.edges();
      same = a.size() == b.size();
      for (size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].from == b[i].from && a[i].to == b[i].to &&
               a[i].delay == b[i].delay &&
               std::memcmp(&a[i].score, &b[i].score, sizeof(double)) == 0;
      }
    } else {
      same = SameResult(ref, s.result);
    }
    ++checked;
    if (!same) {
      ++mismatched;
      OpRecord& bad = phase.ops[s.op];
      bad.ok = false;
      bad.error = "differs from the in-process detector";
    }
  }

  const double checks_done = Now();
  // ---- Aggregate.
  const double split = cfg.trace_from_s;
  struct Agg {
    int64_t attempted = 0, failed = 0, ok = 0, hits = 0, dedups = 0, novel = 0;
    std::vector<double> rtt, engine, wire_self, batch, batch_exec;
  };
  // Ops sent in [from_s, to_s) of the phase.
  auto aggregate = [&](double from_s, double to_s) {
    Agg a;
    for (const OpRecord& op : phase.ops) {
      if (op.start_s < from_s || op.start_s >= to_s) continue;
      ++a.attempted;
      if (!op.ok) {
        ++a.failed;
        continue;
      }
      ++a.ok;
      a.hits += op.cache_hit ? 1 : 0;
      a.dedups += op.deduped ? 1 : 0;
      a.novel += (!op.cache_hit && !op.deduped) ? 1 : 0;
      a.rtt.push_back(op.rtt_ms);
      a.engine.push_back(op.engine_ms);
      if (!op.deduped) a.wire_self.push_back(op.rtt_ms - op.engine_ms);
      a.batch.push_back(op.batch_size);
      if (!op.cache_hit) a.batch_exec.push_back(op.batch_size);
    }
    return a;
  };
  const Agg whole = aggregate(-1, 1e300);
  // A traced run's per-layer metrics come from its traced second half.
  const Agg traced = aggregate(split, 1e300);

  // Workload-property guards.
  std::vector<std::string> guard_failures;
  if (args.workload == "detect_cold_1c" && (whole.hits > 0 || whole.dedups > 0)) {
    guard_failures.push_back("detect_cold_1c saw cache hits or dedup fan-ins");
  }
  if (args.workload == "hot_hits_4c" && whole.hits != whole.attempted) {
    guard_failures.push_back("hot_hits_4c had a timed op that missed");
  }
  if (phase.extras.server_died) guard_failures.push_back("server died");
  if (!phase.extras.note.empty()) {
    std::printf("note %s\n", phase.extras.note.c_str());
  }
  if (!before.ok || !after.ok) guard_failures.push_back("server scrape failed");
  std::printf(
      "workload %s: ops=%lld hit_share=%.4f dedup_share=%.4f "
      "novel_share=%.4f batch_size_mean=%.3f bitcheck=%d/%d\n",
      args.workload.c_str(), static_cast<long long>(whole.attempted),
      Ratio(whole.hits, whole.ok), Ratio(whole.dedups, whole.ok),
      Ratio(whole.novel, whole.ok), Mean(whole.batch), checked - mismatched, checked);

  const Snapshot& from = args.trace && mid.ok ? mid : before;
  const double ops = static_cast<double>(
      std::max<int64_t>(args.trace ? traced.ok : whole.ok, 1));
  std::vector<Metric> metrics;
  // Steal correction (README, "Host steal"): per second of the phase, the
  // share of the CPU time the guest asked for that the hypervisor gave to
  // other guests. Throughput counts ops per granted second, the part of an
  // op's latency beyond kStallMs is scaled by the granted share of the second
  // it started in, and each set-up time by the granted share of its own
  // interval.
  std::vector<double> steal(static_cast<size_t>(blocks), 0.0);
  double granted_s = 0;
  for (int k = 0; k < blocks; ++k) {
    const auto& a = points[static_cast<size_t>(k)];
    const auto& b = points[static_cast<size_t>(k) + 1];
    if (a.ok && b.ok) steal[static_cast<size_t>(k)] = StealShare(a.host, b.host);
    granted_s += (1 - steal[static_cast<size_t>(k)]) * kBlockS;
  }
  const double phase_steal =
      points.front().ok && points.back().ok
          ? StealShare(points.front().host, points.back().host)
          : 0;
  std::vector<double> corrected_rtt;
  std::vector<double> corrected_half[2];  // untraced, traced half
  std::vector<std::vector<double>> second_rtt(static_cast<size_t>(blocks));
  for (const OpRecord& op : phase.ops) {
    const int k = static_cast<int>(op.start_s / kBlockS);
    if (!op.ok || k >= blocks) continue;
    second_rtt[static_cast<size_t>(k)].push_back(op.rtt_ms);
    // Steal arrives as stalls of about a millisecond or more, so a shorter
    // op is seldom stolen from: only the part beyond kStallMs is scaled.
    const double share = steal[static_cast<size_t>(k)];
    corrected_rtt.push_back(op.rtt_ms - share * std::max(0.0, op.rtt_ms - kStallMs));
    corrected_half[op.start_s >= split ? 1 : 0].push_back(corrected_rtt.back());
  }
  // [steal share, ops started, p50 ms] per second, for the run record.
  std::string seconds_json = "[";
  for (int k = 0; k < blocks; ++k) {
    const auto& v = second_rtt[static_cast<size_t>(k)];
    seconds_json += std::string(k ? ", " : "") + "[" +
                    Num(steal[static_cast<size_t>(k)]) + ", " +
                    std::to_string(v.size()) + ", " + Num(Percentile(v, 0.5)) +
                    "]";
  }
  seconds_json += "]";
  std::vector<double> corrected_setup;
  for (size_t i = 0; i < setup_s.size(); ++i) {
    corrected_setup.push_back(setup_s[i] * (1 - setup_steal[i]));
  }
  std::printf("host steal %.3f of the CPU asked for over the phase (raw: "
              "%.6g ops/s, p50 %.6g ms, set-up %.6g s)\n",
              phase_steal, corrected_rtt.size() / (blocks * kBlockS),
              Percentile(whole.rtt, 0.5), Percentile(setup_s, 0.5));
  if (!args.trace) {
    metrics = {
        {"throughput_rps", corrected_rtt.size() / std::max(granted_s, 1e-9),
         "ops/s"},
        {"latency_p50_ms", Percentile(corrected_rtt, 0.50), "ms"},
        {"server_peak_rss_mb", final_proc.peak_rss_mib, "MiB"},
        {"f1", f1, "ratio"},
        {"setup_s", Percentile(corrected_setup, 0.5), "s"},
    };
  } else {
    // In-process replay of served cache misses through the batched detector.
    std::vector<size_t> misses;
    for (size_t i = 0; i < phase.ops.size(); ++i) {
      const OpRecord& op = phase.ops[i];
      if (op.ok && !op.cache_hit && !op.deduped && op.start_s >= split) {
        misses.push_back(i);
      }
    }
    const size_t kReplays = 24;
    std::vector<Replay> replays;
    const auto arena0 = cf::DetectArena()->stats();
    const double replay_t0 = Now();
    for (size_t k = 0; k < kReplays && k < misses.size(); ++k) {
      const size_t i = misses[(k * misses.size()) / std::min(kReplays, misses.size())];
      const OpRecord& op = phase.ops[i];
      const ModelSpec& spec = models[static_cast<size_t>(op.model)];
      const cf::Tensor windows =
          stream ? GatherBatch(spec, {op.batch_id})
                 : GatherBatch(spec, plan.batches[static_cast<size_t>(op.batch_id)].rows);
      cf::obs::PhaseCollector collector;
      collector.set_collect_kernels(false);
      Replay rep;
      rep.op = i;
      const double d0 = Now();
      {
        cf::obs::ScopedPhaseCollector scope(&collector);
        cf::core::DetectCausalGraphBatched(*spec.reference, {windows});
      }
      rep.detect_ms = (Now() - d0) * 1e3;
      double at_us = (d0 - replay_t0) * 1e6;
      phase.spans.push_back(Span{"replay.detect", 2, 0, at_us, rep.detect_ms * 1e3,
                                 "\"rid\":" + std::to_string(i) +
                                     ",\"engine_ms\":" + Num(op.engine_ms)});
      for (const auto& [name, seconds] : collector.phases()) {
        rep.phase_ms[name] += seconds * 1e3;
        // Phases interleave per target; the span shows each phase's total.
        phase.spans.push_back(Span{"replay." + name, 2, 0, at_us, seconds * 1e6,
                                   "\"rid\":" + std::to_string(i) +
                                       ",\"aggregated\":1"});
        at_us += seconds * 1e6;
      }
      replays.push_back(std::move(rep));
    }
    const auto arena1 = cf::DetectArena()->stats();
    auto phase_mean = [&](const char* name) {
      std::vector<double> v;
      for (const Replay& r : replays) {
        const auto it = r.phase_ms.find(name);
        v.push_back(it == r.phase_ms.end() ? 0 : it->second);
      }
      return Mean(v);
    };
    std::vector<double> detect_ms, share;
    int over_engine = 0;
    for (const Replay& r : replays) {
      double phases_ms = 0;
      for (const auto& [name, ms] : r.phase_ms) phases_ms += ms;
      detect_ms.push_back(r.detect_ms);
      share.push_back(Ratio(phases_ms, phase.ops[r.op].engine_ms));
      over_engine += phases_ms > phase.ops[r.op].engine_ms ? 1 : 0;
    }
    const auto d = [&](uint64_t wire::StatsResultMsg::*field) {
      return static_cast<double>(after.stats.*field - from.stats.*field);
    };
    const double cpu_user = after.proc.user_s - from.proc.user_s;
    const double cpu_sys = after.proc.sys_s - from.proc.sys_s;
    const double stride = static_cast<double>(cf::serve::kKernelSampleStride);
    const auto* queue = FindHist(after, "serve_queue_wait_seconds");
    int64_t stream_windows = 0;
    int64_t stream_hits = 0;
    for (const OpRecord& op : phase.ops) {
      if (op.start_s < split || !op.ok || (op.kind != 'a' && op.kind != 'b')) {
        continue;
      }
      ++stream_windows;
      stream_hits += op.cache_hit ? 1 : 0;
    }
    const double lookups = d(&wire::StatsResultMsg::cache_hits) +
                           d(&wire::StatsResultMsg::cache_misses);
    metrics = {
        {"latency_p99_ms", Percentile(traced.rtt, 0.99), "ms"},
        {"serve.wire.self_ms_p50", Percentile(traced.wire_self, 0.5), "ms"},
        // Two admin frames of the closing scrape land inside the window.
        {"serve.wire.frames_per_op",
         (d(&wire::StatsResultMsg::server_frames) - 2) / ops, "count"},
        {"serve.engine.latency_ms_p50", Percentile(traced.engine, 0.5), "ms"},
        {"serve.engine.latency_ms_p99", Percentile(traced.engine, 0.99), "ms"},
        {"serve.batcher.batch_size_mean", Mean(traced.batch_exec), "count"},
        {"serve.batcher.batches_per_op",
         d(&wire::StatsResultMsg::batch_batches) / ops, "count"},
        {"serve.batcher.queue_wait_ms_p50", queue ? queue->p50 * 1e3 : 0, "ms"},
        {"serve.batcher.queue_wait_ms_p99", queue ? queue->p99 * 1e3 : 0, "ms"},
        {"serve.batcher.rejected", d(&wire::StatsResultMsg::batch_rejected),
         "count"},
        {"serve.score_cache.hit_ratio",
         Ratio(d(&wire::StatsResultMsg::cache_hits), lookups), "ratio"},
        {"serve.inflight.dedup_ratio",
         d(&wire::StatsResultMsg::dedup_hits) / ops, "ratio"},
        {"serve.registry.load_ms", Percentile(load_ms, 0.5), "ms"},
        {"core.model.forward_ms", phase_mean("forward"), "ms"},
        {"tensor.autograd.backward_ms", phase_mean("backward"), "ms"},
        {"interpret.relevance_ms", phase_mean("relevance"), "ms"},
        {"graph.cluster_ms", phase_mean("cluster"), "ms"},
        {"core.detector.detect_ms_p50", Percentile(detect_ms, 0.5), "ms"},
        {"core.detector.share_of_engine", Percentile(share, 0.5), "ratio"},
        {"core.detector.replayed", static_cast<double>(replays.size()), "count"},
        {"core.detector.over_engine", static_cast<double>(over_engine), "count"},
        {"tensor.kernel.matmul_ms",
         (HistSum(after, "kernel_seconds{kernel=\"matmul\"") -
          HistSum(from, "kernel_seconds{kernel=\"matmul\"")) * stride * 1e3 / ops,
         "ms"},
        {"tensor.kernel.softmax_ms",
         (HistSum(after, "kernel_seconds{kernel=\"softmax\"") -
          HistSum(from, "kernel_seconds{kernel=\"softmax\"")) * stride * 1e3 / ops,
         "ms"},
        {"tensor.arena.pool_hit_ratio",
         Ratio(static_cast<double>(arena1.pool_hits - arena0.pool_hits),
               static_cast<double>(arena1.allocs - arena0.allocs)),
         "ratio"},
        {"tensor.arena.parent_allocs_per_op",
         Ratio(static_cast<double>(arena1.parent_allocs - arena0.parent_allocs),
               static_cast<double>(replays.size())),
         "count"},
        {"server_cpu_ms_per_op", (cpu_user + cpu_sys) * 1e3 / ops, "ms"},
        {"process.cpu_user_ms_per_op", cpu_user * 1e3 / ops, "ms"},
        {"process.cpu_sys_ms_per_op", cpu_sys * 1e3 / ops, "ms"},
        {"process.ctx_switches_vol_per_op",
         static_cast<double>(after.proc.ctx_vol - from.proc.ctx_vol) / ops,
         "count"},
        {"process.ctx_switches_invol_per_op",
         static_cast<double>(after.proc.ctx_invol - from.proc.ctx_invol) / ops,
         "count"},
        {"core.trainer.train_s", Percentile(train_s, 0.5), "s"},
        {"core.trainer.epoch_ms",
         Ratio(Percentile(train_s, 0.5) * 1e3, std::max(epochs, 1)), "ms"},
        {"stream.report_lag_ms_p50", stream ? Percentile(traced.wire_self, 0.5) : 0,
         "ms"},
        {"stream.cache_hit_ratio",
         Ratio(static_cast<double>(stream_hits),
               static_cast<double>(stream_windows)),
         "ratio"},
        {"stream.windows_dropped",
         static_cast<double>(phase.extras.stream_windows_dropped), "count"},
        {"stream.polls_per_window",
         Ratio(static_cast<double>(phase.extras.stream_polls),
               static_cast<double>(stream_windows)),
         "count"},
        {"workload.hit_share", Ratio(traced.hits, traced.ok), "ratio"},
        {"workload.dedup_share", Ratio(traced.dedups, traced.ok), "ratio"},
        {"workload.novel_share", Ratio(traced.novel, traced.ok), "ratio"},
        {"workload.batch_size_mean", Mean(traced.batch), "count"},
        {"failed_ratio", Ratio(traced.failed, traced.attempted), "ratio"},
        {"f1_cross", f1_cross, "ratio"},
        {"host.steal_share", phase_steal, "ratio"},
        {"bench.trace_overhead_p50_ms",
         Percentile(corrected_half[1], 0.5) - Percentile(corrected_half[0], 0.5),
         "ms"},
    };
    // Server counter deltas of the traced window as counter events.
    for (const Snapshot* s : {&from, &after}) {
      phase.spans.push_back(Span{
          "server.stats", 1, -1, (s->at - cfg.start) * 1e6, 0,
          "\"cache_hits\":" + std::to_string(s->stats.cache_hits) +
              ",\"cache_misses\":" + std::to_string(s->stats.cache_misses) +
              ",\"dedup_hits\":" + std::to_string(s->stats.dedup_hits) +
              ",\"frames\":" + std::to_string(s->stats.server_frames)});
    }
  }

  // ---- Verdict, files and the result line.
  const int64_t attempted = std::max<int64_t>(whole.attempted, 1);
  const bool correct = whole.failed == 0 && mismatched == 0 &&
                       guard_failures.empty() && whole.ok > 0;
  for (const std::string& g : guard_failures) {
    std::printf("guard FAILED: %s\n", g.c_str());
  }
  int shown = 0;
  for (const OpRecord& op : phase.ops) {
    if (!op.ok && shown++ < 5) std::printf("failed op: %s\n", op.error.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.trace) {
    // Reported with the per-layer set (see README); shown here for reading.
    std::printf("(latency_p99_ms %.6g ms over %zu ops, server_cpu_ms_per_op "
                "%.6g, failed_ratio %.6g, f1_cross %.6g)\n",
                Percentile(whole.rtt, 0.99), whole.rtt.size(),
                (after.proc.user_s + after.proc.sys_s - before.proc.user_s -
                 before.proc.sys_s) * 1e3 / ops,
                Ratio(whole.failed, whole.attempted), f1_cross);
  }
  std::printf("verdict %s (attempted %lld, failed %lld, bit-checked %d, "
              "mismatched %d)\n",
              correct ? "CORRECT" : "INCORRECT",
              static_cast<long long>(attempted),
              static_cast<long long>(whole.failed), checked, mismatched);

  const std::string stem = (results / (args.workload + "-seed" +
                                       std::to_string(args.seed) + "-trace" +
                                       std::to_string(args.trace ? 1 : 0)))
                               .string();
  const std::string line =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(whole.failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  {
    std::ofstream rec(stem + ".json");
    std::string guards = "[";
    for (size_t i = 0; i < guard_failures.size(); ++i) {
      guards += (i ? ", \"" : "\"") + JsonEscape(guard_failures[i]) + "\"";
    }
    guards += "]";
    rec << "{\"fingerprint\": " << fingerprint << ", \"result\": " << line
        << ", \"guard_failures\": " << guards
        << ", \"bitcheck\": {\"checked\": " << checked
        << ", \"mismatched\": " << mismatched << "}"
        << ", \"note\": \"" << JsonEscape(phase.extras.note) << "\""
        << ", \"host_steal\": " << Num(phase_steal)
        << ", \"setup_steal\": [";
    for (size_t i = 0; i < setup_steal.size(); ++i) {
      rec << (i ? ", " : "") << Num(setup_steal[i]);
    }
    // [steal share, ops started, p50 ms] per second of the phase.
    rec << "], \"seconds\": " << seconds_json << "}\n";
  }
  if (args.trace) {
    std::ofstream trace(stem + ".spans.json");
    trace << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < phase.spans.size(); ++i) {
      const Span& s = phase.spans[i];
      trace << (i ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"ph\": \""
            << (s.tid < 0 ? "C" : "X") << "\", \"pid\": " << s.pid
            << ", \"tid\": " << std::max(s.tid, 0) << ", \"ts\": " << Num(s.ts_us);
      if (s.tid >= 0) trace << ", \"dur\": " << Num(s.dur_us);
      trace << ", \"args\": {" << s.args << "}}";
    }
    trace << "\n], \"metadata\": " << fingerprint << "}\n";
    std::ofstream table(stem + ".layers.txt");
    for (const Metric& m : metrics) {
      char row[160];
      std::snprintf(row, sizeof(row), "%-36s %14.6g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
      table << row;
    }
  }
  server.Stop();
  std::fprintf(stderr,
               "e2e: wall %.2f s (set-up and warm-up %.2f, timed phase and "
               "checks %.2f)\n",
               Now() - start, warm_done - start, checks_done - warm_done);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cf_e2e_bench --workload "
                 "<detect_cold_1c|detect_mixed_4c|hot_hits_4c|stream_follow> "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGINT, e2e::OnSignal);
  ::signal(SIGTERM, e2e::OnSignal);
  e2e::Watchdog watchdog(e2e::kHardLimitS);
  return e2e::Run(args);
}
