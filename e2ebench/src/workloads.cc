#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "graph/metrics.h"
#include "util/rng.h"
#include "wire_conn.h"

namespace e2e {

namespace {

constexpr double kCallTimeoutS = 30.0;
// Served results kept for the in-process bit-exact check, per phase.
constexpr size_t kMaxSamples = 16;
// Spans kept per connection in a traced run; caps the span file of the
// cache-hit workload (tens of thousands of ops per second) at a few MB.
constexpr size_t kMaxSpans = 10000;

// Appends a batch of `model` with `batch` distinct rows that no earlier
// batch of the plan used in the same order.
int32_t AddNovel(int model, const ModelSpec& spec, cf::Rng* rng,
                 std::unordered_set<uint64_t>* seen, DetectPlan* plan) {
  const int64_t rows = spec.windows.dim(0);
  while (true) {
    Batch b;
    b.model = model;
    uint64_t h = 1469598103934665603ULL ^ static_cast<uint64_t>(model);
    for (int64_t i = 0; i < spec.batch; ++i) {
      b.rows.push_back(rng->UniformInt(rows));
      h = (h ^ static_cast<uint64_t>(b.rows.back())) * 1099511628211ULL;
    }
    if (!seen->insert(h).second) continue;
    plan->batches.push_back(std::move(b));
    return static_cast<int32_t>(plan->batches.size() - 1);
  }
}

// Fills the flags, validation and the engine-inside-RTT check of one op.
void CheckDetect(const wire::DetectResultMsg& r, const ModelSpec& spec,
                 OpRecord* rec) {
  rec->cache_hit = r.cache_hit;
  rec->deduped = r.deduped;
  rec->batch_size = r.batch_size;
  rec->engine_ms = r.latency_seconds * 1e3;
  rec->error = ValidateResult(r.result, static_cast<int>(spec.mopt.num_series),
                              spec.mopt.window);
  // A dedup follower reports its leader's latency (serve/inflight.cc), which
  // may predate the follower's own send; every other op's server time must
  // nest inside its round trip.
  if (rec->error.empty() && !r.deduped && rec->engine_ms > rec->rtt_ms) {
    rec->error = "server latency exceeds the client round trip";
  }
  rec->ok = rec->error.empty();
}

std::string SpanArgs(const OpRecord& rec, size_t rid) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"rid\":%zu,\"kind\":\"%c\",\"engine_ms\":%.4f,"
                "\"batch_size\":%d,\"cache_hit\":%d,\"deduped\":%d,\"ok\":%d",
                rid, rec.kind, rec.engine_ms, rec.batch_size,
                rec.cache_hit ? 1 : 0, rec.deduped ? 1 : 0, rec.ok ? 1 : 0);
  return buf;
}

// Client span around the wire call plus the server's share of it. The server
// reports only a duration, so its span is centred in the round trip.
void AddOpSpans(const OpRecord& rec, size_t rid, const char* name,
                std::vector<Span>* spans) {
  if (spans->size() >= kMaxSpans) return;
  Span client{name, 1, rec.conn, rec.start_s * 1e6, rec.rtt_ms * 1e3,
              SpanArgs(rec, rid)};
  spans->push_back(client);
  if (rec.ok) {
    const double wire_us = (rec.rtt_ms - rec.engine_ms) * 1e3;
    spans->push_back(Span{"serve.engine", 1, rec.conn,
                          client.ts_us + wire_us / 2, rec.engine_ms * 1e3,
                          "\"rid\":" + std::to_string(rid)});
  }
}

// Per-connection output, merged after the threads join.
struct WorkerOut {
  std::vector<OpRecord> ops;
  std::vector<Sample> samples;
  std::vector<Span> spans;
};

}  // namespace

DetectPlan MakePlan(const std::string& workload,
                    const std::vector<ModelSpec>& models, uint64_t seed) {
  DetectPlan plan;
  cf::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::unordered_set<uint64_t> seen;
  if (workload == "detect_cold_1c") {
    plan.connections = 1;
    plan.forbid_reuse = true;
    for (int i = 0; i < 4; ++i) {
      plan.warm.push_back(AddNovel(0, models[0], &rng, &seen, &plan));
    }
    for (int i = 0; i < 20000; ++i) {
      plan.sequence.push_back(AddNovel(0, models[0], &rng, &seen, &plan));
      plan.kinds.push_back('n');
    }
  } else if (workload == "detect_mixed_4c") {
    plan.connections = 4;
    std::vector<int32_t> hot;
    for (int m = 0; m < static_cast<int>(models.size()); ++m) {
      for (int i = 0; i < 2; ++i) {
        plan.warm.push_back(AddNovel(m, models[m], &rng, &seen, &plan));
      }
      for (int i = 0; i < 8; ++i) {
        hot.push_back(AddNovel(m, models[m], &rng, &seen, &plan));
      }
    }
    // Per draw: 40% a novel batch, 30% a hot-set repeat, 30% a novel batch
    // followed at once by its duplicate (in-flight dedup fan-in); about
    // 54% novel, 23% hot and 23% duplicate ops.
    while (plan.sequence.size() < 40000) {
      const int m = static_cast<int>(rng.UniformInt(
          static_cast<int64_t>(models.size())));
      const double u = rng.Uniform();
      if (u < 0.4) {
        plan.sequence.push_back(AddNovel(m, models[m], &rng, &seen, &plan));
        plan.kinds.push_back('n');
      } else if (u < 0.7) {
        plan.sequence.push_back(hot[static_cast<size_t>(
            m * 8 + rng.UniformInt(8))]);
        plan.kinds.push_back('h');
      } else {
        const int32_t id = AddNovel(m, models[m], &rng, &seen, &plan);
        plan.sequence.push_back(id);
        plan.kinds.push_back('n');
        plan.sequence.push_back(id);
        plan.kinds.push_back('d');
      }
    }
  } else if (workload == "hot_hits_4c") {
    plan.connections = 4;
    plan.wrap = true;
    plan.expect_hits = true;
    for (int i = 0; i < 64; ++i) {
      plan.warm.push_back(AddNovel(0, models[0], &rng, &seen, &plan));
    }
    for (int i = 0; i < (1 << 20); ++i) {
      plan.sequence.push_back(plan.warm[static_cast<size_t>(rng.UniformInt(64))]);
      plan.kinds.push_back('h');
    }
  }
  return plan;
}

cf::Status EvaluateQuality(uint16_t port, const std::vector<ModelSpec>& models,
                           bool single_windows, double* f1, double* f1_cross) {
  WireConn conn;
  cf::Status st = conn.Connect(port, kCallTimeoutS);
  if (!st.ok()) return st;
  constexpr int kBatches = 16;
  std::vector<double> with_self, cross;
  for (const ModelSpec& spec : models) {
    const int64_t batch = single_windows ? 1 : spec.batch;
    const int64_t span = spec.windows.dim(0) - batch - 1;
    for (int i = 0; i < kBatches; ++i) {
      // Consecutive rows from an odd start: the seeded plans draw random
      // rows, and the stream's windows start at multiples of 4.
      const int64_t first = (span * i / kBatches) | 1;
      std::vector<int64_t> rows;
      for (int64_t r = 0; r < batch; ++r) rows.push_back(first + r);
      auto res = conn.Detect(spec.name, GatherBatch(spec, rows));
      if (!res.ok()) return res.status();
      const std::string bad =
          ValidateResult(res->result, static_cast<int>(spec.mopt.num_series),
                         spec.mopt.window);
      if (!bad.empty()) return cf::Status::Internal("evaluation result: " + bad);
      with_self.push_back(
          cf::EvaluateGraph(spec.truth, res->result.graph, true).f1);
      cross.push_back(cf::EvaluateGraph(spec.truth, res->result.graph, false).f1);
    }
  }
  *f1 = std::accumulate(with_self.begin(), with_self.end(), 0.0) /
        static_cast<double>(with_self.size());
  *f1_cross = std::accumulate(cross.begin(), cross.end(), 0.0) /
              static_cast<double>(cross.size());
  return cf::Status::Ok();
}

cf::Status WarmUp(const PhaseConfig& cfg, const DetectPlan& plan,
                  const std::vector<ModelSpec>& models,
                  WarmResults* warm_results) {
  WireConn conn;
  cf::Status st = conn.Connect(cfg.port, kCallTimeoutS);
  if (!st.ok()) return st;
  for (const int32_t id : plan.warm) {
    const Batch& b = plan.batches[static_cast<size_t>(id)];
    const ModelSpec& spec = models[static_cast<size_t>(b.model)];
    auto r = conn.Detect(spec.name, GatherBatch(spec, b.rows));
    if (!r.ok()) return r.status();
    const std::string bad = ValidateResult(
        r->result, static_cast<int>(spec.mopt.num_series), spec.mopt.window);
    if (!bad.empty()) return cf::Status::Internal("warm-up result: " + bad);
    warm_results->emplace(id, std::move(r->result));
  }
  return cf::Status::Ok();
}

PhaseResult RunDetectPhase(const PhaseConfig& cfg, const DetectPlan& plan,
                           const std::vector<ModelSpec>& models,
                           const WarmResults& warm) {
  // Batches the hot workload cycles through are built once; the others are
  // gathered per op before its send time.
  std::unordered_map<int32_t, cf::Tensor> prebuilt;
  if (plan.wrap) {
    for (const int32_t id : plan.warm) {
      const Batch& b = plan.batches[static_cast<size_t>(id)];
      prebuilt.emplace(id, GatherBatch(models[static_cast<size_t>(b.model)],
                                       b.rows));
    }
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> died{false};
  const size_t sample_stride = plan.wrap ? 4096 : 23;
  const size_t sample_offset = static_cast<size_t>(cfg.seed % sample_stride);
  std::vector<WorkerOut> outs(static_cast<size_t>(plan.connections));
  const double t0 = cfg.start;
  const double deadline = t0 + cfg.seconds;

  auto worker = [&](int conn_id) {
    WorkerOut& out = outs[static_cast<size_t>(conn_id)];
    WireConn conn;
    if (!conn.Connect(cfg.port, kCallTimeoutS).ok()) {
      died = true;
      return;
    }
    while (!stop && Now() < deadline) {
      size_t pos = next.fetch_add(1);
      if (pos >= plan.sequence.size()) {
        if (!plan.wrap) break;
        pos %= plan.sequence.size();
      }
      const int32_t id = plan.sequence[pos];
      const Batch& b = plan.batches[static_cast<size_t>(id)];
      const ModelSpec& spec = models[static_cast<size_t>(b.model)];
      const auto found = prebuilt.find(id);
      const cf::Tensor windows =
          found != prebuilt.end() ? found->second : GatherBatch(spec, b.rows);
      OpRecord rec;
      rec.conn = conn_id;
      rec.model = b.model;
      rec.batch_id = id;
      rec.kind = plan.kinds[pos];
      const double send = Now();
      rec.start_s = send - t0;
      auto r = conn.Detect(spec.name, windows);
      rec.rtt_ms = (Now() - send) * 1e3;
      if (!r.ok()) {
        rec.error = r.status().ToString();
      } else {
        CheckDetect(*r, spec, &rec);
        if (rec.ok && plan.expect_hits) {
          const auto w = warm.find(id);
          if (!r->cache_hit) {
            rec.error = "timed op missed the pre-warmed cache";
          } else if (w == warm.end() || !SameResult(w->second, r->result)) {
            rec.error = "cache hit differs from the warm-up result";
          }
          rec.ok = rec.error.empty();
        }
        if (rec.ok && plan.forbid_reuse && (r->cache_hit || r->deduped)) {
          rec.error = "cold op was answered by the cache or dedup";
          rec.ok = false;
        }
        if (rec.ok && pos % sample_stride == sample_offset &&
            out.samples.size() < kMaxSamples) {
          out.samples.push_back(
              Sample{out.ops.size(), windows, std::move(r->result), false});
        }
      }
      if (cfg.trace && rec.start_s >= cfg.trace_from_s) AddOpSpans(rec, pos, "client.detect", &out.spans);
      out.ops.push_back(std::move(rec));
      if (!conn.connected()) {
        // A timeout or a dropped connection: carry on if the server lives.
        if (!cfg.server->Alive() ||
            !conn.Connect(cfg.port, kCallTimeoutS).ok()) {
          died = true;
          stop = true;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < plan.connections; ++c) threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();

  PhaseResult result;
  for (WorkerOut& out : outs) {
    const size_t base = result.ops.size();
    for (Sample& s : out.samples) {
      s.op += base;
      result.samples.push_back(std::move(s));
    }
    for (OpRecord& op : out.ops) result.ops.push_back(std::move(op));
    result.spans.insert(result.spans.end(), out.spans.begin(), out.spans.end());
  }
  result.extras.server_died = died;
  if (!plan.wrap && next.load() >= plan.sequence.size()) {
    result.extras.note = "request plan exhausted before the deadline";
  }
  return result;
}

PhaseResult RunStreamPhase(const PhaseConfig& cfg, const ModelSpec& spec) {
  PhaseResult result;
  const int64_t width = spec.mopt.window;
  const int64_t chunk_len = 4;
  // A emits a window per chunk; B, one chunk behind with stride 8, emits
  // every other window of A's sequence. Two thirds of the windows are
  // detector misses and one third cache hits, so the latency median lies
  // inside the miss mode instead of between the two modes.
  const int64_t strides[2] = {4, 8};
  const char* names[2] = {"A", "B"};
  const int64_t n = spec.mopt.num_series;
  const int64_t feed_len = spec.feed.dim(1);
  auto chunk = [&](int64_t begin, int64_t len) {
    cf::Tensor out = cf::Tensor::Zeros(cf::Shape{n, len});
    for (int64_t i = 0; i < n; ++i) {
      std::copy_n(spec.feed.data() + i * feed_len + begin, len,
                  out.data() + i * len);
    }
    return out;
  };
  WireConn conn;
  auto fail_all = [&](const std::string& why) {
    OpRecord rec;
    rec.kind = 'a';
    rec.error = why;
    result.ops.push_back(rec);
    result.extras.server_died = !cfg.server->Alive();
    return result;
  };
  if (cf::Status st = conn.Connect(cfg.port, kCallTimeoutS); !st.ok()) {
    return fail_all(st.ToString());
  }
  int64_t total[2] = {0, 0};    // samples appended per stream
  int64_t emitted[2] = {0, 0};  // windows due per stream
  for (int s = 0; s < 2; ++s) {
    wire::StreamOpenMsg open;
    open.stream = names[s];
    open.model = spec.name;
    open.window = width;
    open.stride = strides[s];
    auto ok = conn.OpenStream(open);
    if (!ok.ok()) return fail_all(ok.status().ToString());
    // Prime both streams to one chunk short of their first window.
    total[s] = width - chunk_len;
    auto appended = conn.Append(names[s], chunk(0, total[s]));
    if (!appended.ok()) return fail_all(appended.status().ToString());
  }

  // Step j appends the next chunk to A and, from step 1 on, the chunk A got
  // one step earlier to B; then it polls both streams until every window the
  // appends made due is reported. B's windows were computed by A a step
  // earlier, so they come from the cache through the rolling window hash.
  const double t0 = cfg.start;
  const double deadline = t0 + cfg.seconds;
  const size_t sample_stride = 29;
  const size_t sample_offset = static_cast<size_t>(cfg.seed % sample_stride);
  for (int64_t j = 0; total[0] + chunk_len <= feed_len && Now() < deadline;
       ++j) {
    struct Pending {
      int stream;
      uint64_t index;
      double sent;
      size_t op;
    };
    std::vector<Pending> pending;
    for (int s = 0; s < 2; ++s) {
      if (j - s < 0) continue;
      const double sent = Now();
      auto ack = conn.Append(names[s], chunk(total[s], chunk_len));
      total[s] += chunk_len;
      if (!ack.ok()) {
        OpRecord rec;
        rec.kind = s == 0 ? 'a' : 'b';
        rec.start_s = sent - t0;
        rec.error = ack.status().ToString();
        result.ops.push_back(rec);
        if (!conn.connected()) {
          result.extras.server_died = !cfg.server->Alive();
          return result;
        }
        continue;
      }
      result.extras.stream_windows_dropped =
          std::max<int64_t>(result.extras.stream_windows_dropped,
                            static_cast<int64_t>(ack->windows_dropped));
      for (; emitted[s] * strides[s] + width <= total[s]; ++emitted[s]) {
        OpRecord rec;
        rec.kind = s == 0 ? 'a' : 'b';
        rec.batch_id = emitted[s] * strides[s];  // the window's first sample
        rec.start_s = sent - t0;
        pending.push_back(Pending{s, static_cast<uint64_t>(emitted[s]), sent,
                                  result.ops.size()});
        result.ops.push_back(rec);
      }
    }
    const double wait_until = Now() + kCallTimeoutS;
    while (!pending.empty()) {
      if (Now() > wait_until) {
        for (const Pending& p : pending) {
          result.ops[p.op].error = "window not reported before the deadline";
        }
        break;
      }
      for (int s = 0; s < 2; ++s) {
        bool waiting = false;
        for (const Pending& p : pending) waiting |= p.stream == s;
        if (!waiting) continue;
        ++result.extras.stream_polls;
        auto reports = conn.Reports(names[s]);
        const double got = Now();
        if (!reports.ok()) {
          for (Pending& p : pending) {
            if (p.stream == s) result.ops[p.op].error = reports.status().ToString();
          }
          pending.erase(std::remove_if(pending.begin(), pending.end(),
                                       [s](const Pending& p) {
                                         return p.stream == s;
                                       }),
                        pending.end());
          if (!conn.connected()) {
            result.extras.server_died = !cfg.server->Alive();
            return result;
          }
          continue;
        }
        for (const wire::StreamReportMsg& rep : *reports) {
          auto it = std::find_if(pending.begin(), pending.end(),
                                 [&](const Pending& p) {
                                   return p.stream == s &&
                                          p.index == rep.window_index;
                                 });
          if (it == pending.end()) continue;  // unexpected: left unmatched
          OpRecord& rec = result.ops[it->op];
          rec.rtt_ms = (got - it->sent) * 1e3;
          rec.engine_ms = rep.latency_seconds * 1e3;
          rec.cache_hit = rep.cache_hit;
          rec.deduped = rep.deduped;
          rec.batch_size = rep.batch_size;
          cf::core::DetectionResult r(rep.num_series);
          std::string bad;
          if (rep.window_start !=
              static_cast<int64_t>(rep.window_index) * strides[s]) {
            bad = "report window_start does not match its index";
          }
          for (const cf::CausalEdge& e : rep.edges) {
            if (e.from < 0 || e.from >= rep.num_series || e.to < 0 ||
                e.to >= rep.num_series) {
              bad = "edge endpoint out of range";
              break;
            }
            r.graph.AddEdge(e.from, e.to, e.delay, e.score);
          }
          if (bad.empty()) {
            bad = rep.num_series == n
                      ? ValidateResult(r, static_cast<int>(n), width)
                      : "wrong node count";
          }
          if (bad.empty() && rec.engine_ms > rec.rtt_ms) {
            bad = "server latency exceeds the append-to-report time";
          }
          rec.error = bad;
          rec.ok = bad.empty();
          if (rec.ok && it->op % sample_stride == sample_offset &&
              result.samples.size() < kMaxSamples) {
            result.samples.push_back(Sample{
                it->op, GatherBatch(spec, {rec.batch_id}), std::move(r), true});
          }
          if (cfg.trace && rec.start_s >= cfg.trace_from_s) {
            AddOpSpans(rec, it->op, "client.stream_window", &result.spans);
          }
          pending.erase(it);
        }
      }
      if (!pending.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  if (total[0] + chunk_len > feed_len) {
    result.extras.note = "stream feed exhausted before the deadline";
  }
  for (OpRecord& op : result.ops) {
    if (!op.ok && op.error.empty()) op.error = "window never reported";
  }
  return result;
}

}  // namespace e2e
