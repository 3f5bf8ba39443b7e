#include <chrono>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "core/trainer.h"
#include "data/fmri_sim.h"
#include "data/lorenz96.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace e2e {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Training length and held-out length per model, in samples. The held-out
// part supplies every query window and the stream feed, so training data
// never reaches the server as a query.
constexpr int64_t kTrainLength = 400;
constexpr int kTrainEpochs = 8;

// Columns [begin, end) of an [N, L] series.
cf::Tensor Columns(const cf::Tensor& series, int64_t begin, int64_t end) {
  const int64_t n = series.dim(0), len = series.dim(1);
  cf::Tensor out = cf::Tensor::Zeros(cf::Shape{n, end - begin});
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * (end - begin), series.data() + i * len + begin,
                sizeof(float) * static_cast<size_t>(end - begin));
  }
  return out;
}

ModelSpec MakeSpec(const std::string& name, cf::data::Dataset dataset,
                   int64_t batch, uint64_t seed, const std::string& workdir) {
  ModelSpec spec;
  spec.name = name;
  spec.batch = batch;
  spec.mopt.num_series = dataset.num_series();  // T=16, d=32 defaults
  spec.truth = dataset.truth;
  const int64_t len = dataset.series.dim(1);
  spec.train = Columns(dataset.series, 0, kTrainLength);
  spec.feed = Columns(dataset.series, kTrainLength, len);
  spec.windows = cf::data::MakeWindows(spec.feed, spec.mopt.window, 1);

  cf::Rng rng(seed);
  cf::core::CausalityTransformer model(spec.mopt, &rng);
  cf::core::TrainOptions topt;
  topt.max_epochs = kTrainEpochs;
  topt.stride = 2;
  const double t0 = Now();
  const cf::core::TrainReport report =
      cf::core::TrainCausalityTransformer(&model, spec.train, topt, &rng);
  spec.train_s = Now() - t0;
  spec.epochs = report.epochs_run;
  spec.checkpoint = workdir + "/" + name + ".cfpm";
  const cf::Status st = cf::nn::SaveParameters(model, spec.checkpoint);
  CF_CHECK(st.ok()) << "checkpoint write: " << st.ToString();
  return spec;
}

}  // namespace

std::vector<ModelSpec> BuildModels(const std::string& workload,
                                   const std::string& workdir) {
  std::vector<ModelSpec> models;
  auto lorenz = [&](int64_t query_length) {
    cf::Rng rng(101);
    cf::data::Lorenz96Options o;
    o.num_series = 10;
    o.length = kTrainLength + query_length;
    return MakeSpec("lorenz", cf::data::GenerateLorenz96(o, &rng), 8, 102,
                    workdir);
  };
  if (workload == "detect_cold_1c") {
    models.push_back(lorenz(8000));
  } else if (workload == "detect_mixed_4c") {
    models.push_back(lorenz(8000));
    cf::Rng rng(201);
    cf::data::FmriOptions o;
    o.num_nodes = 5;
    o.length = kTrainLength + 8000;
    models.push_back(
        MakeSpec("fmri", cf::data::GenerateFmriSubject(o, &rng), 8, 202, workdir));
  } else if (workload == "hot_hits_4c") {
    cf::Rng rng(301);
    cf::data::SyntheticOptions o;
    o.length = kTrainLength + 2000;
    models.push_back(MakeSpec(
        "diamond",
        cf::data::GenerateSynthetic(cf::data::SyntheticStructure::kDiamond, o,
                                    &rng),
        32, 302, workdir));
  } else if (workload == "stream_follow") {
    models.push_back(lorenz(40000));
  }
  return models;
}

cf::Status LoadReferences(std::vector<ModelSpec>* models) {
  for (ModelSpec& spec : *models) {
    cf::Rng rng(0);
    spec.reference =
        std::make_unique<cf::core::CausalityTransformer>(spec.mopt, &rng);
    const cf::Status st =
        cf::nn::LoadParameters(spec.reference.get(), spec.checkpoint);
    if (!st.ok()) return st;
  }
  return cf::Status::Ok();
}

cf::Tensor GatherBatch(const ModelSpec& spec,
                       const std::vector<int64_t>& rows) {
  return cf::data::GatherWindows(spec.windows, rows);
}

std::string ValidateResult(const cf::core::DetectionResult& r, int n,
                           int64_t t) {
  if (r.scores.num_series() != n || r.graph.num_series() != n ||
      static_cast<int>(r.delays.size()) != n) {
    return "wrong node count";
  }
  for (int from = 0; from < n; ++from) {
    if (static_cast<int>(r.delays[from].size()) != n) return "ragged delays";
    for (int to = 0; to < n; ++to) {
      const int d = r.delays[from][to];
      if (d < 0 || d > t) return "delay out of [0, T]";
      if (!std::isfinite(r.scores.at(from, to))) return "non-finite score";
    }
  }
  for (const cf::CausalEdge& e : r.graph.edges()) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
      return "edge endpoint out of range";
    }
    if (e.delay < 0 || e.delay > t) return "edge delay out of [0, T]";
    if (!std::isfinite(e.score)) return "non-finite edge score";
  }
  return "";
}

bool SameResult(const cf::core::DetectionResult& a,
                const cf::core::DetectionResult& b) {
  const int n = a.scores.num_series();
  if (b.scores.num_series() != n || a.delays != b.delays) return false;
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      const double x = a.scores.at(from, to), y = b.scores.at(from, to);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  const auto& ea = a.graph.edges();
  const auto& eb = b.graph.edges();
  if (ea.size() != eb.size()) return false;
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].from != eb[i].from || ea[i].to != eb[i].to ||
        ea[i].delay != eb[i].delay ||
        std::memcmp(&ea[i].score, &eb[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace e2e
