// Detector bit-identity digest: prints one CRC-32 per case of a fixed matrix
// over the detector's whole output — scores as raw f64, delays, and the
// graph's edges. Two builds that detect identically print identical lines,
// so a performance change that claims "same behaviour" is checked with
//
//   ./detect_digest > before.txt   (built at the parent commit)
//   ./detect_digest > after.txt    (built at the change)
//   diff before.txt after.txt
//
// run at the same CF_SIMD level and, ideally, at CF_NUM_THREADS=1 and 4.
// Digests differ across SIMD levels (vector kernels reassociate sums), so
// they are compared between builds on one host, never against stored values.
//
// Matrix: seeded random models (multi-kernel and shared-kernel, two
// geometries) x six detector settings (full, w/o interpretation, w/o
// relevance, w/o gradient, w/o bias absorption, 3 clusters) x single- and
// two-request batches.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "tensor/simd.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace cf = causalformer;

namespace {

struct Geometry {
  int64_t n;
  int64_t window;
  int64_t d_model;
  uint64_t seed;
};

struct Setting {
  const char* name;
  cf::core::DetectorOptions options;
};

std::vector<Setting> Settings() {
  std::vector<Setting> settings;
  settings.push_back({"full", {}});
  cf::core::DetectorOptions o;
  o.use_interpretation = false;
  settings.push_back({"no_interpretation", o});
  o = {};
  o.use_relevance = false;
  settings.push_back({"no_relevance", o});
  o = {};
  o.use_gradient = false;
  settings.push_back({"no_gradient", o});
  o = {};
  o.bias_absorption = false;
  settings.push_back({"no_bias", o});
  o = {};
  o.num_clusters = 3;
  settings.push_back({"clusters3", o});
  return settings;
}

uint32_t Digest(const cf::core::DetectionResult& result, uint32_t crc) {
  const int n = result.scores.num_series();
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      const double score = result.scores.at(from, to);
      const int32_t delay = result.delays[from][to];
      crc = cf::Crc32(&score, sizeof(score), crc);
      crc = cf::Crc32(&delay, sizeof(delay), crc);
    }
  }
  for (const cf::CausalEdge& e : result.graph.edges()) {
    const int32_t ends[3] = {e.from, e.to, e.delay};
    crc = cf::Crc32(ends, sizeof(ends), crc);
    crc = cf::Crc32(&e.score, sizeof(e.score), crc);
  }
  return crc;
}

}  // namespace

int main() {
  std::printf("# detect_digest simd=%s\n",
              cf::simd::LevelName(cf::simd::ActiveLevel()));
  const std::vector<Geometry> geometries = {{6, 8, 16, 11}, {10, 16, 32, 12}};
  const std::vector<Setting> settings = Settings();
  for (const Geometry& g : geometries) {
    for (const bool multi_kernel : {true, false}) {
      cf::Rng rng(g.seed);
      cf::core::ModelOptions mopt;
      mopt.num_series = g.n;
      mopt.window = g.window;
      mopt.d_model = g.d_model;
      mopt.d_qk = g.d_model;
      mopt.heads = 2;
      mopt.d_ffn = g.d_model;
      mopt.multi_kernel = multi_kernel;
      const cf::core::CausalityTransformer model(mopt, &rng);
      const std::vector<cf::Tensor> batches = {
          cf::Tensor::Randn(cf::Shape{5, g.n, g.window}, &rng),
          cf::Tensor::Randn(cf::Shape{3, g.n, g.window}, &rng)};
      for (const Setting& s : settings) {
        for (const size_t requests : {size_t{1}, size_t{2}}) {
          const std::vector<cf::Tensor> input(batches.begin(),
                                              batches.begin() + requests);
          uint32_t crc = 0;
          for (const cf::core::DetectionResult& r :
               cf::core::DetectCausalGraphBatched(model, input, s.options)) {
            crc = Digest(r, crc);
          }
          std::printf("n%lld_d%lld_%s_%s_req%zu %08x\n",
                      static_cast<long long>(g.n),
                      static_cast<long long>(g.d_model),
                      multi_kernel ? "multi" : "shared", s.name, requests,
                      crc);
        }
      }
    }
  }
  return 0;
}
