// fMRI brain-network discovery: runs CausalFormer on simulated BOLD subjects
// (NetSim-style; see src/data/fmri_sim.h for the substitution) and reports
// per-subject and aggregate F1, mirroring the realistic row of Table 1 and
// the Fig. 8 case study.
//
// Run: ./build/fmri_discovery          (after cmake --build build -j)

#include <cstdio>

#include "core/causalformer.h"
#include "data/fmri_sim.h"
#include "eval/report.h"
#include "graph/metrics.h"

namespace cf = causalformer;

int main() {
  cf::Rng rng(11);

  const int kSubjects = 3;
  const int kSizes[kSubjects] = {5, 10, 15};
  std::vector<double> f1s;

  for (int s = 0; s < kSubjects; ++s) {
    cf::data::FmriOptions data_options;
    data_options.num_nodes = kSizes[s];
    data_options.length = 160;
    cf::Rng subject_rng = rng.Split();
    const cf::data::Dataset subject =
        GenerateFmriSubject(data_options, &subject_rng);

    cf::core::CausalFormerOptions options =
        cf::core::CausalFormerOptions::ForSeries(subject.num_series(),
                                                 /*window=*/12);
    options.train.max_epochs = 20;
    options.train.stride = 2;
    cf::core::CausalFormer model(options, &subject_rng);
    model.Fit(subject.series, &subject_rng);
    const cf::core::DetectionResult result = model.Discover();

    const cf::PrfScores scores = EvaluateGraph(subject.truth, result.graph);
    f1s.push_back(scores.f1);
    std::printf("subject %d (N=%d): precision=%.2f recall=%.2f F1=%.2f\n", s,
                kSizes[s], scores.precision, scores.recall, scores.f1);

    if (kSizes[s] == 15) {
      // Fig. 8-style edge classification for the 15-node subject.
      const auto cls = cf::eval::ClassifyEdges(subject.truth, result.graph,
                                               /*include_self=*/false);
      std::printf("%s\n",
                  RenderEdgeClassification("CausalFormer", scores.f1, cls)
                      .c_str());
    }
  }

  std::printf("\naggregate F1 over %d subjects: %s (paper fMRI row: "
              "0.66\xC2\xB1"
              "0.09)\n",
              kSubjects, cf::eval::MetricCell(f1s).c_str());
  return 0;
}
