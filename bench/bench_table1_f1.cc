// Regenerates Table 1 of the paper: overall F1-score (mean ± std) of cMLP,
// cLSTM, TCDF, DVGNN, CUTS and CausalFormer on the four synthetic structures,
// Lorenz96 and the (simulated) fMRI benchmark.
//
// Environment knobs: CF_SEEDS (realisations per row, default 3), CF_FAST=1
// (smoke sizes). Absolute numbers differ from the paper (different data
// realisations, CPU-scaled models); the comparison shape is the target.

#include <cstdio>

#include "eval/experiment.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace cf = causalformer;

int main() {
  const cf::eval::ExperimentBudget budget =
      cf::eval::ExperimentBudget::FromEnv();
  std::printf(
      "Table 1: overall F1-score (mean±std) per method and dataset\n"
      "(seeds=%d%s)\n\n",
      budget.seeds, budget.fast ? ", fast mode" : "");

  std::vector<std::string> headers = {"Dataset"};
  for (const auto method : cf::eval::AllMethodIds()) {
    headers.push_back(ToString(method));
  }
  cf::Table table(headers);

  cf::Stopwatch total;
  for (const auto kind : cf::eval::AllDatasetKinds()) {
    const auto datasets = MakeDatasets(kind, budget, /*seed=*/1234);
    std::vector<std::string> row = {ToString(kind)};
    for (const auto method : cf::eval::AllMethodIds()) {
      cf::Stopwatch timer;
      const cf::eval::RunMetrics metrics =
          RunMethod(method, kind, datasets, budget, /*seed=*/99);
      row.push_back(cf::eval::MetricCell(metrics.f1));
      std::fprintf(stderr, "  [%s / %s] F1=%s  (%.1fs)\n",
                   ToString(kind).c_str(), ToString(method).c_str(),
                   cf::eval::MetricCell(metrics.f1).c_str(),
                   timer.ElapsedSeconds());
    }
    table.AddRow(row);
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf("total wall time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
