#ifndef CAUSALFORMER_UTIL_TABLE_H_
#define CAUSALFORMER_UTIL_TABLE_H_

#include <string>
#include <vector>

/// \file
/// ASCII table rendering for the benchmark harness. Produces aligned,
/// paper-style tables such as:
///
///   Dataset      cMLP       cLSTM      ...  CausalFormer
///   -----------  ---------  ---------       ------------
///   Diamond      0.55±0.19  0.63±0.13  ...  0.68±0.08
///
/// Cells are strings so callers control the formatting (see MeanStd()).

namespace causalformer {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Renders with two-space column gaps and a separator under the header.
  std::string ToString() const;

  /// Renders as markdown (`| a | b |`).
  std::string ToMarkdown() const;

  int num_rows() const { return static_cast<int>(rows_.size()); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace causalformer

#endif  // CAUSALFORMER_UTIL_TABLE_H_
