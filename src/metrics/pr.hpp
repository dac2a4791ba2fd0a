#pragma once
// Precision-recall analysis and proper scoring rules, complementing the
// ROC/AUC module. On imbalanced selections (the realistic collider
// setting — signal is rare) PR curves are the more informative view.

#include <cstddef>
#include <vector>

namespace streambrain::metrics {

struct PrPoint {
  double recall;
  double precision;
  double threshold;
};

/// Precision-recall curve, thresholds descending; starts at the highest
/// score. Labels in {0,1}.
std::vector<PrPoint> pr_curve(const std::vector<double>& scores,
                              const std::vector<int>& labels);

/// Average precision (area under the PR curve by the step-wise
/// interpolation used by scikit-learn). Returns the positive base rate
/// when scores are uninformative.
double average_precision(const std::vector<double>& scores,
                         const std::vector<int>& labels);

}  // namespace streambrain::metrics
