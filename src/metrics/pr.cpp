#include "metrics/pr.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace streambrain::metrics {

std::vector<PrPoint> pr_curve(const std::vector<double>& scores,
                              const std::vector<int>& labels) {
  if (scores.size() != labels.size()) {
    throw std::invalid_argument("pr_curve: size mismatch");
  }
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  std::size_t positives = 0;
  for (int label : labels) positives += label == 1 ? 1 : 0;

  std::vector<PrPoint> curve;
  std::size_t tp = 0;
  std::size_t selected = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    ++selected;
    if (labels[i] == 1) ++tp;
    const bool boundary =
        k + 1 == order.size() || scores[order[k + 1]] != scores[i];
    if (!boundary) continue;
    curve.push_back(
        {positives ? static_cast<double>(tp) / positives : 0.0,
         static_cast<double>(tp) / static_cast<double>(selected), scores[i]});
  }
  return curve;
}

double average_precision(const std::vector<double>& scores,
                         const std::vector<int>& labels) {
  const auto curve = pr_curve(scores, labels);
  double ap = 0.0;
  double previous_recall = 0.0;
  for (const auto& point : curve) {
    ap += (point.recall - previous_recall) * point.precision;
    previous_recall = point.recall;
  }
  return ap;
}

}  // namespace streambrain::metrics
