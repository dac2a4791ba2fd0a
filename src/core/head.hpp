#pragma once
// The single public read-out (head) enum. Every layer of the stack —
// NetworkConfig, the Model builder, serialization — speaks this one type.
//
//   kBcpnn : supervised BCPNN classification layer ("pure BCPNN")
//   kSgd   : softmax-regression read-out trained by SGD on the frozen
//            hidden code ("BCPNN+SGD", the paper's best configuration)
//
// Both heads turn their [batch x classes] probabilities into labels and
// scores through the two helpers below.

#include <cstddef>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace streambrain::core {

enum class HeadType { kBcpnn, kSgd };

/// Short lowercase tag ("bcpnn" / "sgd") for summaries and logs.
constexpr const char* head_name(HeadType head) noexcept {
  return head == HeadType::kBcpnn ? "bcpnn" : "sgd";
}

/// The argmax class of every row of a head's probabilities.
inline std::vector<int> predicted_labels(const tensor::MatrixF& probs) {
  std::vector<std::size_t> best(probs.rows());
  tensor::argmax_rows(probs, best.data());
  return std::vector<int>(best.begin(), best.end());
}

/// P(class == 1) of every row — the binary score AUC reads.
inline std::vector<double> positive_scores(const tensor::MatrixF& probs) {
  std::vector<double> scores(probs.rows());
  for (std::size_t r = 0; r < probs.rows(); ++r) scores[r] = probs(r, 1);
  return scores;
}

}  // namespace streambrain::core
