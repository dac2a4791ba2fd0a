#pragma once
// The single public read-out (head) enum. Every layer of the stack —
// NetworkConfig, the Model builder, serialization — speaks this one type.
//
//   kBcpnn : supervised BCPNN classification layer ("pure BCPNN")
//   kSgd   : softmax-regression read-out trained by SGD on the frozen
//            hidden code ("BCPNN+SGD", the paper's best configuration)

namespace streambrain::core {

enum class HeadType { kBcpnn, kSgd };

/// Short lowercase tag ("bcpnn" / "sgd") for summaries and logs.
constexpr const char* head_name(HeadType head) noexcept {
  return head == HeadType::kBcpnn ? "bcpnn" : "sgd";
}

}  // namespace streambrain::core
