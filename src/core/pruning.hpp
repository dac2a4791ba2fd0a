#pragma once
// Magnitude-based structural pruning. Trained BCPNN weight matrices are
// dominated by near-zero log-ratio entries (independent input/output
// pairs have p_ij ~ p_i p_j, i.e. w ~ 0); dropping the smallest-|w|
// entries barely moves the support sums but is what turns the sparse
// inference path (tensor::CsrMatrix + spmv/spmm) into a real speedup
// and a real memory win.
//
// Two ways in:
//   - prune_model(model, density): one-shot post-training prune of every
//     hidden layer and the read-out head;
//   - set_option("prune_density", d) + set_option("prune_cadence", k)
//     before compile(): in-training prune/rewire — the keep-mask is
//     re-selected from fresh magnitudes every k epochs (hooked after the
//     structural-plasticity step for the hidden layer and after each
//     supervised epoch for the head, either type), so pruned-then-regrown
//     connections can displace weaker survivors.
// Both end in Weights::prune_to_density on every component.
//
// Pruning keeps the model dense in memory (zeros in place, masks pinned
// across weight recomputation); Model::sparsify() is the step that
// compacts the zeros away.

namespace streambrain::core {

class Model;

/// Prune every hidden layer and the head of a compiled model to the
/// given keep density (magnitude-based, per component). The model stays
/// dense and trainable — further fit() calls keep the masks; call
/// Model::sparsify() afterwards for the compact read-only form. Throws
/// std::logic_error for un-compiled or already-sparsified models.
void prune_model(Model& model, double density);

/// Density at and above which the sparse kernels measurably LOSE to the
/// dense GEMM path. BENCH_sparse.json: at 25% density spmm reaches only
/// 0.70x (scalar) / 0.47x (AVX2) of the dense throughput, and every
/// tier loses from 50% up — the gather/index overhead needs enough
/// skipped multiplies to pay for itself.
inline constexpr double kSparsePessimizationDensity = 0.25;

/// True when sparsifying at this weight density is expected to be a
/// throughput pessimization (Model::sparsify() warns through util::log
/// when it proceeds anyway — the memory win may still be worth it).
[[nodiscard]] inline bool sparsify_is_pessimization(double density) noexcept {
  return density >= kSparsePessimizationDensity;
}

}  // namespace streambrain::core
