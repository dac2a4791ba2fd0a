#pragma once
// Data-parallel BCPNN training over the comm substrate — the pattern of
// StreamBrain's MPI backend. Because BCPNN learning is local, the only
// state that must be synchronized is the probability traces (plus the
// read-out head's state): each rank trains on its shard and the ranks
// exchange one reduction per batch; weights are recomputed locally from
// the synchronized traces. Section II-B's claim — "one can conceptually
// launch different BCPNN instances and scale horizontally without the
// limiting factor on communication" — is exactly what bench_scaling
// measures with this trainer.
//
// DistributedTrainer trains *full* models (every hidden BCPNN layer + BCPNN
// or SGD read-out head) and is rank-count invariant by
// construction: every global batch is partitioned into a fixed number of
// *virtual shards* (independent of the rank count), each rank computes
// the partial batch statistics of the virtual shards it owns, one
// zero-padded allreduce exchanges them (exact — the shards' slots are
// disjoint, so every addition is x + 0), and every rank then combines the
// shards in fixed order and applies the identical update. The result is
// bit-identical at 1, 2, 3, 4, ... ranks as long as `virtual_shards`
// stays fixed.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "tensor/matrix.hpp"

namespace streambrain::core {

struct DistributedOptions {
  /// Rank threads when fit() runs the world itself.
  int ranks = 1;
  /// Transport the ranks communicate over. kInProcess (default) uses the
  /// original mailbox substrate; kShm and kTcp run the same schedules
  /// over a real shared-memory segment / loopback TCP mesh — results are
  /// bit-identical, only the wire (and wire_bytes accounting) changes.
  comm::Backend backend = comm::Backend::kInProcess;
  /// Allreduce algorithm used for every synchronization; changes the
  /// communication pattern and byte accounting, never the result.
  comm::AllreduceAlgorithm algorithm = comm::AllreduceAlgorithm::kFlat;
  /// Batches between synchronizations. 1 (default) is the exact mode:
  /// one statistics reduction per batch, bit-identical across rank
  /// counts. k >= 2 trades fidelity for k-fold less traffic: ranks apply
  /// local updates and average traces/weights every k-th batch (plus at
  /// every epoch end, so structural plasticity stays rank-synchronized).
  /// Still deterministic, but dependent on (ranks, sync_cadence).
  std::size_t sync_cadence = 1;
  /// Fixed data decomposition width for the exact mode. Results are
  /// invariant to the rank count but NOT to this value; any rank count
  /// (including ranks > virtual_shards) is supported. Reproducibility has
  /// a bandwidth price: the exact mode's per-batch payload is
  /// virtual_shards * the trace-statistics block (the zero padding that
  /// makes the reduction exact), so traffic scales linearly with this
  /// knob. Lower it (or raise sync_cadence) to trade traffic for
  /// parallel width / fidelity.
  int virtual_shards = 8;
};

struct DistributedReport {
  int ranks = 1;
  comm::Backend backend = comm::Backend::kInProcess;
  comm::AllreduceAlgorithm algorithm = comm::AllreduceAlgorithm::kFlat;
  double seconds = 0.0;
  std::uint64_t bytes_per_rank = 0;    ///< logical network traffic, rank 0
  std::uint64_t total_bytes = 0;       ///< true sum over all ranks
  std::uint64_t wire_bytes_per_rank = 0;  ///< bytes on the wire, rank 0
  std::uint64_t total_wire_bytes = 0;     ///< wire bytes, sum over ranks
  std::size_t sync_count = 0;          ///< number of reductions (rank 0)
};

/// Full-model data-parallel trainer. Equivalent to `model.fit(x, labels)`
/// in schedule shape (unsupervised hidden phase(s), then the supervised
/// head), but sharded over `options.ranks` simulated ranks. With the
/// default sync_cadence == 1 the trained state is bit-identical for every
/// rank count.
class DistributedTrainer {
 public:
  explicit DistributedTrainer(DistributedOptions options = {});

  [[nodiscard]] const DistributedOptions& options() const noexcept {
    return options_;
  }

  /// Train `model` (compiled, shallow or deep, either head type) on the
  /// full dataset; on return the model holds the rank-synchronized state.
  DistributedReport fit(Model& model, const tensor::MatrixF& x,
                        const std::vector<int>& labels);

  /// Multi-process mode: train this process's rank of an already
  /// connected world (comm::connect_env(), as launched by
  /// tools/sb_launch). Every process passes the identically built model
  /// and the full dataset; `options().ranks` is ignored in favor of the
  /// communicator's world size. On return `model` holds the
  /// rank-synchronized state — bit-identical on every rank, and to a
  /// single-process fit() with the same options and rank count. Returns
  /// the number of reductions this rank issued.
  std::size_t fit_rank(comm::Communicator& comm, Model& model,
                       const tensor::MatrixF& x,
                       const std::vector<int>& labels);

 private:
  DistributedOptions options_;
};

/// Convenience wrapper: DistributedTrainer(options).fit(model, x, labels).
DistributedReport fit_distributed(Model& model, const tensor::MatrixF& x,
                                  const std::vector<int>& labels,
                                  const DistributedOptions& options = {});

}  // namespace streambrain::core
