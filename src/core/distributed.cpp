#include "core/distributed.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/network.hpp"
#include "core/serialization.hpp"
#include "core/sgd_head.hpp"
#include "data/dataset.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace streambrain::core {

namespace {

// ---------------------------------------------------------------------------
// Rank-invariant building blocks. Everything here is a function of the
// data, the schedule, and the fixed virtual-shard decomposition — never of
// the rank count — which is what makes N-rank training bit-identical to
// 1-rank training (see distributed.hpp).

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (0x9E3779B97F4A7C15ULL * (b + 1));
  return util::splitmix64(s);
}

/// Deterministic per-(phase, epoch, batch, shard) noise stream: the noise
/// a virtual shard's rows receive depends only on the shard identity, so
/// it is identical whichever rank owns the shard.
util::Rng shard_noise_rng(std::uint64_t stream, std::size_t epoch,
                          std::size_t batch, std::size_t shard) {
  return util::Rng(mix(mix(mix(stream, epoch), batch), shard));
}

/// The rows of one global batch, split round-robin over the fixed virtual
/// shards; only the shards owned by this rank are materialized.
struct BatchShards {
  std::vector<tensor::MatrixF> x;            // per shard, owned only
  std::vector<tensor::MatrixF> t;            // optional targets, owned only
  std::vector<std::size_t> rows_per_shard;   // all shards
  std::size_t batch_rows = 0;
  std::size_t local_rows = 0;
};

bool owns_shard(std::size_t shard, int rank, int world) noexcept {
  return static_cast<int>(shard % static_cast<std::size_t>(world)) == rank;
}

/// Gather the rows of batch positions [start, end) of `order` into the
/// per-shard matrices (position i -> shard (i - start) % shards).
void pack_batch(const tensor::MatrixF& src_x, const tensor::MatrixF* src_t,
                const std::vector<std::size_t>& order, std::size_t start,
                std::size_t end, std::size_t shards, int rank, int world,
                BatchShards& out) {
  out.x.resize(shards);
  out.t.resize(src_t != nullptr ? shards : 0);
  out.rows_per_shard.assign(shards, 0);
  out.batch_rows = end - start;
  out.local_rows = 0;
  for (std::size_t i = start; i < end; ++i) {
    ++out.rows_per_shard[(i - start) % shards];
  }
  for (std::size_t v = 0; v < shards; ++v) {
    if (!owns_shard(v, rank, world)) continue;
    const std::size_t rows = out.rows_per_shard[v];
    out.local_rows += rows;
    out.x[v].resize(rows, src_x.cols());
    if (src_t != nullptr) out.t[v].resize(rows, src_t->cols());
    std::size_t filled = 0;
    for (std::size_t i = start + v; i < end;
         i += shards, ++filled) {
      std::copy_n(src_x.row(order[i]), src_x.cols(), out.x[v].row(filled));
      if (src_t != nullptr) {
        std::copy_n(src_t->row(order[i]), src_t->cols(), out.t[v].row(filled));
      }
    }
  }
}

// --- Trace-based updates (hidden layers and the BCPNN head) ----------------

/// Stat block layout for a trace update over (x, a): col-sums of x, col-
/// sums of a, and x^T a, concatenated — the layout of pi, pj and pij.
void accumulate_trace_stats(const tensor::MatrixF& x, const tensor::MatrixF& a,
                            tensor::MatrixF& pij_scratch, float* slot) {
  const std::size_t n_in = x.cols();
  const std::size_t n_out = a.cols();
  tensor::col_sums(x, slot);
  tensor::col_sums(a, slot + n_in);
  pij_scratch.resize(n_in, n_out);
  tensor::gemm(tensor::Transpose::kYes, tensor::Transpose::kNo, 1.0f, x, a,
               0.0f, pij_scratch);
  std::copy_n(pij_scratch.data(), n_in * n_out, slot + n_in + n_out);
}

/// p += alpha * (sum / rows - p), the engine's trace EMA replayed from
/// externally combined batch statistics. Plain serial loops: identical on
/// every rank.
void apply_trace_ema(const float* totals, std::size_t rows, float alpha,
                     ProbabilityTraces& traces) {
  const float inv = 1.0f / static_cast<float>(rows);
  auto& pi = traces.mutable_pi();
  auto& pj = traces.mutable_pj();
  auto& pij = traces.mutable_pij();
  const std::size_t n_in = pi.size();
  const std::size_t n_out = pj.size();
  const float* sum_pi = totals;
  const float* sum_pj = totals + n_in;
  const float* sum_pij = totals + n_in + n_out;
  for (std::size_t i = 0; i < n_in; ++i) {
    pi[i] += alpha * (sum_pi[i] * inv - pi[i]);
  }
  for (std::size_t j = 0; j < n_out; ++j) {
    pj[j] += alpha * (sum_pj[j] * inv - pj[j]);
  }
  float* pij_data = pij.data();
  for (std::size_t i = 0; i < n_in * n_out; ++i) {
    pij_data[i] += alpha * (sum_pij[i] * inv - pij_data[i]);
  }
}

// --- The batch driver --------------------------------------------------------

/// What one synchronized training phase (a hidden layer, the BCPNN head or
/// the SGD head) plugs into run_phase. The callbacks act on this rank's
/// replica; run_phase owns everything else.
struct Phase {
  std::size_t epochs = 0;
  std::size_t batch_size = 0;
  std::uint64_t stream = 0;  ///< shuffle (and noise) rng tag
  /// Statistics per virtual shard. The state averaged in cadence mode has
  /// the same size and layout (traces for trace sums, weights and bias for
  /// gradient sums).
  std::size_t block = 0;
  /// Write one virtual shard's statistics into `slot`: rows `x`, targets
  /// `t` (null for unsupervised phases), of batch `batch` of `epoch`.
  std::function<void(const tensor::MatrixF& x, const tensor::MatrixF* t,
                     std::size_t epoch, std::size_t batch, std::size_t shard,
                     float* slot)>
      shard_stats;
  /// Update the replica from combined statistics over `rows` rows.
  std::function<void(const float* totals, std::size_t rows)> apply;
  /// Cadence mode: copy the averaged state out of / back into the replica.
  std::function<void(float* out)> save_state;
  std::function<void(const float* in)> load_state;
  std::function<void()> end_epoch;  ///< may be empty
};

/// One full phase (all epochs) over `x` with optional supervised targets:
/// the shuffle, the shard packing, one exchange per batch with the next
/// batch's packing overlapped (exact mode) or local updates averaged on
/// cadence (approximate mode), and the sync count. This is the core of
/// the data-parallel trainer.
void run_phase(comm::Communicator& comm, const DistributedOptions& opts,
               const Phase& phase, const tensor::MatrixF& x,
               const tensor::MatrixF* targets, std::size_t& sync_count) {
  const int rank = comm.rank();
  const int world = comm.size();
  const std::size_t n = x.rows();
  const std::size_t shards = static_cast<std::size_t>(opts.virtual_shards);
  const std::size_t block = phase.block;
  const bool exact = opts.sync_cadence <= 1;

  // Zero-padded per-shard statistics. Each shard's slot is disjoint, so
  // the allreduce adds x + 0 everywhere — exact for both algorithms — and
  // the left-to-right combine over shards is identical on every rank.
  std::vector<float> slots(shards * block);
  std::vector<float> totals(block);
  std::vector<float> state_buffer(exact ? 0 : block);
  /// Sum, in shard order, the slots `owner` holds in an `owners`-rank
  /// split; (0, 1) sums every shard.
  const auto combine = [&](int owner, int owners) {
    std::fill(totals.begin(), totals.end(), 0.0f);
    for (std::size_t v = 0; v < shards; ++v) {
      if (!owns_shard(v, owner, owners)) continue;
      const float* part = slots.data() + v * block;
      for (std::size_t i = 0; i < block; ++i) totals[i] += part[i];
    }
  };

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng order_rng(mix(phase.stream, 0x5A55C0DEULL));
  BatchShards current;
  BatchShards next;

  const std::size_t batches = (n + phase.batch_size - 1) / phase.batch_size;
  for (std::size_t epoch = 0; epoch < phase.epochs; ++epoch) {
    order_rng.shuffle(order);
    pack_batch(x, targets, order, 0, std::min(phase.batch_size, n), shards,
               rank, world, current);
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t next_start = (b + 1) * phase.batch_size;
      std::fill(slots.begin(), slots.end(), 0.0f);
      for (std::size_t v = 0; v < shards; ++v) {
        if (!owns_shard(v, rank, world) || current.rows_per_shard[v] == 0) {
          continue;
        }
        phase.shard_stats(current.x[v],
                          targets != nullptr ? &current.t[v] : nullptr, epoch,
                          b, v, slots.data() + v * block);
      }

      const auto pack_next = [&] {
        if (next_start < n) {
          pack_batch(x, targets, order, next_start,
                     std::min(next_start + phase.batch_size, n), shards, rank,
                     world, next);
        }
      };

      if (exact) {
        // One reduction per batch; packing the next batch's shard rows
        // overlaps the (logical) network transfer.
        comm::Request request = comm.iallreduce(
            slots.data(), slots.size(), comm::ReduceOp::kSum, opts.algorithm);
        pack_next();
        request.wait();
        combine(0, 1);
        phase.apply(totals.data(), current.batch_rows);
        ++sync_count;
      } else {
        // Approximate mode: local update now, state averaging on cadence.
        combine(rank, world);
        if (current.local_rows > 0) {
          phase.apply(totals.data(), current.local_rows);
        }
        pack_next();
        const bool last_batch = b + 1 == batches;
        if ((b + 1) % opts.sync_cadence == 0 || last_batch) {
          phase.save_state(state_buffer.data());
          comm.allreduce_mean(state_buffer.data(), state_buffer.size(),
                              opts.algorithm);
          phase.load_state(state_buffer.data());
          ++sync_count;
        }
      }
      std::swap(current, next);
    }
    // The replicated state is rank-identical here (exact every batch;
    // approximate via the forced epoch-end average), so per-epoch
    // structural plasticity makes the same swaps on every rank.
    if (phase.end_epoch) phase.end_epoch();
  }
}

// --- The three phases ----------------------------------------------------------

/// The trace half of a Phase, shared by hidden layers and the BCPNN head:
/// totals replay the trace EMA, and cadence mode averages the traces.
Phase trace_phase(ProbabilityTraces& traces, float alpha,
                  const std::function<void()>& recompute) {
  const std::size_t n_pi = traces.pi().size();
  const std::size_t n_pj = traces.pj().size();
  Phase phase;
  phase.block = n_pi + n_pj + traces.pij().size();
  phase.apply = [&traces, alpha, recompute](const float* totals,
                                            std::size_t rows) {
    apply_trace_ema(totals, rows, alpha, traces);
    recompute();
  };
  phase.save_state = [&traces, n_pi, n_pj](float* out) {
    std::copy_n(traces.pi().data(), n_pi, out);
    std::copy_n(traces.pj().data(), n_pj, out + n_pi);
    std::copy_n(traces.pij().data(), traces.pij().size(), out + n_pi + n_pj);
  };
  phase.load_state = [&traces, recompute, n_pi, n_pj](const float* in) {
    std::copy_n(in, n_pi, traces.mutable_pi().data());
    std::copy_n(in + n_pi, n_pj, traces.mutable_pj().data());
    std::copy_n(in + n_pi + n_pj, traces.pij().size(),
                traces.mutable_pij().data());
    recompute();
  };
  return phase;
}

/// Unsupervised hidden-layer phase: schedule parameters all come from the
/// layer's own config, so the same code drives every layer of the stack.
Phase unsupervised_phase(parallel::Engine& engine, BcpnnLayer& layer,
                         std::uint64_t stream) {
  const BcpnnConfig& cfg = layer.config();
  Phase phase = trace_phase(layer.mutable_traces(), cfg.alpha,
                            [&layer] { layer.recompute_weights(); });
  phase.epochs = cfg.epochs;
  phase.batch_size = cfg.batch_size;
  phase.stream = mix(cfg.seed, stream);
  phase.shard_stats = [&engine, &layer, &cfg, phase_stream = phase.stream,
                       activations = tensor::MatrixF(),
                       pij_scratch = tensor::MatrixF()](
                          const tensor::MatrixF& shard_x,
                          const tensor::MatrixF*, std::size_t epoch,
                          std::size_t batch, std::size_t shard,
                          float* slot) mutable {
    const float progress = cfg.epochs > 1
                               ? static_cast<float>(epoch) /
                                     static_cast<float>(cfg.epochs - 1)
                               : 1.0f;
    const float noise_std =
        cfg.noise_start + (cfg.noise_end - cfg.noise_start) * progress;
    engine.support(shard_x, layer.weights(), layer.bias().data(),
                   activations);
    if (noise_std > 0.0f) {
      util::Rng noise_rng = shard_noise_rng(phase_stream, epoch, batch, shard);
      add_normal_noise(noise_rng, activations, noise_std);
    }
    engine.softmax_hcu(activations, cfg.mcus, cfg.inverse_temperature);
    accumulate_trace_stats(shard_x, activations, pij_scratch, slot);
  };
  phase.end_epoch = [&layer] { layer.plasticity_step(); };
  return phase;
}

/// Supervised BCPNN head phase, at any depth.
Phase bcpnn_head_phase(BcpnnClassifier& head) {
  Phase phase = trace_phase(head.mutable_traces(), head.alpha(),
                            [&head] { head.recompute_weights(); });
  phase.shard_stats = [pij_scratch = tensor::MatrixF()](
                          const tensor::MatrixF& shard_x,
                          const tensor::MatrixF* shard_t, std::size_t,
                          std::size_t, std::size_t, float* slot) mutable {
    accumulate_trace_stats(shard_x, *shard_t, pij_scratch, slot);
  };
  return phase;
}

/// Supervised SGD head phase: statistics are the un-normalized gradient,
/// and cadence mode averages the weights and bias (momentum stays local).
Phase sgd_head_phase(SgdHead& head) {
  const std::size_t n_feat = head.inputs();
  const std::size_t classes = head.classes();
  const std::size_t n_weights = n_feat * classes;
  Phase phase;
  phase.block = n_weights + classes;
  phase.shard_stats = [&head, classes, n_weights, probs = tensor::MatrixF(),
                       grad = tensor::MatrixF(n_feat, classes)](
                          const tensor::MatrixF& shard_x,
                          const tensor::MatrixF* shard_t, std::size_t,
                          std::size_t, std::size_t, float* slot) mutable {
    head.predict(shard_x, probs);
    // Softmax-cross-entropy residual, then the un-normalized partial
    // gradient X^T (p - t) and its bias column sums.
    for (std::size_t r = 0; r < probs.rows(); ++r) {
      for (std::size_t c = 0; c < classes; ++c) {
        probs(r, c) -= (*shard_t)(r, c);
      }
    }
    tensor::gemm(tensor::Transpose::kYes, tensor::Transpose::kNo, 1.0f,
                 shard_x, probs, 0.0f, grad);
    std::copy_n(grad.data(), n_weights, slot);
    tensor::col_sums(probs, slot + n_weights);
  };
  phase.apply = [&head, classes, n_weights,
                 grad = tensor::MatrixF(n_feat, classes),
                 bias_grad = std::vector<float>(classes)](
                    const float* totals, std::size_t rows) mutable {
    const float inv = 1.0f / static_cast<float>(rows);
    std::copy_n(totals, n_weights, grad.data());
    tensor::scale(inv, grad.data(), grad.size());
    std::copy_n(totals + n_weights, classes, bias_grad.data());
    tensor::scale(inv, bias_grad.data(), classes);
    head.apply_gradient(grad, bias_grad);
  };
  phase.save_state = [&head, classes, n_weights](float* out) {
    std::copy_n(head.weights().data(), n_weights, out);
    std::copy_n(head.bias().data(), classes, out + n_weights);
  };
  phase.load_state = [&head, n_feat, classes, n_weights](const float* in) {
    tensor::MatrixF averaged(n_feat, classes);
    std::copy_n(in, n_weights, averaged.data());
    head.set_parameters(averaged, std::vector<float>(in + n_weights,
                                                     in + n_weights + classes));
  };
  phase.end_epoch = [&head] { head.end_epoch(); };
  return phase;
}

// --- Replica plumbing ------------------------------------------------------

void train_replica(comm::Communicator& comm, const DistributedOptions& opts,
                   Model& replica, const tensor::MatrixF& x,
                   const std::vector<int>& labels, std::size_t& sync_count) {
  // Both head types train head_epochs over the hidden codes on stream 2.
  const auto train_head = [&](Phase head, const tensor::MatrixF& hidden,
                              std::size_t classes, std::size_t epochs,
                              std::size_t batch_size, std::uint64_t seed) {
    head.epochs = epochs;
    head.batch_size = batch_size;
    head.stream = mix(seed, /*stream=*/2);
    const tensor::MatrixF targets = data::one_hot_labels(labels, classes);
    run_phase(comm, opts, head, hidden, &targets, sync_count);
  };

  Network& net = replica.network();
  const NetworkConfig& cfg = net.config();
  // The codes between layers are replicated and deterministic. Noise
  // stream 1 for the paper's single layer, 16 + l in a stack.
  net.train_layers(x, [&](std::size_t l, const tensor::MatrixF& code) {
    run_phase(comm, opts,
              unsupervised_phase(net.engine(), net.mutable_layer(l),
                                 net.depth() == 1 ? 1 : 16 + l),
              code, nullptr, sync_count);
  });
  train_head(net.sgd_head() != nullptr ? sgd_head_phase(*net.sgd_head())
                                       : bcpnn_head_phase(*net.bcpnn_head()),
             net.transform(x), cfg.classes, cfg.bcpnn.head_epochs,
             cfg.bcpnn.batch_size, cfg.bcpnn.seed);

  // Schedule-agreement invariant over the new uint64 collective: a rank
  // that desynchronized its reduction schedule would have deadlocked or
  // corrupted results — make the failure loud instead.
  std::uint64_t lo = sync_count;
  std::uint64_t hi = sync_count;
  comm.allreduce(&lo, 1, comm::ReduceOp::kMin);
  comm.allreduce(&hi, 1, comm::ReduceOp::kMax);
  if (lo != hi) {
    throw std::logic_error(
        "DistributedTrainer: ranks disagree on the sync schedule");
  }
}

/// Copy the trained state of `src` (a replica) into `dst` (the caller's
/// compiled model with identical topology).
void adopt_state(const Model& src, Model& dst) {
  const Network& from = src.network();
  Network& to = dst.network();
  for (std::size_t l = 0; l < from.depth(); ++l) {
    to.mutable_layer(l).set_state(from.layer(l).traces(),
                                  from.layer(l).masks());
  }
  if (from.sgd_head() != nullptr) {
    to.sgd_head()->set_state(from.sgd_head()->weights(),
                             from.sgd_head()->bias());
  } else {
    to.bcpnn_head()->mutable_traces() = from.bcpnn_head()->traces();
    to.bcpnn_head()->recompute_weights();
  }
}

/// The checks fit() and fit_rank() share, before any replica is cloned.
/// `who` names the entry point in the message.
void validate_fit(const std::string& who, const Model& model,
                  const tensor::MatrixF& x, const std::vector<int>& labels) {
  if (!model.compiled()) {
    throw std::logic_error(who + ": model not compiled");
  }
  if (model.quantized() || model.sparse()) {
    throw std::logic_error(who + ": model is a read-only inference form "
                                 "(quantized or sparsified)");
  }
  if (x.rows() != labels.size()) {
    throw std::invalid_argument(who + ": rows != labels");
  }
  if (x.rows() == 0) {
    throw std::invalid_argument(who + ": empty dataset");
  }
}

}  // namespace

DistributedTrainer::DistributedTrainer(DistributedOptions options)
    : options_(options) {
  if (options_.ranks < 1) {
    throw std::invalid_argument("DistributedTrainer: ranks must be >= 1");
  }
  if (options_.virtual_shards < 1) {
    throw std::invalid_argument(
        "DistributedTrainer: virtual_shards must be >= 1");
  }
  if (options_.sync_cadence < 1) {
    throw std::invalid_argument(
        "DistributedTrainer: sync_cadence must be >= 1");
  }
}

DistributedReport DistributedTrainer::fit(Model& model,
                                          const tensor::MatrixF& x,
                                          const std::vector<int>& labels) {
  validate_fit("DistributedTrainer::fit", model, x, labels);

  DistributedReport report;
  report.ranks = options_.ranks;
  report.backend = options_.backend;
  report.algorithm = options_.algorithm;
  util::Stopwatch watch;

  // One independent replica per rank (own engine, identical initial
  // state); all ranks finish bit-identical, rank 0's state is adopted.
  std::vector<Model> replicas;
  replicas.reserve(static_cast<std::size_t>(options_.ranks));
  for (int r = 0; r < options_.ranks; ++r) {
    replicas.push_back(clone_model(model));
  }
  std::vector<std::size_t> sync_counts(
      static_cast<std::size_t>(options_.ranks), 0);

  const comm::RunStats stats = comm::run_transport(
      options_.backend, options_.ranks, [&](comm::Communicator& comm) {
        train_replica(comm, options_,
                      replicas[static_cast<std::size_t>(comm.rank())], x,
                      labels, sync_counts[static_cast<std::size_t>(comm.rank())]);
      });

  adopt_state(replicas[0], model);
  report.seconds = watch.seconds();
  report.bytes_per_rank = stats.bytes_per_rank.empty()
                              ? 0
                              : stats.bytes_per_rank[0];
  report.total_bytes = stats.total_bytes;
  report.wire_bytes_per_rank = stats.wire_bytes_per_rank.empty()
                                   ? 0
                                   : stats.wire_bytes_per_rank[0];
  report.total_wire_bytes = stats.total_wire_bytes;
  report.sync_count = sync_counts[0];
  return report;
}

std::size_t DistributedTrainer::fit_rank(comm::Communicator& comm,
                                         Model& model,
                                         const tensor::MatrixF& x,
                                         const std::vector<int>& labels) {
  validate_fit("DistributedTrainer::fit_rank", model, x, labels);
  // Train a clone and adopt it, exactly like fit() does per rank, so the
  // multi-process path shares fit()'s state handling bit for bit.
  Model replica = clone_model(model);
  std::size_t sync_count = 0;
  train_replica(comm, options_, replica, x, labels, sync_count);
  adopt_state(replica, model);
  return sync_count;
}

DistributedReport fit_distributed(Model& model, const tensor::MatrixF& x,
                                  const std::vector<int>& labels,
                                  const DistributedOptions& options) {
  return DistributedTrainer(options).fit(model, x, labels);
}

}  // namespace streambrain::core
