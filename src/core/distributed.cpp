#include "core/distributed.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/classifier.hpp"
#include "core/deep.hpp"
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

/// Zero-padded per-shard statistics buffer + the fixed-order combine.
/// Each shard's statistics live in a disjoint slot, so the allreduce adds
/// x + 0 everywhere — exact for both algorithms — and the subsequent
/// left-to-right combine over shards is identical on every rank.
struct LeafExchange {
  std::size_t shards = 0;
  std::size_t block = 0;
  std::vector<float> buffer;  // shards * block
  std::vector<float> total;   // block

  void configure(std::size_t shard_count, std::size_t block_size) {
    shards = shard_count;
    block = block_size;
    buffer.assign(shards * block, 0.0f);
    total.assign(block, 0.0f);
  }

  void reset() { std::fill(buffer.begin(), buffer.end(), 0.0f); }

  [[nodiscard]] float* slot(std::size_t shard) noexcept {
    return buffer.data() + shard * block;
  }

  /// allreduce the padded buffer, then combine shards in fixed order.
  /// `overlap_work` runs between issuing the nonblocking reduction and
  /// waiting on it (compute/communication overlap).
  void exchange(comm::Communicator& comm, comm::AllreduceAlgorithm algorithm,
                const std::function<void()>& overlap_work) {
    comm::Request request = comm.iallreduce(buffer.data(), buffer.size(),
                                            comm::ReduceOp::kSum, algorithm);
    if (overlap_work) overlap_work();
    request.wait();
    combine_all();
  }

  /// Combine every shard's slot (after an exchange).
  void combine_all() {
    std::fill(total.begin(), total.end(), 0.0f);
    for (std::size_t v = 0; v < shards; ++v) {
      const float* part = slot(v);
      for (std::size_t i = 0; i < block; ++i) total[i] += part[i];
    }
  }

  /// Combine only the shards this rank owns (approximate mode).
  void combine_owned(int rank, int world) {
    std::fill(total.begin(), total.end(), 0.0f);
    for (std::size_t v = 0; v < shards; ++v) {
      if (!owns_shard(v, rank, world)) continue;
      const float* part = slot(v);
      for (std::size_t i = 0; i < block; ++i) total[i] += part[i];
    }
  }
};

// --- Trace-based updates (hidden layers and the BCPNN head) ----------------

/// Stat block layout for a trace update over (x, a): col-sums of x, col-
/// sums of a, and x^T a, concatenated.
std::size_t trace_block_size(std::size_t n_in, std::size_t n_out) noexcept {
  return n_in + n_out + n_in * n_out;
}

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

/// Pack / unpack traces into a flat buffer for cadence-mode averaging.
void traces_to_buffer(const ProbabilityTraces& traces, float* out) {
  std::copy(traces.pi().begin(), traces.pi().end(), out);
  out += traces.pi().size();
  std::copy(traces.pj().begin(), traces.pj().end(), out);
  out += traces.pj().size();
  std::copy_n(traces.pij().data(), traces.pij().size(), out);
}

void buffer_to_traces(const float* in, ProbabilityTraces& traces) {
  std::copy_n(in, traces.mutable_pi().size(), traces.mutable_pi().data());
  in += traces.pi().size();
  std::copy_n(in, traces.mutable_pj().size(), traces.mutable_pj().data());
  in += traces.pj().size();
  std::copy_n(in, traces.pij().size(), traces.mutable_pij().data());
}

/// Everything one synchronized trace-training phase needs.
struct TracePhase {
  ProbabilityTraces& traces;
  std::function<void()> recompute;          ///< weights from traces
  std::function<void(const tensor::MatrixF&, tensor::MatrixF&, float,
                     util::Rng&)>
      forward;  ///< shard rows -> activations (empty: targets provided)
  float alpha;
  std::size_t epochs;
  std::size_t batch_size;
  std::function<float(std::size_t)> noise_for_epoch;  ///< 0 => none
  std::function<void()> end_epoch;          ///< e.g. plasticity (may be {})
  std::uint64_t stream;                     ///< schedule / noise rng tag
};

/// One full trace-training phase (all epochs) over `x` with optional
/// supervised targets. This is the core of the data-parallel trainer.
void run_trace_phase(comm::Communicator& comm, const DistributedOptions& opts,
                     TracePhase&& phase, const tensor::MatrixF& x,
                     const tensor::MatrixF* targets, std::size_t n_out,
                     std::size_t& sync_count) {
  const int rank = comm.rank();
  const int world = comm.size();
  const std::size_t n = x.rows();
  const std::size_t shards = static_cast<std::size_t>(opts.virtual_shards);
  const bool exact = opts.sync_cadence <= 1;

  LeafExchange exchange;
  exchange.configure(shards, trace_block_size(x.cols(), n_out));
  std::vector<float> trace_buffer;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng order_rng(mix(phase.stream, 0x5A55C0DEULL));
  tensor::MatrixF activations;
  tensor::MatrixF pij_scratch;
  BatchShards current;
  BatchShards next;

  const std::size_t batches = (n + phase.batch_size - 1) / phase.batch_size;
  for (std::size_t epoch = 0; epoch < phase.epochs; ++epoch) {
    const float noise =
        phase.noise_for_epoch ? phase.noise_for_epoch(epoch) : 0.0f;
    order_rng.shuffle(order);
    pack_batch(x, targets, order, 0,
               std::min(phase.batch_size, n), shards, rank, world, current);
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t start = b * phase.batch_size;
      const std::size_t next_start = start + phase.batch_size;
      exchange.reset();
      for (std::size_t v = 0; v < shards; ++v) {
        if (!owns_shard(v, rank, world) || current.rows_per_shard[v] == 0) {
          continue;
        }
        const tensor::MatrixF& shard_x = current.x[v];
        const tensor::MatrixF* shard_a;
        if (targets != nullptr) {
          shard_a = &current.t[v];
        } else {
          util::Rng noise_rng = shard_noise_rng(phase.stream, epoch, b, v);
          phase.forward(shard_x, activations, noise, noise_rng);
          shard_a = &activations;
        }
        accumulate_trace_stats(shard_x, *shard_a, pij_scratch,
                               exchange.slot(v));
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
        exchange.exchange(comm, opts.algorithm,
                          opts.overlap ? std::function<void()>(pack_next)
                                       : std::function<void()>{});
        if (!opts.overlap) pack_next();
        apply_trace_ema(exchange.total.data(), current.batch_rows, phase.alpha,
                        phase.traces);
        phase.recompute();
        ++sync_count;
      } else {
        // Approximate mode: local update now, trace averaging on cadence.
        exchange.combine_owned(rank, world);
        if (current.local_rows > 0) {
          apply_trace_ema(exchange.total.data(), current.local_rows,
                          phase.alpha, phase.traces);
          phase.recompute();
        }
        pack_next();
        const bool last_batch = b + 1 == batches;
        if ((b + 1) % opts.sync_cadence == 0 || last_batch) {
          trace_buffer.resize(exchange.block);
          traces_to_buffer(phase.traces, trace_buffer.data());
          comm.allreduce_mean(trace_buffer.data(), trace_buffer.size(),
                              opts.algorithm);
          buffer_to_traces(trace_buffer.data(), phase.traces);
          phase.recompute();
          ++sync_count;
        }
      }
      std::swap(current, next);
    }
    // Traces are rank-identical here (exact every batch; approximate via
    // the forced epoch-end average), so per-epoch structural plasticity
    // makes the same swaps on every rank.
    if (phase.end_epoch) phase.end_epoch();
  }
}

/// Unsupervised hidden-layer phase: schedule parameters all come from the
/// layer's own config, so the same code drives shallow networks and every
/// layer of a deep stack.
void run_unsupervised_phase(comm::Communicator& comm,
                            const DistributedOptions& opts,
                            parallel::Engine& engine, BcpnnLayer& layer,
                            const tensor::MatrixF& x, std::uint64_t stream,
                            std::size_t& sync_count) {
  const BcpnnConfig& cfg = layer.config();
  TracePhase phase{
      layer.mutable_traces(),
      [&layer] { layer.recompute_weights(); },
      [&engine, &layer, &cfg](const tensor::MatrixF& shard_x,
                              tensor::MatrixF& activations, float noise_std,
                              util::Rng& noise_rng) {
        engine.support(shard_x, layer.weights(), layer.bias().data(),
                       activations);
        if (noise_std > 0.0f) {
          add_normal_noise(noise_rng, activations, noise_std);
        }
        engine.softmax_hcu(activations, cfg.mcus, cfg.inverse_temperature);
      },
      cfg.alpha,
      cfg.epochs,
      cfg.batch_size,
      [&cfg](std::size_t epoch) {
        const float progress =
            cfg.epochs > 1 ? static_cast<float>(epoch) /
                                 static_cast<float>(cfg.epochs - 1)
                           : 1.0f;
        return cfg.noise_start + (cfg.noise_end - cfg.noise_start) * progress;
      },
      [&layer] { layer.plasticity_step(); },
      mix(cfg.seed, stream)};
  run_trace_phase(comm, opts, std::move(phase), x, nullptr,
                  layer.hidden_units(), sync_count);
}

/// Supervised BCPNN head phase (shallow kBcpnn head and deep heads).
void run_bcpnn_head_phase(comm::Communicator& comm,
                          const DistributedOptions& opts,
                          BcpnnClassifier& head,
                          const tensor::MatrixF& hidden,
                          const tensor::MatrixF& targets, std::size_t epochs,
                          std::size_t batch_size, std::uint64_t stream,
                          std::size_t& sync_count) {
  TracePhase phase{head.mutable_traces(),
                   [&head] { head.recompute_weights(); },
                   {},
                   head.alpha(),
                   epochs,
                   batch_size,
                   {},
                   {},
                   stream};
  run_trace_phase(comm, opts, std::move(phase), hidden, &targets,
                  targets.cols(), sync_count);
}

// --- SGD head --------------------------------------------------------------

void run_sgd_head_phase(comm::Communicator& comm,
                        const DistributedOptions& opts, SgdHead& head,
                        const tensor::MatrixF& hidden,
                        const tensor::MatrixF& targets, std::size_t epochs,
                        std::size_t batch_size, std::uint64_t stream,
                        std::size_t& sync_count) {
  const int rank = comm.rank();
  const int world = comm.size();
  const std::size_t n = hidden.rows();
  const std::size_t n_feat = hidden.cols();
  const std::size_t classes = targets.cols();
  const std::size_t shards = static_cast<std::size_t>(opts.virtual_shards);
  const bool exact = opts.sync_cadence <= 1;

  LeafExchange exchange;
  exchange.configure(shards, n_feat * classes + classes);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng order_rng(mix(stream, 0x5A55C0DEULL));
  tensor::MatrixF probs;
  tensor::MatrixF grad_scratch(n_feat, classes);
  tensor::MatrixF grad(n_feat, classes);
  std::vector<float> bias_grad(classes);
  std::vector<float> weight_buffer;
  BatchShards current;
  BatchShards next;

  const std::size_t batches = (n + batch_size - 1) / batch_size;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    order_rng.shuffle(order);
    pack_batch(hidden, &targets, order, 0, std::min(batch_size, n), shards,
               rank, world, current);
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t next_start = (b + 1) * batch_size;
      exchange.reset();
      for (std::size_t v = 0; v < shards; ++v) {
        if (!owns_shard(v, rank, world) || current.rows_per_shard[v] == 0) {
          continue;
        }
        const tensor::MatrixF& shard_x = current.x[v];
        const tensor::MatrixF& shard_t = current.t[v];
        head.predict(shard_x, probs);
        // Softmax-cross-entropy residual, then the un-normalized partial
        // gradient X^T (p - t) and its bias column sums.
        for (std::size_t r = 0; r < probs.rows(); ++r) {
          for (std::size_t c = 0; c < classes; ++c) {
            probs(r, c) -= shard_t(r, c);
          }
        }
        float* slot = exchange.slot(v);
        tensor::gemm(tensor::Transpose::kYes, tensor::Transpose::kNo, 1.0f,
                     shard_x, probs, 0.0f, grad_scratch);
        std::copy_n(grad_scratch.data(), n_feat * classes, slot);
        tensor::col_sums(probs, slot + n_feat * classes);
      }

      const auto pack_next = [&] {
        if (next_start < n) {
          pack_batch(hidden, &targets, order, next_start,
                     std::min(next_start + batch_size, n), shards, rank, world,
                     next);
        }
      };

      const auto apply_totals = [&](std::size_t rows) {
        const float inv = 1.0f / static_cast<float>(rows);
        std::copy_n(exchange.total.data(), n_feat * classes, grad.data());
        tensor::scale(inv, grad.data(), grad.size());
        std::copy_n(exchange.total.data() + n_feat * classes, classes,
                    bias_grad.data());
        tensor::scale(inv, bias_grad.data(), classes);
        head.apply_gradient(grad, bias_grad);
      };

      if (exact) {
        exchange.exchange(comm, opts.algorithm,
                          opts.overlap ? std::function<void()>(pack_next)
                                       : std::function<void()>{});
        if (!opts.overlap) pack_next();
        apply_totals(current.batch_rows);
        ++sync_count;
      } else {
        exchange.combine_owned(rank, world);
        if (current.local_rows > 0) apply_totals(current.local_rows);
        pack_next();
        const bool last_batch = b + 1 == batches;
        if ((b + 1) % opts.sync_cadence == 0 || last_batch) {
          // Average the replicated parameters (momentum stays local).
          weight_buffer.resize(n_feat * classes + classes);
          std::copy_n(head.weights().data(), n_feat * classes,
                      weight_buffer.data());
          std::copy_n(head.bias().data(), classes,
                      weight_buffer.data() + n_feat * classes);
          comm.allreduce_mean(weight_buffer.data(), weight_buffer.size(),
                              opts.algorithm);
          tensor::MatrixF averaged(n_feat, classes);
          std::copy_n(weight_buffer.data(), n_feat * classes, averaged.data());
          std::vector<float> averaged_bias(
              weight_buffer.begin() +
                  static_cast<std::ptrdiff_t>(n_feat * classes),
              weight_buffer.end());
          head.set_parameters(averaged, averaged_bias);  // momentum kept
          ++sync_count;
        }
      }
      std::swap(current, next);
    }
    head.end_epoch();
  }
}

// --- Replica plumbing ------------------------------------------------------

void train_replica(comm::Communicator& comm, const DistributedOptions& opts,
                   Model& replica, const tensor::MatrixF& x,
                   const std::vector<int>& labels, std::size_t& sync_count) {
  if (replica.hidden_specs().size() == 1) {
    Network& net = replica.network();
    const BcpnnConfig& cfg = net.config().bcpnn;
    run_unsupervised_phase(comm, opts, net.engine(), net.mutable_hidden(), x,
                           /*stream=*/1, sync_count);

    tensor::MatrixF hidden;
    net.mutable_hidden().forward(x, hidden);  // replicated, deterministic
    const tensor::MatrixF targets =
        data::one_hot_labels(labels, net.config().classes);
    if (net.sgd_head() != nullptr) {
      run_sgd_head_phase(comm, opts, *net.sgd_head(), hidden, targets,
                         cfg.head_epochs, cfg.batch_size,
                         mix(cfg.seed, /*stream=*/2), sync_count);
    } else {
      run_bcpnn_head_phase(comm, opts, *net.bcpnn_head(), hidden,
                           targets, cfg.head_epochs, cfg.batch_size,
                           mix(cfg.seed, /*stream=*/2), sync_count);
    }
  } else {
    DeepBcpnn& deep = replica.deep();
    const DeepBcpnnConfig& cfg = deep.config();
    tensor::MatrixF current = x;
    for (std::size_t l = 0; l < deep.depth(); ++l) {
      run_unsupervised_phase(comm, opts, deep.engine(), deep.mutable_layer(l),
                             current, /*stream=*/16 + l, sync_count);
      tensor::MatrixF next;
      deep.mutable_layer(l).forward(current, next);
      if (cfg.propagate_wta) {
        tensor::wta_blocks(next, cfg.layers[l].mcus);
      }
      current = std::move(next);
    }
    const tensor::MatrixF head_input = deep.transform(x);
    const tensor::MatrixF targets =
        data::one_hot_labels(labels, cfg.classes);
    run_bcpnn_head_phase(comm, opts, deep.head(), head_input,
                         targets, cfg.head_epochs, cfg.batch_size,
                         mix(cfg.seed, /*stream=*/2), sync_count);
  }

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
  if (src.hidden_specs().size() == 1) {
    const Network& from = src.network();
    Network& to = dst.network();
    to.mutable_hidden().set_state(from.hidden().traces(),
                                  from.hidden().masks());
    if (from.sgd_head() != nullptr) {
      to.sgd_head()->set_state(from.sgd_head()->weights(),
                               from.sgd_head()->bias());
    } else {
      to.bcpnn_head()->mutable_traces() = from.bcpnn_head()->traces();
      to.bcpnn_head()->recompute_weights();
    }
  } else {
    const DeepBcpnn& from = src.deep();
    DeepBcpnn& to = dst.deep();
    for (std::size_t l = 0; l < from.depth(); ++l) {
      to.mutable_layer(l).set_state(from.layer(l).traces(),
                                    from.layer(l).masks());
    }
    to.head().mutable_traces() = from.head().traces();
    to.head().recompute_weights();
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
  if (!model.compiled()) {
    throw std::logic_error("DistributedTrainer::fit: model not compiled");
  }
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("DistributedTrainer::fit: rows != labels");
  }
  if (x.rows() == 0) {
    throw std::invalid_argument("DistributedTrainer::fit: empty dataset");
  }

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
  if (!model.compiled()) {
    throw std::logic_error("DistributedTrainer::fit_rank: model not compiled");
  }
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("DistributedTrainer::fit_rank: rows != labels");
  }
  if (x.rows() == 0) {
    throw std::invalid_argument("DistributedTrainer::fit_rank: empty dataset");
  }
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
