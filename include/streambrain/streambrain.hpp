#pragma once
// StreamBrain-C++ umbrella header — the single include for user code.
// Examples, benches, and downstream applications include only this file;
// the src/ layout underneath is an implementation detail that may be
// re-organized without breaking user builds.
//
//   #include "streambrain/streambrain.hpp"
//
//   streambrain::core::Model model;
//   model.input(28, 10).hidden(1, 300, 0.40).classifier(2).compile("simd");
//   model.fit(x_train, y_train);
//   model.save("model.sbrn");
//
//   auto snapshot = std::make_shared<streambrain::core::Model>();
//   snapshot->load("model.sbrn");
//   streambrain::AsyncPredictor server(snapshot, {.shards = 4});
//   auto labels = server.submit(x_test).get();  // sharded, micro-batched

// --- Public API layer -------------------------------------------------------
#include "api/ab_lane.hpp"
#include "api/async_predictor.hpp"
#include "api/estimator.hpp"
#include "api/online_trainer.hpp"

// --- Serving substrate ------------------------------------------------------
#include "serve/request_queue.hpp"
#include "serve/score_cache.hpp"
#include "serve/shard_pool.hpp"

// --- Core BCPNN stack -------------------------------------------------------
#include "core/adaptive_plasticity.hpp"
#include "core/classifier.hpp"
#include "core/distributed.hpp"
#include "core/head.hpp"
#include "core/hyperparams.hpp"
#include "core/layer.hpp"
#include "core/model.hpp"
#include "core/network.hpp"
#include "core/pipeline.hpp"
#include "core/plasticity.hpp"
#include "core/pruning.hpp"
#include "core/semi_supervised.hpp"
#include "core/serialization.hpp"
#include "core/sgd_head.hpp"
#include "core/traces.hpp"

// --- Compute engines --------------------------------------------------------
#include "parallel/engine.hpp"
#include "parallel/engine_registry.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

// --- Message passing --------------------------------------------------------
#include "comm/communicator.hpp"
#include "comm/transport.hpp"

// --- Tensor primitives ------------------------------------------------------
#include "tensor/cpu_features.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "tensor/quant.hpp"
#include "tensor/vecmath.hpp"
#include "tensor/weight_store.hpp"

// --- Data loading & encoding ------------------------------------------------
#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "data/higgs.hpp"
#include "data/idx_loader.hpp"
#include "encode/one_hot.hpp"
#include "encode/quantile.hpp"

// --- Baselines --------------------------------------------------------------
#include "baselines/adaboost.hpp"
#include "baselines/classifier.hpp"
#include "baselines/logistic.hpp"
#include "baselines/mlp.hpp"
#include "baselines/naive_bayes.hpp"

// --- Metrics ----------------------------------------------------------------
#include "metrics/ams.hpp"
#include "metrics/classification.hpp"
#include "metrics/pr.hpp"
#include "metrics/roc.hpp"

// --- Hyper-parameter search -------------------------------------------------
#include "hpo/search.hpp"
#include "hpo/space.hpp"

// --- Utilities --------------------------------------------------------------
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

// --- Visualization / in-situ ------------------------------------------------
#include "viz/ascii.hpp"
#include "viz/catalyst.hpp"
#include "viz/pgm_writer.hpp"
#include "viz/ppm_writer.hpp"
#include "viz/vti_writer.hpp"
