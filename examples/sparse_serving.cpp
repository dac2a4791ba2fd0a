// Sparse serving walkthrough: train, prune, sparsify, checkpoint, and
// serve the compact read-only model through the sharded AsyncPredictor.
//
// The point of the exercise: a sparsified replica stores only the CSR of
// the surviving weights (the traces are gone), so it costs a fraction of
// a dense clone — which is exactly what bounds how many ShardPool
// replicas fit on one serving host.
//
//   ./example_sparse_serving [--density 0.1] [--shards 4]

#include <cstdio>

#include "streambrain/streambrain.hpp"

using namespace streambrain;
namespace sc = streambrain::core;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const double density = args.get_double("density", 0.1);
  const auto shards =
      static_cast<std::size_t>(args.get_int("shards", 4));

  // --- 1. Train a dense model (optionally pruning *during* training) ----
  data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(2000);
  data::HiggsGeneratorOptions test_opts;
  test_opts.seed = 99;
  data::SyntheticHiggsGenerator test_generator(test_opts);
  const auto test = test_generator.generate(500);
  encode::OneHotEncoder encoder(10);
  const tensor::MatrixF x_train = encoder.fit_transform(train.features);
  const tensor::MatrixF x_test = encoder.transform(test.features);

  sc::Model model;
  model.input(28, 10)
      .hidden(1, 128, 0.4)
      .classifier(2, sc::HeadType::kSgd)
      .set_option("epochs", 4)
      // In-training prune/rewire: keep 50% of weights, re-selected every
      // 2 epochs, so training already adapts to the sparsity budget.
      .set_option("prune_density", 0.5)
      .set_option("prune_cadence", 2)
      .compile("simd", /*seed=*/42);
  model.fit(x_train, train.labels);
  std::printf("dense accuracy          : %.4f\n",
              model.evaluate(x_test, test.labels));

  // --- 2. One-shot post-training prune to the serving budget ------------
  sc::prune_model(model, density);
  std::printf("pruned accuracy (d=%.2f): %.4f  (hidden density %.3f)\n",
              density, model.evaluate(x_test, test.labels),
              model.network().layer(0).weight_density());

  // --- 3. Sparsify: compact read-only clone ------------------------------
  sc::Model sparse = model.sparsify();
  const auto& csr = sparse.network().layer(0).inference_weights().csr();
  std::printf("sparse replica          : %zu KiB CSR (dense weights were "
              "%zu KiB + traces)\n",
              csr.memory_bytes() / 1024,
              csr.rows() * csr.cols() * sizeof(float) / 1024);
  // Identical predictions, guaranteed bit-for-bit at scalar dispatch:
  std::printf("sparse accuracy         : %.4f\n",
              sparse.evaluate(x_test, test.labels));

  // --- 4. Checkpoint the sparse form (format v4) -------------------------
  sparse.save("model_sparse.sbrn");
  auto snapshot = std::make_shared<sc::Model>();
  snapshot->load("model_sparse.sbrn");
  std::printf("reloaded sparse model   : %s\n",
              snapshot->sparse() ? "sparse (v4 checkpoint)" : "dense?!");

  // --- 5. Serve it: every shard replica is a sparse clone ----------------
  AsyncPredictorOptions options;
  options.shards = shards;
  options.max_batch_rows = 128;
  options.score_cache_rows = 4096;
  AsyncPredictor server(snapshot, options);
  auto labels = server.submit(x_test).get();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    correct += labels[i] == test.labels[i];
  }
  const auto stats = server.stats();
  std::printf(
      "served %zu rows on %zu sparse shards: accuracy %.4f, %zu batches, "
      "%.0f rows/s of shard compute\n",
      labels.size(), server.shards(),
      static_cast<double>(correct) / static_cast<double>(labels.size()),
      static_cast<std::size_t>(stats.batches),
      stats.model_throughput_rows_per_second());
  return 0;
}
