// Quantized serving walkthrough: train, prune, sparsify, QUANTIZE,
// checkpoint, and serve the int8 read-only model through the sharded
// AsyncPredictor, with the new latency percentiles from the stats
// snapshot.
//
// The point of the exercise: quantize() composes with sparsify() — the
// quant-sparse replica stores one int8 code per surviving weight plus
// one fp32 scale per output row, the smallest replica the serving stack
// can clone. Accuracy moves by at most the block-quantization error
// (gated at 8 bits by the golden suite), and within a host every shard
// and batch split stays bit-identical to the serial quantized model.
//
//   ./example_quantized_serving [--density 0.1] [--block 32] [--shards 4]

#include <cstdio>

#include "streambrain/streambrain.hpp"

using namespace streambrain;
namespace sc = streambrain::core;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const double density = args.get_double("density", 0.1);
  const auto block =
      static_cast<std::size_t>(args.get_int("block", 32));
  const auto shards =
      static_cast<std::size_t>(args.get_int("shards", 4));

  // --- 1. Train a dense model -------------------------------------------
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
      .compile("simd", /*seed=*/42);
  model.fit(x_train, train.labels);
  std::printf("dense accuracy            : %.4f\n",
              model.evaluate(x_test, test.labels));

  // --- 2. Prune, sparsify, quantize: the full compression pipeline ------
  sc::prune_model(model, density);
  sc::Model sparse = model.sparsify();
  sc::QuantOptions qopts;
  qopts.block_size = block;  // only affects the dense form; the sparse
                             // form scales per output row
  sc::Model quant = sparse.quantize(qopts);
  const auto& qcsr = quant.network().layer(0).inference_weights().quant_csr();
  std::printf(
      "quant-sparse replica      : %zu KiB (fp32 CSR was %zu KiB, dense "
      "weights %zu KiB)\n",
      qcsr.memory_bytes() / 1024,
      sparse.network().layer(0).inference_weights().memory_bytes() / 1024,
      qcsr.rows() * qcsr.cols() * sizeof(float) / 1024);
  std::printf("quantized accuracy        : %.4f\n",
              quant.evaluate(x_test, test.labels));

  // A dense model quantizes directly too (no sparsify required):
  //   sc::Model quant_dense = model.quantize({.block_size = 32});

  // --- 3. Checkpoint the quantized form (format v4) ----------------------
  quant.save("model_quant.sbrn");
  auto snapshot = std::make_shared<sc::Model>();
  snapshot->load("model_quant.sbrn");
  std::printf("reloaded quantized model  : %s\n",
              snapshot->quantized() ? "quantized (v4 checkpoint)"
                                    : "dense?!");

  // --- 4. Serve it: every shard replica is an int8 clone -----------------
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
      "served %zu rows on %zu int8 shards: accuracy %.4f, %zu batches, "
      "%.0f rows/s of shard compute, p50 %.1fus / p99 %.1fus end-to-end\n",
      labels.size(), server.shards(),
      static_cast<double>(correct) / static_cast<double>(labels.size()),
      static_cast<std::size_t>(stats.batches),
      stats.model_throughput_rows_per_second(),
      stats.p50_latency_seconds * 1e6, stats.p99_latency_seconds * 1e6);
  return 0;
}
