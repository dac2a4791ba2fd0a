// Quantized-kernel benchmark: int8 block-scaled qgemv/qspmv against the
// fp32 gemv/spmv path per dispatch tier, plus an end-to-end sweep of
// the four model forms (dense fp32, sparse fp32, quant-dense,
// quant-sparse) comparing serving throughput and replica weight bytes.
// Emits BENCH_quant.json; the acceptance bars for the subsystem are
// qgemv beating fp32 gemv on the widest tier the host offers (the AVX2
// maddubs kernel) and the quant-sparse replica weighing less than the
// sparse fp32 one.
//
//   bench_quant [--out BENCH_quant.json] [--reps 7]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "streambrain/streambrain.hpp"

using namespace streambrain;
namespace st = streambrain::tensor;
namespace sc = streambrain::core;

namespace {

struct KernelResult {
  std::string op;  // "qgemv" | "qspmv"
  std::string tier;
  double fp32_seconds = 0.0;
  double quant_seconds = 0.0;
  double speedup = 0.0;  // fp32 / quant, same tier
  std::size_t fp32_bytes = 0;
  std::size_t quant_bytes = 0;
};

struct ModelResult {
  std::string form;  // "dense" | "sparse" | "quant" | "sparse_quant"
  double rows_per_second = 0.0;
  std::size_t weight_bytes = 0;  // replica weights (+ scales/indices) + biases
};

template <typename Fn>
double time_call(std::size_t reps, Fn&& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<const st::KernelSet*> available_tiers() {
  std::vector<const st::KernelSet*> tiers;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (const st::KernelSet* set = st::kernel_set_for(level)) {
      tiers.push_back(set);
    }
  }
  return tiers;
}

st::MatrixF random_dense(std::size_t rows, std::size_t cols, util::Rng& rng) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

st::MatrixF random_sparse(std::size_t rows, std::size_t cols, double density,
                          util::Rng& rng) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) {
    if (rng.uniform(0.0, 1.0) < density) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_quant.json");
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("reps", 7)));

  const st::DispatchLevel original = st::active_kernels().level;
  std::printf("=== Quantized kernel bench (op x tier) ===\n");

  // --- Kernel sweep -------------------------------------------------------
  // W [n_in x n_out] as in BCPNN support, W^T quantized per output row;
  // batch = 1 (the qgemv serving case). Activations are quantized once
  // outside the timed region: the comparison is kernel vs kernel, and
  // the O(k) row quantization is noise next to the O(m*k) product.
  constexpr std::size_t kIn = 2048;
  constexpr std::size_t kOut = 512;
  constexpr std::size_t kBlock = 32;
  constexpr double kSparseDensity = 0.1;

  util::Rng rng(20260807);
  const st::MatrixF w = random_dense(kIn, kOut, rng);
  const st::MatrixF wt_dense = [&] {
    st::MatrixF t(kOut, kIn, 0.0f);
    for (std::size_t i = 0; i < kIn; ++i) {
      for (std::size_t j = 0; j < kOut; ++j) t(j, i) = w(i, j);
    }
    return t;
  }();
  const st::QuantBlockMatrix wq =
      st::QuantBlockMatrix::from_dense_transposed(w, kBlock);

  const st::MatrixF w_sparse = random_sparse(kIn, kOut, kSparseDensity, rng);
  const st::CsrMatrix wt_csr = st::CsrMatrix::from_dense_transposed(w_sparse);
  const st::QuantCsr wt_qcsr = st::QuantCsr::from_csr(wt_csr);

  std::vector<float> x(kIn);
  for (float& v : x) v = static_cast<float>(rng.uniform(0.0, 1.0));
  std::vector<std::uint8_t> qx(kIn);
  const float sx = st::quantize_activation_row(x.data(), kIn, qx.data());
  std::vector<float> y(kOut, 0.0f);

  std::vector<KernelResult> kernel_results;
  double widest_qgemv_speedup = 0.0;
  std::string widest_tier = "scalar";

  for (const st::KernelSet* tier : available_tiers()) {
    widest_tier = tier->name;
    st::force_dispatch(tier->level);

    KernelResult qgemv_result;
    qgemv_result.op = "qgemv";
    qgemv_result.tier = tier->name;
    qgemv_result.fp32_seconds = time_call(reps, [&] {
      tier->gemv(wt_dense.data(), kIn, x.data(), y.data(), kOut, kIn);
    });
    qgemv_result.quant_seconds =
        time_call(reps, [&] { st::qgemv(wq, qx.data(), sx, y.data()); });
    qgemv_result.speedup =
        qgemv_result.fp32_seconds / qgemv_result.quant_seconds;
    qgemv_result.fp32_bytes = kIn * kOut * sizeof(float);
    qgemv_result.quant_bytes = wq.memory_bytes();
    kernel_results.push_back(qgemv_result);
    widest_qgemv_speedup = qgemv_result.speedup;

    KernelResult qspmv_result;
    qspmv_result.op = "qspmv";
    qspmv_result.tier = tier->name;
    qspmv_result.fp32_seconds =
        time_call(reps, [&] { st::spmv(wt_csr, x.data(), y.data()); });
    qspmv_result.quant_seconds =
        time_call(reps, [&] { st::qspmv(wt_qcsr, qx.data(), sx, y.data()); });
    qspmv_result.speedup =
        qspmv_result.fp32_seconds / qspmv_result.quant_seconds;
    qspmv_result.fp32_bytes = wt_csr.memory_bytes();
    qspmv_result.quant_bytes = wt_qcsr.memory_bytes();
    kernel_results.push_back(qspmv_result);

    for (const KernelResult& r :
         {kernel_results[kernel_results.size() - 2], kernel_results.back()}) {
      std::printf(
          "%-6s %-6s  fp32 %.3fms  int8 %.3fms  %5.2fx  (%zu -> %zu KiB)\n",
          r.tier.c_str(), r.op.c_str(), r.fp32_seconds * 1e3,
          r.quant_seconds * 1e3, r.speedup, r.fp32_bytes / 1024,
          r.quant_bytes / 1024);
    }
  }
  st::force_dispatch(original);

  // --- End-to-end model form sweep ----------------------------------------
  std::printf("\n=== Model forms: dense / sparse / quant / sparse+quant ===\n");
  data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(600);
  data::HiggsGeneratorOptions test_opts;
  test_opts.seed = 99;
  data::SyntheticHiggsGenerator test_generator(test_opts);
  const auto test = test_generator.generate(512);
  encode::OneHotEncoder encoder(10);
  const st::MatrixF x_train = encoder.fit_transform(train.features);
  const st::MatrixF x_test = encoder.transform(test.features);

  sc::Model dense;
  dense.input(28, 10)
      .hidden(1, 128, 0.4)
      .classifier(2, sc::HeadType::kSgd)
      .set_option("epochs", 2)
      .compile("simd", 7);
  dense.fit(x_train, train.labels);
  sc::Model quant = dense.quantize();
  sc::prune_model(dense, 0.1);
  sc::Model sparse = dense.sparsify();
  sc::Model sparse_quant = sparse.quantize();

  auto bias_bytes = [](const sc::Model& m) {
    return (m.network().hidden().config().hcus *
                m.network().hidden().config().mcus +
            2) *
           sizeof(float);
  };
  auto rows_per_second = [&](sc::Model& m) {
    const double seconds = time_call(reps, [&] { (void)m.predict(x_test); });
    return static_cast<double>(x_test.rows()) / seconds;
  };

  std::vector<ModelResult> model_results;
  {
    const auto& hidden = dense.network().hidden();
    ModelResult r;
    r.form = "dense";
    r.rows_per_second = rows_per_second(dense);
    r.weight_bytes = hidden.config().input_units() * hidden.config().hcus *
                         hidden.config().mcus * sizeof(float) +
                     bias_bytes(dense);
    model_results.push_back(r);
  }
  for (const auto& [form, model] :
       {std::pair<const char*, sc::Model*>{"sparse", &sparse},
        {"quant", &quant},
        {"sparse_quant", &sparse_quant}}) {
    ModelResult r;
    r.form = form;
    r.rows_per_second = rows_per_second(*model);
    r.weight_bytes =
        model->network().hidden().inference_weights().memory_bytes() +
        model->network().sgd_head()->inference_weights().memory_bytes() +
        bias_bytes(*model);
    model_results.push_back(r);
  }
  for (const ModelResult& r : model_results) {
    std::printf("%-12s  %8.0f rows/s  weights %zu KiB\n", r.form.c_str(),
                r.rows_per_second, r.weight_bytes / 1024);
  }

  const bool qgemv_beats_gemv = widest_qgemv_speedup > 1.0;
  const bool sparse_quant_bytes_below_sparse =
      model_results[3].weight_bytes < model_results[1].weight_bytes;

  // --- JSON report --------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"quant\",\n";
  out << "  \"widest_tier\": \"" << widest_tier << "\",\n";
  out << "  \"widest_tier_qgemv_speedup\": " << widest_qgemv_speedup << ",\n";
  out << "  \"qgemv_beats_gemv\": " << (qgemv_beats_gemv ? "true" : "false")
      << ",\n";
  out << "  \"sparse_quant_bytes_below_sparse\": "
      << (sparse_quant_bytes_below_sparse ? "true" : "false") << ",\n";
  out << "  \"kernel_results\": [\n";
  for (std::size_t i = 0; i < kernel_results.size(); ++i) {
    const KernelResult& r = kernel_results[i];
    out << "    {\"op\": \"" << r.op << "\", \"tier\": \"" << r.tier
        << "\", \"fp32_seconds\": " << r.fp32_seconds
        << ", \"quant_seconds\": " << r.quant_seconds
        << ", \"speedup\": " << r.speedup
        << ", \"fp32_bytes\": " << r.fp32_bytes
        << ", \"quant_bytes\": " << r.quant_bytes << "}"
        << (i + 1 < kernel_results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"model_results\": [\n";
  for (std::size_t i = 0; i < model_results.size(); ++i) {
    const ModelResult& r = model_results[i];
    out << "    {\"form\": \"" << r.form
        << "\", \"rows_per_second\": " << r.rows_per_second
        << ", \"weight_bytes\": " << r.weight_bytes << "}"
        << (i + 1 < model_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf(
      "\nwidest-tier (%s) qgemv speedup: %.2fx  qgemv_beats_gemv=%s  "
      "sparse_quant_bytes_below_sparse=%s\nwrote %s\n",
      widest_tier.c_str(), widest_qgemv_speedup,
      qgemv_beats_gemv ? "true" : "false",
      sparse_quant_bytes_below_sparse ? "true" : "false", out_path.c_str());
  return 0;
}
