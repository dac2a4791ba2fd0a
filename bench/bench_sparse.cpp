// Sparse-kernel benchmark: spmv/spmm against the dense GEMV/GEMM path,
// swept over weight density x dispatch tier, plus an end-to-end
// comparison of a pruned+sparsified model against its masked dense
// original (serving throughput and replica memory). Emits
// BENCH_sparse.json; the acceptance bar for the subsystem is sparse
// beating dense at <= 10% density on the widest tier the host offers.
//
//   bench_sparse [--out BENCH_sparse.json] [--reps 7]

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
  std::string op;      // "spmv" | "spmm"
  std::string tier;
  double density = 0.0;
  double dense_seconds = 0.0;
  double sparse_seconds = 0.0;
  double speedup = 0.0;  // dense / sparse, same tier
  std::size_t dense_bytes = 0;
  std::size_t sparse_bytes = 0;
};

struct ModelResult {
  std::string head;
  double density = 0.0;
  double dense_rows_per_second = 0.0;
  double sparse_rows_per_second = 0.0;
  double speedup = 0.0;
  std::size_t dense_weight_bytes = 0;   // weights + traces of the replica
  std::size_t sparse_weight_bytes = 0;  // CSR payloads + biases
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

/// Approximate learned-state bytes of one dense serving replica: the
/// weight matrix plus the probability traces it is recomputed from
/// (p_ij dominates and matches the weight shape).
std::size_t dense_replica_bytes(std::size_t inputs, std::size_t outputs) {
  return (2 * inputs * outputs + inputs + 2 * outputs) * sizeof(float);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_sparse.json");
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("reps", 7)));

  const st::DispatchLevel original = st::active_kernels().level;
  std::printf("=== Sparse kernel bench (density x tier) ===\n");

  // --- Kernel sweep -------------------------------------------------------
  // W [n_in x n_out] as in BCPNN support; spmv serves batch=1, spmm a
  // 64-row micro-batch (the serving coalescing case).
  constexpr std::size_t kIn = 2048;
  constexpr std::size_t kOut = 512;
  constexpr std::size_t kBatch = 64;
  const std::vector<double> densities = {0.01, 0.05, 0.1, 0.25, 0.5, 1.0};

  std::vector<KernelResult> kernel_results;
  double best_speedup_spmm_10pct = 0.0;
  std::string widest_tier = "scalar";

  for (const st::KernelSet* tier : available_tiers()) {
    widest_tier = tier->name;
    st::force_dispatch(tier->level);
    for (const double density : densities) {
      util::Rng rng(static_cast<std::uint64_t>(density * 1000) + 17);
      const st::MatrixF w = random_sparse(kIn, kOut, density, rng);
      const st::MatrixF wt_dense = [&] {
        st::MatrixF t(kOut, kIn, 0.0f);
        for (std::size_t i = 0; i < kIn; ++i) {
          for (std::size_t j = 0; j < kOut; ++j) t(j, i) = w(i, j);
        }
        return t;
      }();
      const st::CsrMatrix wt = st::CsrMatrix::from_dense_transposed(w);

      std::vector<float> x(kIn);
      for (float& v : x) v = static_cast<float>(rng.uniform(0.0, 1.0));
      std::vector<float> y(kOut, 0.0f);

      KernelResult spmv_result;
      spmv_result.op = "spmv";
      spmv_result.tier = tier->name;
      spmv_result.density = density;
      spmv_result.dense_seconds = time_call(reps, [&] {
        tier->gemv(wt_dense.data(), kIn, x.data(), y.data(), kOut, kIn);
      });
      spmv_result.sparse_seconds =
          time_call(reps, [&] { st::spmv(wt, x.data(), y.data()); });
      spmv_result.speedup =
          spmv_result.dense_seconds / spmv_result.sparse_seconds;
      spmv_result.dense_bytes = kIn * kOut * sizeof(float);
      spmv_result.sparse_bytes = wt.memory_bytes();
      kernel_results.push_back(spmv_result);

      st::MatrixF batch(kBatch, kIn, 0.0f);
      for (float& v : batch) v = static_cast<float>(rng.uniform(0.0, 1.0));
      st::MatrixF s_dense(kBatch, kOut, 0.0f);
      st::MatrixF s_sparse;

      KernelResult spmm_result;
      spmm_result.op = "spmm";
      spmm_result.tier = tier->name;
      spmm_result.density = density;
      spmm_result.dense_seconds = time_call(reps, [&] {
        st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, batch, w,
                 0.0f, s_dense);
      });
      spmm_result.sparse_seconds =
          time_call(reps, [&] { st::spmm_bt(wt, batch, s_sparse); });
      spmm_result.speedup =
          spmm_result.dense_seconds / spmm_result.sparse_seconds;
      spmm_result.dense_bytes = kIn * kOut * sizeof(float);
      spmm_result.sparse_bytes = wt.memory_bytes();
      kernel_results.push_back(spmm_result);

      if (density <= 0.1) {
        best_speedup_spmm_10pct =
            std::max(best_speedup_spmm_10pct, spmm_result.speedup);
      }
      std::printf(
          "%-6s %-6s d=%.2f  dense %.3fms  sparse %.3fms  %5.2fx  (%zu -> "
          "%zu KiB)\n",
          tier->name, spmm_result.op.c_str(), density,
          spmm_result.dense_seconds * 1e3, spmm_result.sparse_seconds * 1e3,
          spmm_result.speedup, spmm_result.dense_bytes / 1024,
          spmm_result.sparse_bytes / 1024);
    }
  }
  st::force_dispatch(original);

  // --- End-to-end model comparison ---------------------------------------
  std::printf("\n=== Pruned + sparsified model vs masked dense ===\n");
  data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(600);
  data::HiggsGeneratorOptions test_opts;
  test_opts.seed = 99;
  data::SyntheticHiggsGenerator test_generator(test_opts);
  const auto test = test_generator.generate(512);
  encode::OneHotEncoder encoder(10);
  const st::MatrixF x_train = encoder.fit_transform(train.features);
  const st::MatrixF x_test = encoder.transform(test.features);

  std::vector<ModelResult> model_results;
  for (const double density : {0.05, 0.1, 0.25}) {
    sc::Model dense;
    dense.input(28, 10)
        .hidden(1, 128, 0.4)
        .classifier(2, sc::HeadType::kSgd)
        .set_option("epochs", 2)
        .compile("simd", 7);
    dense.fit(x_train, train.labels);
    sc::prune_model(dense, density);
    sc::Model sparse = dense.sparsify();

    ModelResult result;
    result.head = "sgd";
    result.density = density;
    const double dense_seconds =
        time_call(reps, [&] { (void)dense.predict(x_test); });
    const double sparse_seconds =
        time_call(reps, [&] { (void)sparse.predict(x_test); });
    result.dense_rows_per_second =
        static_cast<double>(x_test.rows()) / dense_seconds;
    result.sparse_rows_per_second =
        static_cast<double>(x_test.rows()) / sparse_seconds;
    result.speedup = dense_seconds / sparse_seconds;

    const auto& hidden_csr =
        sparse.network().hidden().inference_weights().csr();
    const auto& head_csr =
        sparse.network().sgd_head()->inference_weights().csr();
    result.dense_weight_bytes =
        dense_replica_bytes(hidden_csr.cols(), hidden_csr.rows()) +
        head_csr.cols() * head_csr.rows() * sizeof(float);
    result.sparse_weight_bytes =
        hidden_csr.memory_bytes() + head_csr.memory_bytes() +
        (hidden_csr.rows() + head_csr.rows()) * sizeof(float);
    model_results.push_back(result);
    std::printf(
        "d=%.2f  dense %.0f rows/s  sparse %.0f rows/s  %4.2fx  replica %zu "
        "-> %zu KiB\n",
        density, result.dense_rows_per_second, result.sparse_rows_per_second,
        result.speedup, result.dense_weight_bytes / 1024,
        result.sparse_weight_bytes / 1024);
  }

  // --- JSON report --------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"sparse\",\n";
  out << "  \"widest_tier\": \"" << widest_tier << "\",\n";
  out << "  \"best_spmm_speedup_at_le_10pct_density\": "
      << best_speedup_spmm_10pct << ",\n";
  out << "  \"kernel_results\": [\n";
  for (std::size_t i = 0; i < kernel_results.size(); ++i) {
    const KernelResult& r = kernel_results[i];
    out << "    {\"op\": \"" << r.op << "\", \"tier\": \"" << r.tier
        << "\", \"density\": " << r.density
        << ", \"dense_seconds\": " << r.dense_seconds
        << ", \"sparse_seconds\": " << r.sparse_seconds
        << ", \"speedup\": " << r.speedup
        << ", \"dense_bytes\": " << r.dense_bytes
        << ", \"sparse_bytes\": " << r.sparse_bytes << "}"
        << (i + 1 < kernel_results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"model_results\": [\n";
  for (std::size_t i = 0; i < model_results.size(); ++i) {
    const ModelResult& r = model_results[i];
    out << "    {\"head\": \"" << r.head << "\", \"density\": " << r.density
        << ", \"dense_rows_per_second\": " << r.dense_rows_per_second
        << ", \"sparse_rows_per_second\": " << r.sparse_rows_per_second
        << ", \"speedup\": " << r.speedup
        << ", \"dense_replica_bytes\": " << r.dense_weight_bytes
        << ", \"sparse_replica_bytes\": " << r.sparse_weight_bytes << "}"
        << (i + 1 < model_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nbest spmm speedup at <=10%% density: %.2fx\nwrote %s\n",
              best_speedup_spmm_10pct, out_path.c_str());
  return 0;
}
