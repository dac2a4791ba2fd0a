// Kernel-dispatch microbenchmark: times every available kernel tier
// (scalar / sse42 / avx2) on the primitives that dominate BCPNN training
// — GEMM above all — and emits BENCH_kernels.json with per-tier numbers
// and speedups over the scalar reference. The acceptance bar for the
// SIMD subsystem is >= 2x GEMM speedup on AVX2 hardware.
//
// The zero-skip rows time tensor::gemm against gemm_blocked at the
// paper's shapes (one-hot 28 x 10 inputs into 300 and 3000 outputs, the
// support product X W and the trace product X^T A), and sweep op(A)'s
// density from 0.05 to 0.5 through gemm_sparse_a, which is where
// tensor::kSparseDensityCrossover comes from.
//
// The paired rows time two ways to the same bits at every tier: the
// simd engine's support_masked against its support on the one-hot
// input of a 1 x 3000 and a 1 x 300 layer whose receptive field keeps
// 12 of the 28 input hypercolumns, and the multi-block softmax_blocks
// against one call per block.
//
// The JSON header names the build (git sha at configure time, compiler,
// build type), the host's cores and dispatch tier, and the statistic:
// every time is the median of --reps timed calls after one warmup, with
// the median absolute deviation beside it.
//
//   bench_kernels [--out BENCH_kernels.json] [--reps 5]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "streambrain/streambrain.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/kernel_set.hpp"

using namespace streambrain;
namespace st = streambrain::tensor;

namespace {

/// Median and median absolute deviation of the timed calls.
struct Timing {
  double median = 0.0;
  double mad = 0.0;
};

struct Result {
  std::string kernel;
  std::string shape;
  std::string tier;
  Timing time;
  double gflops = 0.0;
  double speedup_vs_scalar = 1.0;
};

/// tensor::gemm (or gemm_sparse_a) against gemm_blocked on one shape.
struct SkipResult {
  std::string op;      ///< "support" (X W) or "traces" (X^T A)
  std::string entry;   ///< the timed zero-skipping entry point
  std::string shape;   ///< m x k x n of the product
  double density = 0.0;
  std::string tier;
  Timing dense;
  Timing skipping;
};

st::MatrixF random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median and MAD of `reps` wall times of `fn` (one warmup call first).
template <typename Fn>
Timing time_call(std::size_t reps, Fn&& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  const double median = median_of(times);
  for (double& t : times) t = std::abs(t - median);
  return {median, median_of(times)};
}

/// A batch of the paper's input code: 28 features x 10 bins, one hot.
st::MatrixF one_hot_batch(std::size_t rows, util::Rng& rng) {
  st::MatrixF x(rows, 280, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < 28; ++f) {
      x(r, f * 10 + static_cast<std::size_t>(rng.uniform_int(0, 9))) = 1.0f;
    }
  }
  return x;
}

/// Uniform [-1, 1] entries, each kept with probability `density`.
st::MatrixF sparse_matrix(std::size_t rows, std::size_t cols, double density,
                          util::Rng& rng) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) {
    if (rng.uniform() < density) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

std::string shape_name(std::size_t m, std::size_t k, std::size_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

/// Two entry points to the same bits on one shape and tier.
struct PairResult {
  std::string kernel;   ///< the timed entry point
  std::string against;  ///< the entry point it replaces
  std::string shape;
  std::string tier;
  Timing time;
  Timing against_time;
};

void print_pair(const PairResult& r) {
  std::printf("  %-14s vs %-16s %-14s %-7s %8.3f ms  vs %8.3f ms  %5.2fx\n",
              r.kernel.c_str(), r.against.c_str(), r.shape.c_str(),
              r.tier.c_str(), r.time.median * 1e3,
              r.against_time.median * 1e3,
              r.against_time.median / r.time.median);
}

void print_skip(const SkipResult& r) {
  std::printf("  %-7s %-13s %-14s d=%.2f %-7s dense %8.3f ms  skip %8.3f ms"
              "  %5.2fx\n",
              r.op.c_str(), r.entry.c_str(), r.shape.c_str(), r.density,
              r.tier.c_str(), r.dense.median * 1e3, r.skipping.median * 1e3,
              r.dense.median / r.skipping.median);
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

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("reps", 5)));

  const auto tiers = available_tiers();
  const st::DispatchLevel original = st::active_kernels().level;
  std::printf("=== Kernel dispatch microbench ===\n");
  std::printf("max supported: %s, active: %s, tiers built: %zu\n\n",
              st::dispatch_level_name(st::max_supported_dispatch()),
              st::dispatch_level_name(original), tiers.size());

  util::Rng rng(42);
  std::vector<Result> results;
  double gemm_best_speedup = 1.0;

  // --- GEMM through the public dispatched entry point -----------------
  // Three square shapes, then the classifier head's forward at the
  // paper's 1x3000 hidden layer: 256 rows x 3000 inputs into 2 classes.
  struct GemmShape {
    std::size_t m, k, n;
  };
  for (const GemmShape& dims : {GemmShape{128, 128, 128},
                                GemmShape{256, 256, 256},
                                GemmShape{384, 384, 384},
                                GemmShape{256, 3000, 2}}) {
    const st::MatrixF a = random_matrix(dims.m, dims.k, rng);
    const st::MatrixF b = random_matrix(dims.k, dims.n, rng);
    st::MatrixF c(dims.m, dims.n, 0.0f);
    const double flops = 2.0 * static_cast<double>(dims.m) * dims.k * dims.n;
    const std::string shape = shape_name(dims.m, dims.k, dims.n);
    double scalar_seconds = 0.0;
    for (const st::KernelSet* tier : tiers) {
      st::force_dispatch(tier->level);
      const Timing timing = time_call(reps, [&] {
        st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, a, b, 0.0f, c);
      });
      const double seconds = timing.median;
      Result result{"gemm", shape, tier->name, timing, flops / seconds / 1e9,
                    1.0};
      if (tier->level == st::DispatchLevel::kScalar) {
        scalar_seconds = seconds;
      } else if (scalar_seconds > 0.0) {
        result.speedup_vs_scalar = scalar_seconds / seconds;
        gemm_best_speedup = std::max(gemm_best_speedup,
                                     result.speedup_vs_scalar);
      }
      results.push_back(result);
      std::printf("  gemm %-12s %-7s %8.2f ms  %7.2f GFLOP/s  %5.2fx\n",
                  shape.c_str(), tier->name, seconds * 1e3,
                  result.gflops, result.speedup_vs_scalar);
    }
  }
  st::force_dispatch(original);

  // --- Vector primitives, per tier, straight through the vtable -------
  constexpr std::size_t kN = 1 << 16;
  st::MatrixF xs = random_matrix(1, kN, rng);
  st::MatrixF ys = random_matrix(1, kN, rng);
  st::MatrixF scratch(1, kN, 0.0f);
  const std::string vec_shape = "n=" + std::to_string(kN);
  struct VecBench {
    const char* name;
    double flops_per_elem;
  };
  volatile float sink = 0.0f;
  for (const st::KernelSet* tier : tiers) {
    const VecBench benches[5] = {{"axpy", 2.0},
                                 {"dot", 2.0},
                                 {"reduce_sum", 1.0},
                                 {"vexp", 1.0},
                                 {"softmax_blocks", 4.0}};
    for (int which = 0; which < 5; ++which) {
      const Timing timing = time_call(reps * 4, [&] {
        switch (which) {
          case 0:
            tier->axpy(0.5f, xs.data(), ys.data(), kN);
            break;
          case 1:
            sink = tier->dot(xs.data(), ys.data(), kN);
            break;
          case 2:
            sink = tier->sum(xs.data(), kN);
            break;
          case 3:
            tier->vexp(xs.data(), scratch.data(), kN);
            break;
          case 4:
            std::copy_n(xs.data(), kN, scratch.data());
            tier->softmax_blocks(scratch.data(), 1, kN, 1, kN, 1.0f);
            break;
        }
      });
      const double seconds = timing.median;
      Result result{benches[which].name, vec_shape, tier->name, timing,
                    benches[which].flops_per_elem * kN / seconds / 1e9, 1.0};
      // Tiers are iterated scalar-first, so the scalar time for this
      // bench is recorded in results already; look it up.
      for (const Result& prior : results) {
        if (prior.kernel == result.kernel && prior.shape == vec_shape &&
            prior.tier == std::string("scalar")) {
          result.speedup_vs_scalar = prior.time.median / seconds;
        }
      }
      results.push_back(result);
    }
  }
  (void)sink;

  // --- Zero-skipping GEMM: one-hot inputs at the paper's shapes ---------
  std::printf("\nzero-skip (dense = gemm_blocked):\n");
  std::vector<SkipResult> skips;
  for (const std::size_t outputs : {300UL, 3000UL}) {
    const st::MatrixF w = random_matrix(280, outputs, rng);
    for (const std::size_t batch : {64UL, 256UL}) {
      const st::MatrixF x = one_hot_batch(batch, rng);
      st::MatrixF act(batch, outputs, 0.0f);
      for (float& v : act) v = static_cast<float>(rng.uniform(0.0, 1.0));
      st::MatrixF s(batch, outputs, 0.0f);
      st::MatrixF pij(280, outputs, 0.5f);
      for (const st::KernelSet* tier : tiers) {
        st::force_dispatch(tier->level);
        const auto support = [&](auto&& gemm) {
          return time_call(reps, [&] {
            gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, x, w, 0.0f, s);
          });
        };
        const auto traces = [&](auto&& gemm) {
          return time_call(reps, [&] {
            gemm(st::Transpose::kYes, st::Transpose::kNo, 0.01f, x, act, 0.99f,
                 pij);
          });
        };
        skips.push_back({"support", "gemm", shape_name(batch, 280, outputs),
                         0.1, tier->name, support(st::gemm_blocked),
                         support(st::gemm)});
        print_skip(skips.back());
        skips.push_back({"traces", "gemm", shape_name(280, batch, outputs),
                         0.1, tier->name, traces(st::gemm_blocked),
                         traces(st::gemm)});
        print_skip(skips.back());
      }
    }
  }

  // --- Density sweep: where skipping stops paying ----------------------
  for (const auto& [batch, outputs] :
       {std::pair<std::size_t, std::size_t>{64, 300}, {256, 3000}}) {
    const st::MatrixF w = random_matrix(280, outputs, rng);
    st::MatrixF s(batch, outputs, 0.0f);
    for (const double density :
         {0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}) {
      const st::MatrixF x = sparse_matrix(batch, 280, density, rng);
      for (const st::KernelSet* tier : tiers) {
        st::force_dispatch(tier->level);
        const auto support = [&](auto&& gemm) {
          return time_call(reps, [&] {
            gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, x, w, 0.0f, s);
          });
        };
        skips.push_back({"support", "gemm_sparse_a",
                         shape_name(batch, 280, outputs), density, tier->name,
                         support(st::gemm_blocked),
                         support(st::gemm_sparse_a)});
        print_skip(skips.back());
      }
    }
  }
  st::force_dispatch(original);

  // --- The masked support and the multi-block softmax -------------------
  std::printf("\npaired (same bits):\n");
  std::vector<PairResult> pairs;
  auto engine = parallel::EngineRegistry::instance().create("simd");
  constexpr std::size_t kInputHypercolumns = 28;
  constexpr std::size_t kActiveHypercolumns = 12;
  for (const auto& [batch, outputs] :
       {std::pair<std::size_t, std::size_t>{256, 3000}, {64, 300}}) {
    // One HCU listening to the first 12 of 28 input hypercolumns; the
    // silenced blocks of W hold +0.0, as the layer keeps them.
    std::vector<std::uint8_t> active(kInputHypercolumns, 0);
    std::fill_n(active.begin(), kActiveHypercolumns, 1);
    const parallel::WeightMask mask{
        .block_rows = 10, .block_cols = outputs, .active = active.data()};
    st::MatrixF w = random_matrix(280, outputs, rng);
    mask.apply(w);
    const std::vector<float> bias(outputs, 0.25f);
    const st::MatrixF x = one_hot_batch(batch, rng);
    st::MatrixF s(batch, outputs, 0.0f);
    for (const st::KernelSet* tier : tiers) {
      st::force_dispatch(tier->level);
      const Timing masked = time_call(reps, [&] {
        engine->support_masked(x, w, bias.data(), mask, s);
      });
      const Timing plain =
          time_call(reps, [&] { engine->support(x, w, bias.data(), s); });
      pairs.push_back({"support_masked", "support",
                       shape_name(batch, 280, outputs), tier->name, masked,
                       plain});
      print_pair(pairs.back());
    }
  }
  st::force_dispatch(original);
  for (const auto& [rows, n] : {std::pair<std::size_t, std::size_t>{256, 3000},
                                {64, 300},
                                {64, 2}}) {
    st::MatrixF values = random_matrix(rows, n, rng);
    const std::string shape = std::to_string(rows) + "x" + std::to_string(n);
    for (const st::KernelSet* tier : tiers) {
      const Timing blocked = time_call(reps * 4, [&] {
        tier->softmax_blocks(values.data(), rows, n, 1, n, 1.0f);
      });
      const Timing one_by_one = time_call(reps * 4, [&] {
        for (std::size_t r = 0; r < rows; ++r) {
          tier->softmax_blocks(values.row(r), 1, n, 1, n, 1.0f);
        }
      });
      pairs.push_back({"softmax_blocks", "one block a call", shape,
                       tier->name, blocked, one_by_one});
      print_pair(pairs.back());
    }
  }

  // --- JSON report ------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"kernels\",\n";
  out << "  \"header\": {\"git_sha\": \"" << STREAMBRAIN_BENCH_GIT_SHA
      << "\", \"cores\": " << std::thread::hardware_concurrency()
      << ", \"dispatch\": \"" << st::dispatch_level_name(original)
      << "\", \"compiler\": \"" << STREAMBRAIN_BENCH_COMPILER
      << "\", \"build_type\": \"" << STREAMBRAIN_BENCH_BUILD_TYPE
      << "\", \"reps\": " << reps
      << ", \"statistic\": \"median of reps, mad beside it\"},\n";
  out << "  \"max_supported_dispatch\": \""
      << st::dispatch_level_name(st::max_supported_dispatch()) << "\",\n";
  out << "  \"active_dispatch\": \"" << st::dispatch_level_name(original)
      << "\",\n";
  out << "  \"tiers\": [";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    out << (i ? ", " : "") << '"' << tiers[i]->name << '"';
  }
  out << "],\n";
  out << "  \"gemm_best_speedup_vs_scalar\": " << gemm_best_speedup << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& result = results[i];
    out << "    {\"kernel\": \"" << result.kernel << "\", \"shape\": \""
        << result.shape << "\", \"tier\": \"" << result.tier
        << "\", \"seconds\": " << result.time.median
        << ", \"mad_seconds\": " << result.time.mad
        << ", \"gflops\": " << result.gflops
        << ", \"speedup_vs_scalar\": " << result.speedup_vs_scalar << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"sparse_density_crossover\": " << st::kSparseDensityCrossover
      << ",\n";
  out << "  \"zero_skip_results\": [\n";
  for (std::size_t i = 0; i < skips.size(); ++i) {
    const SkipResult& r = skips[i];
    out << "    {\"op\": \"" << r.op << "\", \"entry\": \"" << r.entry
        << "\", \"shape\": \"" << r.shape << "\", \"density\": " << r.density
        << ", \"tier\": \"" << r.tier
        << "\", \"dense_seconds\": " << r.dense.median
        << ", \"dense_mad_seconds\": " << r.dense.mad
        << ", \"skip_seconds\": " << r.skipping.median
        << ", \"skip_mad_seconds\": " << r.skipping.mad
        << ", \"speedup_vs_dense\": " << r.dense.median / r.skipping.median
        << "}" << (i + 1 < skips.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"paired_results\": [\n";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairResult& r = pairs[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"against\": \""
        << r.against << "\", \"shape\": \"" << r.shape
        << "\", \"tier\": \"" << r.tier
        << "\", \"seconds\": " << r.time.median
        << ", \"mad_seconds\": " << r.time.mad
        << ", \"against_seconds\": " << r.against_time.median
        << ", \"against_mad_seconds\": " << r.against_time.mad
        << ", \"speedup\": " << r.against_time.median / r.time.median << "}"
        << (i + 1 < pairs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nbest GEMM speedup vs scalar: %.2fx\nwrote %s\n",
              gemm_best_speedup, out_path.c_str());
  return 0;
}
