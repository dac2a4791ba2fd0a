// google-benchmark microbenchmarks for the StreamBrain compute backends
// (paper Section III-A), as a dispatch-tier sweep: the four BCPNN
// primitives, the training step (learn_batch: traces, weights and the
// receptive-field mask, at 1 x 300 and 1 x 3000 MCUs) and a full epoch
// at Higgs-experiment dimensions on the
// scalar reference engine ("naive") and on the "simd" engine at every
// kernel tier this host can run (simd_scalar / simd_sse42 / simd_avx2,
// pinned with tensor::force_dispatch), plus GEMM naive-vs-blocked. These
// support the paper's claim that hand-vectorized CPU kernels close the
// gap to framework baselines, and expose the dimension-dependent "jiggs"
// the paper observes on the GPU.
//
//   ./build/bench_backends --benchmark_filter='BM_Support/'
//   ./build/bench_backends --benchmark_min_time=0.01   (smoke run)

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

namespace {

struct Workload {
  std::size_t batch = 64;
  std::size_t n_in = 280;   // 28 features x 10 quantiles
  std::size_t n_out;        // 1 HCU x `mcus` MCUs
  std::size_t mcus;
  tensor::MatrixF x;
  tensor::MatrixF w;
  std::vector<float> bias;
  tensor::MatrixF a;
  std::vector<float> pi;
  std::vector<float> pj;
  tensor::MatrixF pij;
  /// Receptive field 0.40 as in the paper's runs: the HCU listens to
  /// ceil(0.4 * 28) = 12 of the 28 input hypercolumns.
  std::vector<std::uint8_t> active;

  explicit Workload(std::size_t mcus_per_hcu)
      : n_out(mcus_per_hcu), mcus(mcus_per_hcu) {
    util::Rng rng(1);
    x = tensor::MatrixF(batch, n_in, 0.0f);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t f = 0; f < 28; ++f) {
        x(r, f * 10 + rng.uniform_index(10)) = 1.0f;
      }
    }
    w = tensor::MatrixF(n_in, n_out);
    for (float& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    bias.assign(n_out, 0.1f);
    a = tensor::MatrixF(batch, n_out);
    for (float& v : a) v = static_cast<float>(rng.uniform(0.0, 1.0));
    pi.assign(n_in, 0.1f);
    pj.assign(n_out, 1.0f / static_cast<float>(mcus));
    pij = tensor::MatrixF(n_in, n_out, 0.1f / static_cast<float>(mcus));
    active.assign(28, 0);
    for (std::size_t f = 0; f < 28; f += 5) active[f] = 1;
    for (std::size_t f = 1; f < 28; f += 5) active[f] = 1;
  }
};

Workload& workload(std::size_t mcus = 300) {
  static Workload w300(300);
  static Workload w3000(3000);
  return mcus == 3000 ? w3000 : w300;
}

/// One column of the backend ablation: an engine, and for "simd" the
/// kernel tier it runs on.
struct Backend {
  std::string engine;
  std::optional<tensor::DispatchLevel> tier;

  [[nodiscard]] std::string label() const {
    return tier ? engine + "_" + tensor::dispatch_level_name(*tier) : engine;
  }
};

/// The backend's engine, with its tier pinned for the scope's lifetime.
class BackendScope {
 public:
  explicit BackendScope(const Backend& backend)
      : previous_(backend.tier ? std::optional(
                                     tensor::force_dispatch(*backend.tier))
                               : std::nullopt),
        engine_(parallel::EngineRegistry::instance().create(backend.engine)) {}
  ~BackendScope() {
    if (previous_) tensor::force_dispatch(*previous_);
  }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

  parallel::Engine& engine() { return *engine_; }

 private:
  std::optional<tensor::DispatchLevel> previous_;
  std::unique_ptr<parallel::Engine> engine_;
};

void BM_Support(benchmark::State& state, const Backend& backend) {
  BackendScope scope(backend);
  parallel::Engine& engine = scope.engine();
  auto& w = workload();
  tensor::MatrixF s;
  for (auto _ : state) {
    engine.support(w.x, w.w, w.bias.data(), s);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.batch));
}

void BM_SoftmaxHcu(benchmark::State& state, const Backend& backend) {
  BackendScope scope(backend);
  parallel::Engine& engine = scope.engine();
  auto& w = workload();
  tensor::MatrixF s = w.a;
  for (auto _ : state) {
    engine.softmax_hcu(s, w.mcus, 1.0f);
    benchmark::DoNotOptimize(s.data());
  }
}

void BM_TraceUpdate(benchmark::State& state, const Backend& backend) {
  BackendScope scope(backend);
  parallel::Engine& engine = scope.engine();
  auto& w = workload();
  auto pi = w.pi;
  auto pj = w.pj;
  auto pij = w.pij;
  for (auto _ : state) {
    engine.update_traces(w.x, w.a, 0.05f, pi.data(), pj.data(), pij);
    benchmark::DoNotOptimize(pij.data());
  }
}

void BM_WeightRecompute(benchmark::State& state, const Backend& backend) {
  BackendScope scope(backend);
  parallel::Engine& engine = scope.engine();
  auto& w = workload();
  tensor::MatrixF weights;
  std::vector<float> bias(w.n_out);
  for (auto _ : state) {
    engine.recompute_weights(w.pi.data(), w.pj.data(), w.pij, 1e-4f, 1.0f,
                             weights, bias.data());
    benchmark::DoNotOptimize(weights.data());
  }
}

// The training step: trace update, weight recompute and the receptive-
// field mask, at state.range(0) MCUs.
void BM_LearnBatch(benchmark::State& state, const Backend& backend) {
  BackendScope scope(backend);
  parallel::Engine& engine = scope.engine();
  auto& w = workload(static_cast<std::size_t>(state.range(0)));
  auto pi = w.pi;
  auto pj = w.pj;
  auto pij = w.pij;
  tensor::MatrixF weights;
  std::vector<float> bias(w.n_out);
  const parallel::WeightMask mask{.block_rows = 10,
                                  .block_cols = w.mcus,
                                  .active = w.active.data()};
  for (auto _ : state) {
    engine.learn_batch(w.x, w.a, 0.05f, 1e-4f, 1.0f, mask, pi.data(),
                       pj.data(), pij, weights, bias.data());
    benchmark::DoNotOptimize(weights.data());
    benchmark::ClobberMemory();
  }
}

void BM_GemmNaive(benchmark::State& state) {
  auto& w = workload();
  tensor::MatrixF c(w.batch, w.n_out, 0.0f);
  for (auto _ : state) {
    tensor::gemm_naive(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                       w.x, w.w, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(w.batch * w.n_in * w.n_out));
}

void BM_GemmBlocked(benchmark::State& state) {
  auto& w = workload();
  tensor::MatrixF c(w.batch, w.n_out, 0.0f);
  for (auto _ : state) {
    tensor::gemm_blocked(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                         w.x, w.w, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(w.batch * w.n_in * w.n_out));
}

// The paper's "jiggs": GEMM throughput is not monotone in the dimension;
// some MCU counts are more favorable than others.
void BM_GemmMcuDimension(benchmark::State& state) {
  const std::size_t mcus = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  tensor::MatrixF x(64, 280);
  for (float& v : x) v = static_cast<float>(rng.uniform(0.0, 1.0));
  tensor::MatrixF w(280, mcus);
  for (float& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  tensor::MatrixF c(64, mcus, 0.0f);
  for (auto _ : state) {
    tensor::gemm_blocked(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                         x, w, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * 64 *
                          280 * static_cast<int64_t>(mcus));
}

// End-to-end training epoch per backend (the §III-A parity claim is about
// whole-loop throughput, not single kernels): one unsupervised epoch of
// the Higgs-shaped layer, reported as events/second.
void BM_FullEpoch(benchmark::State& state, const Backend& backend) {
  BackendScope scope(backend);
  parallel::Engine& engine = scope.engine();
  auto& w = workload();
  std::vector<float> pi = w.pi;
  std::vector<float> pj = w.pj;
  tensor::MatrixF pij = w.pij;
  tensor::MatrixF weights(w.n_in, w.n_out, 0.0f);
  std::vector<float> bias(w.n_out, 0.0f);
  tensor::MatrixF activations;
  for (auto _ : state) {
    // 8 batches = one scaled epoch.
    for (int batch = 0; batch < 8; ++batch) {
      engine.support(w.x, weights, bias.data(), activations);
      engine.softmax_hcu(activations, w.mcus, 1.0f);
      engine.update_traces(w.x, activations, 0.05f, pi.data(), pj.data(),
                           pij);
      engine.recompute_weights(pi.data(), pj.data(), pij, 1e-4f, 1.0f,
                               weights, bias.data());
    }
    benchmark::DoNotOptimize(weights.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          static_cast<int64_t>(w.batch));
}

}  // namespace

BENCHMARK(BM_GemmNaive);
BENCHMARK(BM_GemmBlocked);
BENCHMARK(BM_GemmMcuDimension)
    ->Arg(30)->Arg(100)->Arg(256)->Arg(300)->Arg(512)->Arg(1000);

int main(int argc, char** argv) {
  std::vector<Backend> backends = {{"naive", std::nullopt}};
  for (const tensor::DispatchLevel tier :
       {tensor::DispatchLevel::kScalar, tensor::DispatchLevel::kSse42,
        tensor::DispatchLevel::kAvx2}) {
    if (tensor::kernel_set_for(tier) != nullptr) {
      backends.push_back({"simd", tier});
    }
  }
  using Primitive = void (*)(benchmark::State&, const Backend&);
  const std::pair<const char*, Primitive> primitives[] = {
      {"BM_FullEpoch", BM_FullEpoch},
      {"BM_Support", BM_Support},
      {"BM_SoftmaxHcu", BM_SoftmaxHcu},
      {"BM_TraceUpdate", BM_TraceUpdate},
      {"BM_WeightRecompute", BM_WeightRecompute}};
  for (const auto& [name, primitive] : primitives) {
    for (const Backend& backend : backends) {
      benchmark::RegisterBenchmark(
          (std::string(name) + "/" + backend.label()).c_str(), primitive,
          backend);
    }
  }
  for (const Backend& backend : backends) {
    benchmark::RegisterBenchmark(
        ("BM_LearnBatch/" + backend.label()).c_str(), BM_LearnBatch, backend)
        ->Arg(300)
        ->Arg(3000)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
