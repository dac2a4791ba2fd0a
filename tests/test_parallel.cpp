// Tests for src/parallel: thread pool, the compute fan-out, and agreement
// of the BCPNN compute primitives (the simd engine at every dispatch tier
// must produce the same numbers as the naive reference, to float
// tolerance).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>

#include "golden_util.hpp"
#include "parallel/engine_registry.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"

namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

// --------------------------------------------------------- thread pool ----

TEST(ThreadPool, ExecutesSubmittedTasks) {
  sp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  sp::ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  sp::ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  sp::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  sp::ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

// ------------------------------------------------------------- fan-out ----

TEST(FanOut, RowPanelsCoverEveryRowExactlyOnce) {
  for (const std::size_t rows : {1, 7, 31, 32, 33, 97, 100, 1000}) {
    for (const std::size_t min_rows : {1, 16, 32, 64}) {
      std::vector<std::atomic<int>> hits(rows);
      std::atomic<std::size_t> panels{0};
      sp::for_row_panels(rows, min_rows, [&](std::size_t r0, std::size_t r1) {
        EXPECT_LT(r0, r1);
        EXPECT_LE(r1, rows);
        for (std::size_t r = r0; r < r1; ++r) ++hits[r];
        ++panels;
      });
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(hits[r].load(), 1) << rows << " rows, min " << min_rows;
      }
      // Never more panels than the minimum rows per task allows.
      EXPECT_LE(panels.load(), std::max<std::size_t>(1, rows / min_rows));
    }
  }
}

TEST(FanOut, EmptyRangeIsNoop) {
  bool called = false;
  sp::for_row_panels(0, 16, [&](std::size_t, std::size_t) { called = true; });
  sp::fan_out(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(FanOut, RunsInlineOnAPoolWorker) {
  sp::ThreadPool pool(1);
  const auto [tasks, panels, on_worker] =
      pool.submit([] {
            std::atomic<std::size_t> count{0};
            std::atomic<bool> same_thread{true};
            const auto worker = std::this_thread::get_id();
            sp::for_row_panels(4096, 1, [&](std::size_t, std::size_t) {
              ++count;
              if (std::this_thread::get_id() != worker) same_thread = false;
            });
            return std::tuple{sp::task_count(4096), count.load(),
                              same_thread.load()};
          })
          .get();
  EXPECT_EQ(tasks, 1u);
  EXPECT_EQ(panels, 1u);
  EXPECT_TRUE(on_worker);
}

TEST(FanOut, ExceptionPropagatesAfterEveryPanelFinished) {
  constexpr std::size_t kTasks = 4;
  for (const std::size_t thrower : {0, 1}) {
    std::atomic<std::size_t> finished{0};
    EXPECT_THROW(sp::fan_out(kTasks,
                             [&](std::size_t t) {
                               if (t == thrower) {
                                 throw std::runtime_error("panel failed");
                               }
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(20));
                               ++finished;
                             }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), kTasks - 1) << "thrower " << thrower;
  }
}

// Several threads fan out at once: one holds the pool's fan-out slot,
// the others run their tasks inline. Every task of every call runs
// exactly once, and its plain (non-atomic) writes are visible to the
// caller when fan_out returns.
TEST(FanOut, ConcurrentCallersEachRunEveryTaskOnce) {
  constexpr std::size_t kTasks = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&wrong] {
      for (int call = 0; call < 300; ++call) {
        std::vector<int> runs(kTasks, 0);
        sp::fan_out(kTasks, [&runs](std::size_t t) { ++runs[t]; });
        for (const int r : runs) wrong += r != 1;
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
}

namespace {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

// Workers that keep spinning after the work is done take cores from every
// other process on the host. A worker may poll for up to 500 us after
// its last fan-out task; from 2 ms on it must sleep. Over ten
// rounds of a softmax and a row-panel fan-out followed by that grace and
// a 20 ms sleep, the process may use 50 ms of CPU in the 200 ms of sleep.
// An OpenMP team with the default wait policy used 110-215 ms in this
// loop on an idle 4-vCPU host.
TEST(FanOut, IdleWorkersSleep) {
  st::MatrixF activations(2048, 300, 0.5f);
  double idle_cpu_s = 0.0;
  for (int round = 0; round < 10; ++round) {
    st::softmax_blocks(activations, 300);
    sp::for_row_panels(4096, 1, [](std::size_t, std::size_t) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const double before = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    idle_cpu_s += process_cpu_seconds() - before;
  }
  EXPECT_LT(idle_cpu_s, 0.05) << "CPU seconds used over 200 ms of sleep";
}

TEST(FanOut, ThreadCountParsesStrictly) {
  EXPECT_EQ(sp::parse_thread_count("1").value_or(0), 1u);
  EXPECT_EQ(sp::parse_thread_count("16").value_or(0), 16u);
  for (const char* bad : {"", "2x", "abc", "0", "-3", "+2", " 2", "2 ", "1.5",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(sp::parse_thread_count(bad).has_value()) << "'" << bad << "'";
  }
}

// ------------------------------------------------------------- engines ----

namespace {

struct EngineFixture {
  std::size_t batch = 13;
  std::size_t n_in = 30;    // 3 hypercolumns x 10 bins
  std::size_t n_out = 12;   // 3 HCUs x 4 MCUs
  std::size_t mcus = 4;
  st::MatrixF x;
  st::MatrixF w;
  std::vector<float> bias;
  st::MatrixF a;

  EngineFixture() {
    su::Rng rng(2024);
    x = st::MatrixF(batch, n_in, 0.0f);
    // One-hot inputs: one active unit per input hypercolumn of 10.
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t hc = 0; hc < 3; ++hc) {
        x(r, hc * 10 + rng.uniform_index(10)) = 1.0f;
      }
    }
    w = st::MatrixF(n_in, n_out);
    for (float& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    bias.resize(n_out);
    for (float& v : bias) v = static_cast<float>(rng.uniform(-0.2, 0.2));
    a = st::MatrixF(batch, n_out);
    for (float& v : a) v = static_cast<float>(rng.uniform(0.0, 1.0));
  }
};

}  // namespace

/// The simd engine at one dispatch tier against the naive reference;
/// skipped when this host or build cannot run the tier.
class EngineAgreement : public ::testing::TestWithParam<st::DispatchLevel> {
 protected:
  void SetUp() override {
    if (st::kernel_set_for(GetParam()) == nullptr) {
      GTEST_SKIP() << st::dispatch_level_name(GetParam())
                   << " tier unavailable on this host";
    }
    pin_.emplace(GetParam());
  }

  std::optional<streambrain::testing::ScopedDispatch> pin_;
};

TEST_P(EngineAgreement, SupportMatchesNaive) {
  EngineFixture fx;
  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create("simd");
  st::MatrixF s_ref;
  st::MatrixF s;
  reference->support(fx.x, fx.w, fx.bias.data(), s_ref);
  engine->support(fx.x, fx.w, fx.bias.data(), s);
  ASSERT_EQ(s.rows(), s_ref.rows());
  ASSERT_EQ(s.cols(), s_ref.cols());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s.data()[i], s_ref.data()[i], 1e-4f);
  }
}

TEST_P(EngineAgreement, SoftmaxMatchesNaive) {
  EngineFixture fx;
  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create("simd");
  st::MatrixF s_ref = fx.a;
  st::MatrixF s = fx.a;
  reference->softmax_hcu(s_ref, fx.mcus, 1.5f);
  engine->softmax_hcu(s, fx.mcus, 1.5f);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s.data()[i], s_ref.data()[i], 1e-5f);
  }
}

TEST_P(EngineAgreement, TraceUpdateMatchesNaive) {
  EngineFixture fx;
  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create("simd");
  std::vector<float> pi_ref(fx.n_in, 0.1f);
  std::vector<float> pj_ref(fx.n_out, 0.25f);
  st::MatrixF pij_ref(fx.n_in, fx.n_out, 0.025f);
  auto pi = pi_ref;
  auto pj = pj_ref;
  st::MatrixF pij = pij_ref;
  reference->update_traces(fx.x, fx.a, 0.07f, pi_ref.data(), pj_ref.data(),
                           pij_ref);
  engine->update_traces(fx.x, fx.a, 0.07f, pi.data(), pj.data(), pij);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(pi[i], pi_ref[i], 1e-5f);
  }
  for (std::size_t j = 0; j < pj.size(); ++j) {
    EXPECT_NEAR(pj[j], pj_ref[j], 1e-5f);
  }
  for (std::size_t i = 0; i < pij.size(); ++i) {
    EXPECT_NEAR(pij.data()[i], pij_ref.data()[i], 1e-5f);
  }
}

TEST_P(EngineAgreement, WeightRecomputeMatchesNaive) {
  EngineFixture fx;
  su::Rng rng(5);
  std::vector<float> pi(fx.n_in);
  std::vector<float> pj(fx.n_out);
  st::MatrixF pij(fx.n_in, fx.n_out);
  for (auto& v : pi) v = static_cast<float>(rng.uniform(0.0, 0.3));
  for (auto& v : pj) v = static_cast<float>(rng.uniform(0.0, 0.3));
  for (auto& v : pij) v = static_cast<float>(rng.uniform(0.0, 0.1));

  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create("simd");
  st::MatrixF w_ref;
  st::MatrixF w;
  std::vector<float> b_ref(fx.n_out);
  std::vector<float> b(fx.n_out);
  reference->recompute_weights(pi.data(), pj.data(), pij, 1e-4f, 1.0f, w_ref,
                               b_ref.data());
  engine->recompute_weights(pi.data(), pj.data(), pij, 1e-4f, 1.0f, w,
                            b.data());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w.data()[i], w_ref.data()[i],
                1e-4f * (1.0f + std::abs(w_ref.data()[i])));
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_NEAR(b[j], b_ref[j], 1e-4f * (1.0f + std::abs(b_ref[j])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, EngineAgreement,
    ::testing::Values(st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
                      st::DispatchLevel::kAvx2),
    [](const ::testing::TestParamInfo<st::DispatchLevel>& info) {
      return std::string(st::dispatch_level_name(info.param));
    });

TEST(Engines, RegistryRejectsUnknownName) {
  EXPECT_THROW((void)sp::EngineRegistry::instance().create("cuda"),
               std::invalid_argument);
}

TEST(Engines, AllRegisteredNamesConstruct) {
  for (const auto& name : sp::EngineRegistry::instance().names()) {
    const auto engine = sp::EngineRegistry::instance().create(name);
    EXPECT_EQ(engine->name(), name);
  }
}

TEST(Engines, SoftmaxRejectsBadBlocks) {
  for (const auto& name : sp::EngineRegistry::instance().names()) {
    auto engine = sp::EngineRegistry::instance().create(name);
    st::MatrixF s(2, 5);
    EXPECT_THROW(engine->softmax_hcu(s, 2, 1.0f), std::invalid_argument)
        << name;
  }
}
