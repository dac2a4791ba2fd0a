// Tests for the hyper-parameter search module: space sampling laws,
// Latin-hypercube stratification, mutation clipping, optimizer progress.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "hpo/search.hpp"
#include "hpo/space.hpp"
#include "parallel/engine_registry.hpp"

namespace sh = streambrain::hpo;
namespace sp = streambrain::parallel;
namespace su = streambrain::util;

namespace {

sh::ParameterSpace demo_space() {
  sh::ParameterSpace space;
  space.add_continuous("alpha", 0.001, 1.0, /*log_scale=*/true);
  space.add_integer("mcus", 10, 1000, /*log_scale=*/true);
  space.add_continuous("rf", 0.05, 0.95);
  space.add_categorical("engine",
                        sp::EngineRegistry::instance().names());
  return space;
}

}  // namespace

// --------------------------------------------------------------- space ----

TEST(ParameterSpace, RejectsDegenerateDomains) {
  sh::ParameterSpace space;
  EXPECT_THROW(space.add_continuous("x", 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(space.add_continuous("x", -1.0, 1.0, true),
               std::invalid_argument);
  EXPECT_THROW(space.add_integer("n", 5, 4), std::invalid_argument);
  EXPECT_THROW(space.add_categorical("c", {}), std::invalid_argument);
}

TEST(ParameterSpace, SamplesStayInBounds) {
  const auto space = demo_space();
  su::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto sample = space.sample(rng);
    const double alpha = sample.get_double("alpha", -1.0);
    EXPECT_GE(alpha, 0.001);
    EXPECT_LE(alpha, 1.0);
    const long long mcus = sample.get_int("mcus", -1);
    EXPECT_GE(mcus, 10);
    EXPECT_LE(mcus, 1000);
    const double rf = sample.get_double("rf", -1.0);
    EXPECT_GE(rf, 0.05);
    EXPECT_LE(rf, 0.95);
    const std::string engine = sample.get_string("engine", "");
    EXPECT_TRUE(sp::EngineRegistry::instance().contains(engine)) << engine;
  }
}

TEST(ParameterSpace, LogScaleSamplesSpreadAcrossDecades) {
  sh::ParameterSpace space;
  space.add_continuous("x", 1e-4, 1.0, /*log_scale=*/true);
  su::Rng rng(2);
  int tiny = 0;
  int small = 0;
  int large = 0;
  for (int i = 0; i < 3000; ++i) {
    const double x = space.sample(rng).get_double("x", 0.0);
    if (x < 1e-3) {
      ++tiny;
    } else if (x < 1e-2) {
      ++small;
    } else if (x > 1e-1) {
      ++large;
    }
  }
  // Log-uniform: each decade gets ~25% of the samples.
  EXPECT_NEAR(tiny, 750, 120);
  EXPECT_NEAR(small, 750, 120);
  EXPECT_NEAR(large, 750, 120);
}

TEST(ParameterSpace, LatinHypercubeStratifiesEveryDimension) {
  sh::ParameterSpace space;
  space.add_continuous("u", 0.0, 1.0);
  su::Rng rng(3);
  const auto batch = space.latin_hypercube(10, rng);
  ASSERT_EQ(batch.size(), 10u);
  // Exactly one sample per decile stratum.
  std::set<int> strata;
  for (const auto& config : batch) {
    strata.insert(
        static_cast<int>(config.get_double("u", 0.0) * 10.0));
  }
  EXPECT_EQ(strata.size(), 10u);
}

TEST(ParameterSpace, MutationStaysInBounds) {
  const auto space = demo_space();
  su::Rng rng(4);
  auto base = space.sample(rng);
  for (int i = 0; i < 300; ++i) {
    base = space.mutate(base, 0.5, rng);
    const double alpha = base.get_double("alpha", -1.0);
    EXPECT_GE(alpha, 0.001);
    EXPECT_LE(alpha, 1.0);
    const long long mcus = base.get_int("mcus", -1);
    EXPECT_GE(mcus, 10);
    EXPECT_LE(mcus, 1000);
  }
}

TEST(ParameterSpace, ZeroSigmaMutationIsNearIdentity) {
  const auto space = demo_space();
  su::Rng rng(5);
  const auto base = space.sample(rng);
  const auto mutated = space.mutate(base, 0.0, rng);
  EXPECT_NEAR(mutated.get_double("alpha", 0.0), base.get_double("alpha", 1.0),
              1e-9);
  EXPECT_EQ(mutated.get_int("mcus", 0), base.get_int("mcus", 1));
  EXPECT_EQ(mutated.get_string("engine", "a"), base.get_string("engine", "b"));
}

// ---------------------------------------------------------- optimizers ----

namespace {

/// Smooth unimodal objective with maximum at (alpha=0.1, rf=0.5).
double quadratic_objective(const su::Config& params) {
  const double alpha = params.get_double("alpha", 0.0);
  const double rf = params.get_double("rf", 0.0);
  const double da = std::log10(alpha) - std::log10(0.1);
  const double dr = rf - 0.5;
  return 1.0 - da * da - 4.0 * dr * dr;
}

}  // namespace

TEST(RandomSearch, FindsReasonableOptimum) {
  sh::RandomSearch search(demo_space(), 6);
  const auto result = search.optimize(quadratic_objective, 200);
  EXPECT_EQ(result.history.size(), 200u);
  EXPECT_GT(result.best.objective, 0.8);
}

TEST(RandomSearch, BestMatchesHistoryMaximum) {
  sh::RandomSearch search(demo_space(), 7);
  const auto result = search.optimize(quadratic_objective, 50);
  double best = -1e300;
  for (const auto& trial : result.history) {
    best = std::max(best, trial.objective);
  }
  EXPECT_DOUBLE_EQ(result.best.objective, best);
}

TEST(RandomSearch, ZeroBudgetThrows) {
  sh::RandomSearch search(demo_space(), 8);
  EXPECT_THROW(search.optimize(quadratic_objective, 0), std::invalid_argument);
}

TEST(LatinHypercubeSearch, CoversAndOptimizes) {
  sh::LatinHypercubeSearch search(demo_space(), 9);
  const auto result = search.optimize(quadratic_objective, 100);
  EXPECT_EQ(result.history.size(), 100u);
  EXPECT_GT(result.best.objective, 0.7);
}

TEST(EvolutionStrategy, ImprovesOverGenerations) {
  sh::EvolutionStrategyConfig config;
  config.lambda = 6;
  config.seed = 10;
  sh::EvolutionStrategy search(demo_space(), config);
  const auto result = search.optimize(quadratic_objective, 120);
  EXPECT_EQ(result.history.size(), 120u);
  // The elite must be at least as good as the first sample (monotone
  // (1+lambda) selection) and should actually get close to the optimum.
  EXPECT_GE(result.best.objective, result.history.front().objective);
  EXPECT_GT(result.best.objective, 0.85);
}

TEST(SuccessiveHalving, HighFidelityWinnersSurvive) {
  // Objective improves with fidelity; the halving schedule must evaluate
  // the survivors at max_fidelity and the best trial must come from the
  // top of the population.
  sh::SuccessiveHalvingConfig config;
  config.initial_population = 8;
  config.min_fidelity = 1;
  config.max_fidelity = 4;
  config.seed = 11;
  sh::SuccessiveHalving search(demo_space(), config);
  std::size_t max_seen_fidelity = 0;
  const auto result = search.optimize(
      [&](const su::Config& params, std::size_t fidelity) {
        max_seen_fidelity = std::max(max_seen_fidelity, fidelity);
        return quadratic_objective(params) +
               0.01 * static_cast<double>(fidelity);
      });
  EXPECT_EQ(max_seen_fidelity, 4u);
  EXPECT_FALSE(result.history.empty());
}

TEST(SuccessiveHalving, BadConfigThrows) {
  sh::SuccessiveHalvingConfig config;
  config.eta = 1;
  sh::SuccessiveHalving search(demo_space(), config);
  EXPECT_THROW(
      search.optimize([](const su::Config&, std::size_t) { return 0.0; }),
      std::invalid_argument);
}

TEST(Optimizers, DeterministicForSeed) {
  sh::RandomSearch a(demo_space(), 42);
  sh::RandomSearch b(demo_space(), 42);
  const auto ra = a.optimize(quadratic_objective, 30);
  const auto rb = b.optimize(quadratic_objective, 30);
  EXPECT_DOUBLE_EQ(ra.best.objective, rb.best.objective);
  EXPECT_EQ(ra.best.params.to_string(), rb.best.params.to_string());
}
