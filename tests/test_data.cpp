// Tests for src/data: Dataset operations, the synthetic Higgs generator
// (feature semantics + class-conditional properties), csv round-trip,
// and the digit generator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "data/higgs.hpp"
#include "util/stats.hpp"

namespace sd = streambrain::data;
namespace su = streambrain::util;

// ------------------------------------------------------------- Dataset ----

namespace {

sd::Dataset tiny_dataset() {
  sd::Dataset dataset;
  dataset.features = streambrain::tensor::MatrixF(6, 2);
  for (std::size_t r = 0; r < 6; ++r) {
    dataset.features(r, 0) = static_cast<float>(r);
    dataset.features(r, 1) = static_cast<float>(10 * r);
  }
  dataset.labels = {0, 1, 0, 1, 0, 1};
  return dataset;
}

}  // namespace

TEST(Dataset, BasicAccessors) {
  const auto dataset = tiny_dataset();
  EXPECT_EQ(dataset.size(), 6u);
  EXPECT_EQ(dataset.dim(), 2u);
  EXPECT_EQ(dataset.num_classes(), 2u);
  const auto counts = dataset.class_counts();
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 3u);
}

TEST(Dataset, SelectPreservesRowContent) {
  const auto dataset = tiny_dataset();
  const auto selected = dataset.select({4, 1});
  EXPECT_EQ(selected.size(), 2u);
  EXPECT_FLOAT_EQ(selected.features(0, 1), 40.0f);
  EXPECT_EQ(selected.labels[0], 0);
  EXPECT_FLOAT_EQ(selected.features(1, 0), 1.0f);
  EXPECT_EQ(selected.labels[1], 1);
}

TEST(Dataset, SelectRejectsOutOfRange) {
  const auto dataset = tiny_dataset();
  EXPECT_THROW(dataset.select({6}), std::out_of_range);
}

TEST(Dataset, ShuffleKeepsRowLabelPairsTogether) {
  auto dataset = tiny_dataset();
  su::Rng rng(5);
  sd::shuffle(dataset, rng);
  EXPECT_EQ(dataset.size(), 6u);
  // Row content determines its label in the fixture: even feature -> 0.
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    const int expected =
        static_cast<int>(dataset.features(r, 0)) % 2 == 0 ? 0 : 1;
    EXPECT_EQ(dataset.labels[r], expected);
  }
}

TEST(Dataset, SplitFractions) {
  const auto dataset = tiny_dataset();
  const auto [train, test] = sd::split(dataset, 2.0 / 3.0);
  EXPECT_EQ(train.size(), 4u);
  EXPECT_EQ(test.size(), 2u);
  EXPECT_FLOAT_EQ(test.features(0, 0), 4.0f);
  EXPECT_THROW(sd::split(dataset, 1.5), std::invalid_argument);
}

TEST(Dataset, BalancedSubsetExactCounts) {
  sd::HiggsGeneratorOptions options;
  options.signal_fraction = 0.7;  // imbalanced source
  sd::SyntheticHiggsGenerator generator(options);
  auto dataset = generator.generate(4000);
  su::Rng rng(9);
  const auto balanced = sd::balanced_subset(dataset, 500, rng);
  EXPECT_EQ(balanced.size(), 1000u);
  const auto counts = balanced.class_counts();
  EXPECT_EQ(counts[0], 500u);
  EXPECT_EQ(counts[1], 500u);
}

TEST(Dataset, BalancedSubsetThrowsWhenInsufficient) {
  auto dataset = tiny_dataset();
  su::Rng rng(1);
  EXPECT_THROW(sd::balanced_subset(dataset, 4, rng), std::invalid_argument);
}

TEST(Dataset, OneHotLabels) {
  const auto onehot = sd::one_hot_labels({0, 1, 1}, 2);
  EXPECT_FLOAT_EQ(onehot(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(onehot(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(onehot(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(onehot(2, 1), 1.0f);
  EXPECT_THROW(sd::one_hot_labels({2}, 2), std::out_of_range);
}

// ------------------------------------------------------ Higgs generator ----

TEST(HiggsGenerator, FeatureCountAndNames) {
  EXPECT_EQ(sd::kHiggsFeatures, 28u);
  EXPECT_EQ(sd::higgs_feature_names().size(), 28u);
  EXPECT_EQ(sd::higgs_feature_names()[0], "lepton_pT");
  EXPECT_EQ(sd::higgs_feature_names()[25], "m_bb");
}

TEST(HiggsGenerator, DeterministicForSeed) {
  sd::HiggsGeneratorOptions options;
  options.seed = 77;
  sd::SyntheticHiggsGenerator a(options);
  sd::SyntheticHiggsGenerator b(options);
  const auto da = a.generate(50);
  const auto db = b.generate(50);
  EXPECT_EQ(da.labels, db.labels);
  EXPECT_TRUE(da.features == db.features);
}

TEST(HiggsGenerator, SignalFractionRespected) {
  sd::HiggsGeneratorOptions options;
  options.signal_fraction = 0.5;
  sd::SyntheticHiggsGenerator generator(options);
  const auto dataset = generator.generate(20000);
  const auto counts = dataset.class_counts();
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.5, 0.02);
}

TEST(HiggsGenerator, PhiAnglesAreWrapped) {
  sd::SyntheticHiggsGenerator generator;
  const auto dataset = generator.generate(2000);
  // phi columns: lepton_phi=2, met_phi=4, jet phis = 7, 11, 15, 19.
  for (std::size_t phi_col : {2u, 4u, 7u, 11u, 15u, 19u}) {
    for (std::size_t r = 0; r < dataset.size(); ++r) {
      EXPECT_GE(dataset.features(r, phi_col), -static_cast<float>(M_PI));
      EXPECT_LE(dataset.features(r, phi_col), static_cast<float>(M_PI));
    }
  }
}

TEST(HiggsGenerator, MomentaAndMassesAreNonNegative) {
  sd::SyntheticHiggsGenerator generator;
  const auto dataset = generator.generate(2000);
  // pT columns and all 7 high-level masses must be >= 0.
  for (std::size_t col : {0u, 3u, 5u, 9u, 13u, 17u, 21u, 22u, 23u, 24u, 25u,
                          26u, 27u}) {
    for (std::size_t r = 0; r < dataset.size(); ++r) {
      EXPECT_GE(dataset.features(r, col), 0.0f)
          << "col=" << col << " row=" << r;
    }
  }
}

TEST(HiggsGenerator, SignalHasHiggsLikeMbbPeak) {
  sd::SyntheticHiggsGenerator generator;
  const auto dataset = generator.generate(20000);
  // m_bb (col 25): signal should be concentrated near 1.0 with smaller
  // spread than the combinatorial background.
  su::RunningStat mbb_signal;
  su::RunningStat mbb_background;
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    (dataset.labels[r] == 1 ? mbb_signal : mbb_background)
        .add(dataset.features(r, 25));
  }
  EXPECT_LT(mbb_signal.stddev(), mbb_background.stddev());
}

TEST(HiggsGenerator, SignalLeptonsAreHarder) {
  sd::SyntheticHiggsGenerator generator;
  const auto dataset = generator.generate(20000);
  double signal_pt = 0.0;
  double background_pt = 0.0;
  std::size_t ns = 0;
  std::size_t nb = 0;
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    if (dataset.labels[r] == 1) {
      signal_pt += dataset.features(r, 0);
      ++ns;
    } else {
      background_pt += dataset.features(r, 0);
      ++nb;
    }
  }
  EXPECT_GT(signal_pt / ns, background_pt / nb);
}

TEST(HiggsGenerator, SeparationZeroRemovesClassSignal) {
  sd::HiggsGeneratorOptions options;
  options.separation = 0.0;
  sd::SyntheticHiggsGenerator generator(options);
  const auto dataset = generator.generate(20000);
  // With zero separation the lepton pT distributions should coincide.
  su::RunningStat signal;
  su::RunningStat background;
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    (dataset.labels[r] == 1 ? signal : background)
        .add(dataset.features(r, 0));
  }
  EXPECT_NEAR(signal.mean(), background.mean(), 0.05);
}

TEST(HiggsGenerator, HighLevelFeaturesAreInvariantMassConsistent) {
  // m_jj must equal the invariant-mass formula applied to jets 1 and 2.
  sd::SyntheticHiggsGenerator generator;
  const auto dataset = generator.generate(200);
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    const float pt1 = dataset.features(r, 5);
    const float eta1 = dataset.features(r, 6);
    const float phi1 = dataset.features(r, 7);
    const float pt2 = dataset.features(r, 9);
    const float eta2 = dataset.features(r, 10);
    const float phi2 = dataset.features(r, 11);
    const double expected = std::sqrt(std::max(
        0.0, 2.0 * pt1 * pt2 *
                 (std::cosh(static_cast<double>(eta1) - eta2) -
                  std::cos(static_cast<double>(phi1) - phi2))));
    EXPECT_NEAR(dataset.features(r, 21), expected, 1e-3 * (1.0 + expected));
  }
}

// ----------------------------------------------------------- CSV loader ----

TEST(HiggsCsv, RoundTripThroughFile) {
  sd::SyntheticHiggsGenerator generator;
  const auto original = generator.generate(20);
  const std::string path = "/tmp/streambrain_test_higgs.csv";
  {
    std::ofstream out(path);
    for (std::size_t r = 0; r < original.size(); ++r) {
      out << original.labels[r];
      for (std::size_t c = 0; c < original.dim(); ++c) {
        out << ',' << original.features(r, c);
      }
      out << '\n';
    }
  }
  const auto loaded = sd::load_higgs_csv(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.labels, original.labels);
  for (std::size_t r = 0; r < loaded.size(); ++r) {
    for (std::size_t c = 0; c < loaded.dim(); ++c) {
      EXPECT_NEAR(loaded.features(r, c), original.features(r, c),
                  1e-4f * (1.0f + std::abs(original.features(r, c))));
    }
  }
  std::filesystem::remove(path);
}

TEST(HiggsCsv, MaxRowsLimitsLoad) {
  const std::string path = "/tmp/streambrain_test_higgs2.csv";
  {
    sd::SyntheticHiggsGenerator generator;
    const auto data = generator.generate(10);
    std::ofstream out(path);
    for (std::size_t r = 0; r < data.size(); ++r) {
      out << data.labels[r];
      for (std::size_t c = 0; c < data.dim(); ++c) {
        out << ',' << data.features(r, c);
      }
      out << '\n';
    }
  }
  EXPECT_EQ(sd::load_higgs_csv(path, 4).size(), 4u);
  std::filesystem::remove(path);
}

TEST(HiggsCsv, MissingFileThrows) {
  EXPECT_THROW(sd::load_higgs_csv("/nonexistent/HIGGS.csv"),
               std::runtime_error);
}

TEST(HiggsCsv, MalformedRowThrows) {
  const std::string path = "/tmp/streambrain_test_higgs3.csv";
  {
    std::ofstream out(path);
    out << "1,2,3\n";  // wrong column count
  }
  EXPECT_THROW(sd::load_higgs_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(HiggsCsv, LoadOrGenerateFallsBack) {
  const auto dataset = sd::load_or_generate_higgs("", 123, 5);
  EXPECT_EQ(dataset.size(), 123u);
  EXPECT_EQ(dataset.dim(), sd::kHiggsFeatures);
}

// ---------------------------------------------------------------- digits ----

TEST(Digits, ShapeAndLabels) {
  sd::SyntheticDigitGenerator generator;
  const auto dataset = generator.generate(200);
  EXPECT_EQ(dataset.size(), 200u);
  EXPECT_EQ(dataset.dim(), sd::kDigitPixels);
  EXPECT_EQ(dataset.num_classes(), 10u);
  for (int label : dataset.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
}

TEST(Digits, PixelsInUnitRange) {
  sd::SyntheticDigitGenerator generator;
  const auto dataset = generator.generate(100);
  for (float v : dataset.features) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Digits, InkConcentratedInCenter) {
  sd::DigitGeneratorOptions options;
  options.flip_noise = 0.0;
  options.max_translation = 0;
  sd::SyntheticDigitGenerator generator(options);
  const auto dataset = generator.generate(500);
  double center_mass = 0.0;
  double fringe_mass = 0.0;
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    for (std::size_t y = 0; y < sd::kDigitSide; ++y) {
      for (std::size_t x = 0; x < sd::kDigitSide; ++x) {
        const float v = dataset.features(r, y * sd::kDigitSide + x);
        const bool center = x >= 4 && x < 12 && y >= 2 && y < 14;
        (center ? center_mass : fringe_mass) += v;
      }
    }
  }
  // The glyph box holds 96 of 256 pixels; intensity jitter spreads a
  // little mass everywhere, so demand a strong (not absolute) ratio.
  EXPECT_GT(center_mass, 5.0 * fringe_mass);
}

TEST(Digits, ClassesAreDistinguishable) {
  // Mean images of distinct digits should differ substantially.
  sd::DigitGeneratorOptions options;
  options.flip_noise = 0.0;
  options.max_translation = 0;
  sd::SyntheticDigitGenerator generator(options);
  const auto dataset = generator.generate(1000);
  std::vector<std::vector<double>> means(10,
                                         std::vector<double>(dataset.dim()));
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    const auto label = static_cast<std::size_t>(dataset.labels[r]);
    ++counts[label];
    for (std::size_t c = 0; c < dataset.dim(); ++c) {
      means[label][c] += dataset.features(r, c);
    }
  }
  for (std::size_t d = 0; d < 10; ++d) {
    ASSERT_GT(counts[d], 0u);
    for (auto& v : means[d]) v /= static_cast<double>(counts[d]);
  }
  double l1_01 = 0.0;
  for (std::size_t c = 0; c < dataset.dim(); ++c) {
    l1_01 += std::abs(means[0][c] - means[1][c]);
  }
  EXPECT_GT(l1_01, 10.0);  // digits 0 and 1 are very different glyphs
}
