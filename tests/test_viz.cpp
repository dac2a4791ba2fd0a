// Tests for the visualization substrate: VTI well-formedness, PGM output,
// ASCII renderers, and the Catalyst-style adaptor.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "viz/ascii.hpp"
#include "viz/catalyst.hpp"
#include "viz/pgm_writer.hpp"
#include "viz/vti_writer.hpp"

namespace sv = streambrain::viz;
namespace fs = std::filesystem;

namespace {

sv::ScalarField2D demo_field(const std::string& name = "receptive_field") {
  sv::ScalarField2D field;
  field.name = name;
  field.width = 4;
  field.height = 3;
  field.values = {0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1};
  return field;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

// ----------------------------------------------------------------- VTI ----

TEST(Vti, ContainsRequiredXmlStructure) {
  const std::string xml = sv::vti_to_string({demo_field()});
  EXPECT_NE(xml.find("<?xml version=\"1.0\"?>"), std::string::npos);
  EXPECT_NE(xml.find("<VTKFile type=\"ImageData\""), std::string::npos);
  EXPECT_NE(xml.find("WholeExtent=\"0 3 0 2 0 0\""), std::string::npos);
  EXPECT_NE(xml.find("Name=\"receptive_field\""), std::string::npos);
  EXPECT_NE(xml.find("</VTKFile>"), std::string::npos);
}

TEST(Vti, TagsAreBalanced) {
  const std::string xml = sv::vti_to_string({demo_field()});
  for (const std::string tag :
       {"VTKFile", "ImageData", "Piece", "PointData", "DataArray"}) {
    std::size_t opens = 0;
    std::size_t closes = 0;
    std::size_t pos = 0;
    while ((pos = xml.find("<" + tag, pos)) != std::string::npos) {
      ++opens;
      pos += tag.size();
    }
    pos = 0;
    while ((pos = xml.find("</" + tag + ">", pos)) != std::string::npos) {
      ++closes;
      pos += tag.size();
    }
    EXPECT_EQ(opens, closes) << tag;
  }
}

TEST(Vti, MultipleFieldsShareExtent) {
  auto a = demo_field("mask");
  auto b = demo_field("mutual_information");
  const std::string xml = sv::vti_to_string({a, b});
  EXPECT_NE(xml.find("Name=\"mask\""), std::string::npos);
  EXPECT_NE(xml.find("Name=\"mutual_information\""), std::string::npos);
}

TEST(Vti, RejectsInconsistentExtents) {
  auto a = demo_field();
  auto b = demo_field();
  b.width = 5;
  b.values.resize(15);
  EXPECT_THROW(sv::vti_to_string({a, b}), std::invalid_argument);
}

TEST(Vti, RejectsValueCountMismatch) {
  auto field = demo_field();
  field.values.pop_back();
  EXPECT_THROW(sv::vti_to_string({field}), std::invalid_argument);
}

TEST(Vti, RejectsEmptyFieldList) {
  EXPECT_THROW(sv::vti_to_string({}), std::invalid_argument);
}

TEST(Vti, WritesFileToDisk) {
  const std::string path = "/tmp/streambrain_test.vti";
  sv::write_vti(path, {demo_field()});
  const std::string content = slurp(path);
  EXPECT_EQ(content, sv::vti_to_string({demo_field()}));
  fs::remove(path);
}

// ----------------------------------------------------------------- PGM ----

TEST(Pgm, WritesValidHeaderAndPayload) {
  const std::string path = "/tmp/streambrain_test.pgm";
  sv::write_pgm(path, 4, 3, demo_field().values);
  const std::string content = slurp(path);
  EXPECT_EQ(content.substr(0, 3), "P5\n");
  EXPECT_NE(content.find("4 3\n255\n"), std::string::npos);
  // Payload = 12 bytes after the header.
  const std::size_t header_end = content.find("255\n") + 4;
  EXPECT_EQ(content.size() - header_end, 12u);
  fs::remove(path);
}

TEST(Pgm, NormalizesToFullRange) {
  const std::string path = "/tmp/streambrain_test2.pgm";
  sv::write_pgm(path, 2, 1, {-5.0f, 5.0f});
  const std::string content = slurp(path);
  const std::size_t header_end = content.find("255\n") + 4;
  EXPECT_EQ(static_cast<unsigned char>(content[header_end]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(content[header_end + 1]), 255u);
  fs::remove(path);
}

TEST(Pgm, ConstantImageIsMidGray) {
  const std::string path = "/tmp/streambrain_test3.pgm";
  sv::write_pgm(path, 2, 1, {3.0f, 3.0f});
  const std::string content = slurp(path);
  const std::size_t header_end = content.find("255\n") + 4;
  EXPECT_EQ(static_cast<unsigned char>(content[header_end]), 128u);
  fs::remove(path);
}

TEST(Pgm, RejectsSizeMismatch) {
  EXPECT_THROW(sv::write_pgm("/tmp/x.pgm", 3, 3, {1.0f}),
               std::invalid_argument);
}

// --------------------------------------------------------------- ASCII ----

TEST(Ascii, MaskGridRendersHashAndDot) {
  const std::vector<bool> mask = {true, false, false, true};
  const std::string grid = sv::render_mask_grid(mask, 2, 2);
  EXPECT_EQ(grid, "#.\n.#\n");
}

TEST(Ascii, MaskBarShowsCoverage) {
  const std::vector<bool> mask = {true, true, false, false};
  const std::string bar = sv::render_mask_bar(mask);
  EXPECT_NE(bar.find("##.."), std::string::npos);
  EXPECT_NE(bar.find("50%"), std::string::npos);
}

TEST(Ascii, SizeMismatchThrows) {
  EXPECT_THROW(sv::render_mask_grid({true}, 2, 2), std::invalid_argument);
}

// ------------------------------------------------------------ Catalyst ----

TEST(Catalyst, RecordsHistoryInMemory) {
  sv::CatalystAdaptor adaptor;  // no output dir
  adaptor.co_process(0, {{true, false}, {false, true}});
  adaptor.co_process(1, {{true, true}, {false, false}});
  ASSERT_EQ(adaptor.history().size(), 2u);
  EXPECT_EQ(adaptor.history()[1].epoch, 1u);
  EXPECT_EQ(adaptor.history()[0].masks[0][0], true);
}

TEST(Catalyst, EveryNEpochsFilters) {
  sv::CatalystOptions options;
  options.every_n_epochs = 3;
  sv::CatalystAdaptor adaptor(options);
  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    adaptor.co_process(epoch, {{true}});
  }
  ASSERT_EQ(adaptor.history().size(), 4u);  // epochs 0, 3, 6, 9
  EXPECT_EQ(adaptor.history()[1].epoch, 3u);
}

TEST(Catalyst, MaskDriftMeasuresChange) {
  sv::CatalystAdaptor adaptor;
  adaptor.co_process(0, {{true, true, false, false}});
  adaptor.co_process(1, {{true, false, true, false}});  // 2 of 4 flipped
  const auto drift = adaptor.mask_drift();
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_DOUBLE_EQ(drift[0], 0.5);
}

TEST(Catalyst, OverlapIsJaccard) {
  sv::CatalystAdaptor adaptor;
  // Masks {1,1,0,0} and {1,0,1,0}: intersection 1, union 3.
  adaptor.co_process(0, {{true, true, false, false},
                         {true, false, true, false}});
  EXPECT_NEAR(adaptor.latest_overlap(), 1.0 / 3.0, 1e-12);
}

TEST(Catalyst, DisjointMasksZeroOverlap) {
  sv::CatalystAdaptor adaptor;
  adaptor.co_process(0, {{true, false}, {false, true}});
  EXPECT_DOUBLE_EQ(adaptor.latest_overlap(), 0.0);
}

TEST(Catalyst, WritesVtiAndPgmFilesPerHcu) {
  sv::CatalystOptions options;
  options.output_dir = "/tmp/streambrain_catalyst_test";
  options.write_vti = true;
  options.write_pgm = true;
  options.grid_width = 2;
  fs::remove_all(options.output_dir);
  {
    sv::CatalystAdaptor adaptor(options);
    adaptor.co_process(
        0, {{true, false, true, false}, {false, true, false, true}},
        {{0.1f, 0.2f, 0.3f, 0.4f}, {0.4f, 0.3f, 0.2f, 0.1f}});
  }
  EXPECT_TRUE(fs::exists(options.output_dir + "/fields_epoch0000_hcu00.vti"));
  EXPECT_TRUE(fs::exists(options.output_dir + "/fields_epoch0000_hcu01.vti"));
  EXPECT_TRUE(fs::exists(options.output_dir + "/fields_epoch0000_hcu00.pgm"));
  // The VTI must carry both the mask and the MI field.
  const std::string xml =
      slurp(options.output_dir + "/fields_epoch0000_hcu00.vti");
  EXPECT_NE(xml.find("receptive_field"), std::string::npos);
  EXPECT_NE(xml.find("mutual_information"), std::string::npos);
  fs::remove_all(options.output_dir);
}
