#pragma once
// Shared golden-digest machinery for the regression suites
// (test_golden_model.cpp, test_distributed.cpp): digest read/write in the
// committed text format under tests/golden/, the STREAMBRAIN_UPDATE_GOLDEN
// regeneration contract, and the RAII dispatch pin that keeps scalar-tier
// training from leaking into other tests.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/kernel_set.hpp"

#ifndef STREAMBRAIN_GOLDEN_DIR
#define STREAMBRAIN_GOLDEN_DIR "tests/golden"
#endif

namespace streambrain::testing {

struct Digest {
  double accuracy = 0.0;
  double log_loss = 0.0;
  std::vector<int> labels;
  std::vector<double> scores;
};

inline std::string golden_path(const std::string& name) {
  return std::string(STREAMBRAIN_GOLDEN_DIR) + "/" + name + ".txt";
}

inline bool update_mode() {
  const char* env = std::getenv("STREAMBRAIN_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

inline void write_digest(const std::string& name, const Digest& digest,
                         const std::string& tier = "scalar") {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  out.precision(12);
  out << "# golden digest '" << name << "' — " << tier
      << "-dispatch training;\n";
  out << "# regenerate with STREAMBRAIN_UPDATE_GOLDEN=1\n";
  out << "accuracy " << digest.accuracy << "\n";
  out << "log_loss " << digest.log_loss << "\n";
  out << "labels " << digest.labels.size();
  for (const int label : digest.labels) out << ' ' << label;
  out << "\nscores " << digest.scores.size();
  for (const double score : digest.scores) out << ' ' << score;
  out << "\n";
}

inline bool read_digest(const std::string& name, Digest& digest) {
  std::ifstream in(golden_path(name));
  if (!in.good()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "accuracy") {
      fields >> digest.accuracy;
    } else if (key == "log_loss") {
      fields >> digest.log_loss;
    } else if (key == "labels") {
      std::size_t count = 0;
      fields >> count;
      digest.labels.resize(count);
      for (std::size_t i = 0; i < count; ++i) fields >> digest.labels[i];
    } else if (key == "scores") {
      std::size_t count = 0;
      fields >> count;
      digest.scores.resize(count);
      for (std::size_t i = 0; i < count; ++i) fields >> digest.scores[i];
    }
  }
  return true;
}

/// RAII dispatch pin so a failing assertion cannot leak the scalar tier
/// into other tests of this binary.
struct ScopedDispatch {
  explicit ScopedDispatch(tensor::DispatchLevel level)
      : previous(tensor::force_dispatch(level)) {}
  ~ScopedDispatch() { tensor::force_dispatch(previous); }
  tensor::DispatchLevel previous;
};

}  // namespace streambrain::testing
