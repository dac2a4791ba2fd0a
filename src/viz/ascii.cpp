#include "viz/ascii.hpp"

#include <sstream>
#include <stdexcept>

#include "util/string_util.hpp"

namespace streambrain::viz {

std::string render_mask_grid(const std::vector<bool>& mask, std::size_t width,
                             std::size_t height) {
  if (mask.size() != width * height) {
    throw std::invalid_argument("render_mask_grid: size mismatch");
  }
  std::ostringstream out;
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      out << (mask[y * width + x] ? '#' : '.');
    }
    out << '\n';
  }
  return out.str();
}

std::string render_mask_bar(const std::vector<bool>& mask) {
  std::size_t active = 0;
  std::ostringstream out;
  out << '[';
  for (bool bit : mask) {
    out << (bit ? '#' : '.');
    active += bit ? 1 : 0;
  }
  out << "] ";
  const double coverage =
      mask.empty() ? 0.0
                   : 100.0 * static_cast<double>(active) /
                         static_cast<double>(mask.size());
  out << util::format("%.0f%%", coverage);
  return out.str();
}

}  // namespace streambrain::viz
