#pragma once
// Terminal renderers for receptive-field masks — the console analogue of
// the paper's Fig. 2/5 (red = active connection, blue = silent).

#include <cstddef>
#include <string>
#include <vector>

namespace streambrain::viz {

/// Render a boolean mask as a WxH character grid ('#' active, '.' silent).
std::string render_mask_grid(const std::vector<bool>& mask, std::size_t width,
                             std::size_t height);

/// Render a 1-D mask (e.g. over the 28 Higgs features) as a labelled bar:
/// active features are '#', silent '.', with a coverage percentage suffix.
std::string render_mask_bar(const std::vector<bool>& mask);

}  // namespace streambrain::viz
