#pragma once
// Model checkpointing: versioned binary serialization of trained BCPNN
// state. Because BCPNN's only learned state is the probability traces
// plus the receptive-field masks (weights are a pure function of them),
// checkpoints are small and exact — loading reproduces the saved model's
// predictions bit-for-bit on the same engine.
//
// Format (little-endian, version 4):
//   magic "SBRN" | u32 version | u32 section tag | section payload ...
// A model file is the model section (tag 4: topology, engine, seed,
// options) followed by one component section per hidden layer and one
// for the head; a layer file is one layer section.
//
// Component sections are the cross product {layer, classifier, sgd_head}
// x {dense, sparse, quant, quant-sparse}, and detail::kComponentSections
// is the one table of their tags: the writer looks a component's tag up
// in it, the reader looks the tag it finds up in it, and the fixture
// tests iterate it. Each section starts with the component's prefix
// (layer geometry, or the class count of a head). A dense section then
// carries the trainable state (traces + masks + prune keep-mask for a
// layer, traces + keep-mask for a classifier, weights + bias + keep-mask
// for an SGD head). The nine read-only sections share one body: the
// bias, then the tensor::WeightStore payload of their form (CSR, int8
// blocks, or int8 CSR of W^T).
//
// Version 2 widened float-array counts from u32 to u64 (version 1
// silently truncated counts >= 2^32); version 3 added the sparse
// section tags and appended a prune keep-mask field to the dense
// sections (so pruned models load bit-for-bit); version 4 added the
// quantized section tags without changing any existing section's bytes.
// Version 1 through 3 files are still read. There is no version 5: the
// weight store changed how the sections are produced, not what is on
// disk, so every v4 byte stays as it was (tests/golden/checkpoints pins
// them). Every count field that stays u32 is overflow-checked on write
// and plausibility-bounded on read — corrupt or fuzzed bytes fail with
// std::runtime_error, never a crash or a runaway allocation.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/classifier.hpp"
#include "core/layer.hpp"
#include "core/model.hpp"
#include "core/weights.hpp"
#include "tensor/weight_store.hpp"

namespace streambrain::core {

/// Save / load a hidden layer's learned state. Loading requires a layer
/// constructed with the identical geometry (input units, bins, hcus,
/// mcus); throws std::runtime_error on mismatch or corrupt files.
void save_layer(const std::string& path, const BcpnnLayer& layer);
void load_layer(const std::string& path, BcpnnLayer& layer);

/// Save / load the full Model facade: a topology section (input geometry,
/// hidden specs, classes, head, engine name, seed, set_option overrides)
/// followed by the learned state of every layer and the head. Unlike
/// load_layer, load_model needs no pre-built object — it rebuilds the
/// topology, compiles on the stored engine, and restores the weights, so
/// `Model m; m.load(path);` reproduces the saved model bit-for-bit.
/// save_model requires a compiled model; load_model an un-compiled one.
void save_model(const std::string& path, const Model& model);
void load_model(const std::string& path, Model& model);

/// Stream variants of the Model checkpoint — the building block for
/// in-memory replica cloning (serve::ShardPool) and network transports.
void save_model(std::ostream& out, const Model& model);
void load_model(std::istream& in, Model& model);

/// Clone a compiled model via an in-memory checkpoint round-trip. The
/// replica is an independent object (own engine instance, own weights)
/// whose predictions are bit-identical to the original's.
[[nodiscard]] Model clone_model(const Model& model);

namespace detail {

/// The component a checkpoint section belongs to.
enum class Component : std::uint8_t { kLayer, kClassifier, kSgdHead };

/// The weight form a component section carries: std::nullopt for the
/// dense trainable state, else the read-only WeightStore form.
using WeightForm = std::optional<tensor::WeightStore::Form>;

struct SectionTag {
  Component component;
  WeightForm form;
  std::uint32_t tag;  ///< the u32 on disk; never renumbered or reused
};

/// Tag of the model (topology) section that opens every model file.
inline constexpr std::uint32_t kModelSectionTag = 4;

/// Every component section of the format, one entry per {component,
/// form}.
inline constexpr std::array<SectionTag, 12> kComponentSections = {{
    {Component::kLayer, std::nullopt, 1},
    {Component::kClassifier, std::nullopt, 2},
    {Component::kSgdHead, std::nullopt, 3},
    {Component::kLayer, tensor::WeightStore::Form::kCsr, 5},
    {Component::kClassifier, tensor::WeightStore::Form::kCsr, 6},
    {Component::kSgdHead, tensor::WeightStore::Form::kCsr, 7},
    {Component::kLayer, tensor::WeightStore::Form::kQuant, 8},
    {Component::kClassifier, tensor::WeightStore::Form::kQuant, 9},
    {Component::kSgdHead, tensor::WeightStore::Form::kQuant, 10},
    {Component::kLayer, tensor::WeightStore::Form::kQuantCsr, 11},
    {Component::kClassifier, tensor::WeightStore::Form::kQuantCsr, 12},
    {Component::kSgdHead, tensor::WeightStore::Form::kQuantCsr, 13},
}};

/// Tag of the section that carries `component` in `form`.
constexpr std::uint32_t section_tag(Component component, WeightForm form) {
  for (const SectionTag& entry : kComponentSections) {
    if (entry.component == component && entry.form == form) return entry.tag;
  }
  throw std::logic_error("checkpoint: no section for this component form");
}

/// True when every tag (the model tag included) is distinct and every
/// {component, form} pair has exactly one entry.
constexpr bool section_table_is_well_formed() {
  for (std::size_t i = 0; i < kComponentSections.size(); ++i) {
    const SectionTag& a = kComponentSections[i];
    if (a.tag == kModelSectionTag) return false;
    for (std::size_t j = i + 1; j < kComponentSections.size(); ++j) {
      const SectionTag& b = kComponentSections[j];
      if (a.tag == b.tag) return false;
      if (a.component == b.component && a.form == b.form) return false;
    }
  }
  return true;
}
static_assert(section_table_is_well_formed(),
              "checkpoint section tags must be unique, one per "
              "{component, form}");

/// The weight form a component is in (layer, classifier or SGD head).
inline WeightForm weight_form(const Weights& weights) {
  if (!weights.sparse() && !weights.quantized()) return std::nullopt;
  return weights.inference_weights().form();
}

/// Narrow a size to u32 for a checkpoint count field, throwing
/// std::runtime_error instead of truncating when it does not fit.
std::uint32_t checked_u32(std::size_t value, const char* what);

}  // namespace detail

}  // namespace streambrain::core
