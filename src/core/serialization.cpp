#include "core/serialization.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tensor/csr.hpp"
#include "tensor/quant.hpp"
#include "tensor/weight_store.hpp"

namespace streambrain::core {

namespace detail {

std::uint32_t checked_u32(std::size_t value, const char* what) {
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error(std::string("checkpoint: ") + what + " count " +
                             std::to_string(value) +
                             " does not fit in a u32 field");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace detail

namespace {

using detail::checked_u32;

constexpr char kMagic[4] = {'S', 'B', 'R', 'N'};
// Version 2 widened float-array counts from u32 to u64 (a >= 4 GiB trace
// array silently truncated its count under version 1). Version 3 added
// the sparse section tags (CSR weights + bias for a Model::sparsify()'d
// component) AND appended a prune keep-mask field to every dense
// layer/classifier/sgd_head section — dense v3 payloads are NOT
// byte-compatible with v2. Version 4 added the quantized section tags
// (int8 block-scaled weights for a Model::quantize()'d component, dense
// or CSR) without changing any existing section's bytes — a v4 file
// with no quantized component is byte-identical to v3 except for the
// version word. Version 1 through 3 files are still read.
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kOldestReadableVersion = 1;

using detail::Component;
using detail::WeightForm;
using Form = tensor::WeightStore::Form;

// --- Primitive IO ---------------------------------------------------------

void write_u32(std::ostream& out, std::uint32_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("checkpoint: truncated u32");
  return value;
}

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("checkpoint: truncated u64");
  return value;
}

void write_f64(std::ostream& out, double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

double read_f64(std::istream& in) {
  double value = 0.0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("checkpoint: truncated f64");
  return value;
}

void write_string(std::ostream& out, const std::string& value) {
  write_u32(out, checked_u32(value.size(), "string length"));
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

std::string read_string(std::istream& in) {
  const std::uint32_t size = read_u32(in);
  // Engine names and option keys are short; a large length here means a
  // corrupt file, and must not turn into a multi-GB allocation.
  if (size > 4096) {
    throw std::runtime_error("checkpoint: implausible string length " +
                             std::to_string(size));
  }
  std::string value(size, '\0');
  in.read(value.data(), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("checkpoint: truncated string");
  return value;
}

void write_floats(std::ostream& out, const float* data, std::size_t count) {
  write_u64(out, static_cast<std::uint64_t>(count));
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(float)));
}

void read_floats(std::istream& in, float* data, std::size_t expected,
                 std::uint32_t version) {
  // Version 1 stored float-array counts as u32 (and silently truncated
  // larger arrays on write); version 2 widened the field to u64.
  const std::uint64_t count =
      version >= 2 ? read_u64(in) : static_cast<std::uint64_t>(read_u32(in));
  if (count != expected) {
    throw std::runtime_error("checkpoint: float array size mismatch");
  }
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(expected * sizeof(float)));
  if (!in) throw std::runtime_error("checkpoint: truncated float array");
}

void write_header(std::ostream& out) {
  out.write(kMagic, 4);
  write_u32(out, kVersion);
}

/// Validates magic + version and returns the file's version so readers
/// can decode version-dependent fields (see read_floats).
std::uint32_t read_header(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  const std::uint32_t version = read_u32(in);
  if (version < kOldestReadableVersion || version > kVersion) {
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version));
  }
  return version;
}

/// A u32 field with a plausibility ceiling. Corrupt bytes in a count or
/// geometry field must fail here with a clean error, not turn into a
/// multi-GB allocation or a four-billion-iteration loop downstream (the
/// checkpoint fuzz suite drives exactly these mutations). The limits are
/// generous for every model this codebase builds.
std::uint32_t read_u32_bounded(std::istream& in, std::uint32_t limit,
                               const char* what) {
  const std::uint32_t value = read_u32(in);
  if (value > limit) {
    throw std::runtime_error(std::string("checkpoint: implausible ") + what +
                             " " + std::to_string(value));
  }
  return value;
}

// --- Prune keep-masks ------------------------------------------------------
// Version 3 appends an element keep-mask field to the dense layer /
// classifier / sgd_head sections: u8 flag (0 = unpruned), then one byte
// per weight when set. Without it, loading a magnitude-pruned model
// would silently regrow the pruned weights (BCPNN weights are a pure
// function of the traces), breaking the bit-for-bit load guarantee.

void write_prune_mask(std::ostream& out,
                      const std::vector<std::uint8_t>& mask) {
  out.put(mask.empty() ? 0 : 1);
  if (!mask.empty()) {
    out.write(reinterpret_cast<const char*>(mask.data()),
              static_cast<std::streamsize>(mask.size()));
  }
}

/// Returns an empty vector when the flag byte is 0. Only format
/// version >= 3 carries the field; callers must gate on that.
std::vector<std::uint8_t> read_prune_mask(std::istream& in,
                                          std::size_t expected_size) {
  const int flag = in.get();
  if (flag == std::char_traits<char>::eof()) {
    throw std::runtime_error("checkpoint: truncated prune-mask flag");
  }
  if (flag == 0) return {};
  if (flag != 1) {
    throw std::runtime_error("checkpoint: bad prune-mask flag " +
                             std::to_string(flag));
  }
  std::vector<std::uint8_t> mask(expected_size);
  in.read(reinterpret_cast<char*>(mask.data()),
          static_cast<std::streamsize>(expected_size));
  if (!in) throw std::runtime_error("checkpoint: truncated prune mask");
  for (const std::uint8_t bit : mask) {
    if (bit > 1) {
      throw std::runtime_error("checkpoint: corrupt prune-mask byte");
    }
  }
  return mask;
}

// --- Read-only weight payloads ---------------------------------------------
// One payload per WeightStore form, each opening with u64 rows | u64 cols:
//   CsrMatrix:        | u64 nnz | row_ptr[rows+1] u64 | col_idx[nnz] u32 |
//                       values[nnz] f32
//   QuantBlockMatrix: | u64 block_size | codes[rows*cols] i8 |
//                       scales[rows*blocks_per_row] f32
//   QuantCsr:         | u64 nnz | row_ptr[rows+1] u64 | col_idx[nnz] u32 |
//                       codes[nnz] i8 | row_scales[rows] f32
// Array sizes derive from the geometry fields, which the reader checks
// against the enclosing section's expected shape (and the nnz / block
// size plausibility ceilings) BEFORE allocating; the adopt() calls then
// re-validate the full container invariants (CSR index ordering, code
// range, finite scales).

template <typename T>
void write_array(std::ostream& out, const std::vector<T>& values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

/// Reads `count` elements; the caller checks the stream once after the
/// last array of a payload.
template <typename T>
std::vector<T> read_array(std::istream& in, std::size_t count) {
  std::vector<T> values(count);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return values;
}

void write_store(std::ostream& out, const tensor::WeightStore& store) {
  write_u64(out, store.rows());
  write_u64(out, store.cols());
  switch (store.form()) {
    case Form::kCsr: {
      const tensor::CsrMatrix& wt = store.csr();
      write_u64(out, wt.nnz());
      write_array(out, wt.row_ptr());
      write_array(out, wt.col_idx());
      write_array(out, wt.values());
      return;
    }
    case Form::kQuant: {
      const tensor::QuantBlockMatrix& wt = store.quant();
      write_u64(out, wt.block_size());
      write_array(out, wt.codes());
      write_array(out, wt.scales());
      return;
    }
    case Form::kQuantCsr: {
      const tensor::QuantCsr& wt = store.quant_csr();
      write_u64(out, wt.nnz());
      write_array(out, wt.row_ptr());
      write_array(out, wt.col_idx());
      write_array(out, wt.codes());
      write_array(out, wt.row_scales());
      return;
    }
  }
}

/// The arrays of a `form` payload whose rows | cols | nnz-or-block-size
/// header the caller has read and shape-checked.
tensor::WeightStore read_store_arrays(std::istream& in, Form form,
                                      std::uint64_t rows, std::uint64_t cols,
                                      std::uint64_t third) {
  if (form != Form::kQuant && third > rows * cols) {
    throw std::runtime_error("checkpoint: implausible sparse entry count " +
                             std::to_string(third));
  }
  const auto require_complete = [&in] {
    if (!in) throw std::runtime_error("checkpoint: truncated weight payload");
  };
  switch (form) {
    case Form::kCsr: {
      auto row_ptr = read_array<std::uint64_t>(in, rows + 1);
      auto col_idx = read_array<std::uint32_t>(in, third);
      auto values = read_array<float>(in, third);
      require_complete();
      return tensor::WeightStore(tensor::CsrMatrix::adopt(
          rows, cols, std::move(row_ptr), std::move(col_idx),
          std::move(values)));
    }
    case Form::kQuant: {
      const std::uint64_t block_size = third;
      if (block_size == 0 || block_size > tensor::kMaxQuantBlock) {
        throw std::runtime_error("checkpoint: implausible quant block size " +
                                 std::to_string(block_size));
      }
      const std::uint64_t blocks = (cols + block_size - 1) / block_size;
      auto codes = read_array<std::int8_t>(in, rows * cols);
      auto scales = read_array<float>(in, rows * blocks);
      require_complete();
      return tensor::WeightStore(tensor::QuantBlockMatrix::adopt(
          rows, cols, block_size, std::move(codes), std::move(scales)));
    }
    case Form::kQuantCsr: {
      auto row_ptr = read_array<std::uint64_t>(in, rows + 1);
      auto col_idx = read_array<std::uint32_t>(in, third);
      auto codes = read_array<std::int8_t>(in, third);
      auto row_scales = read_array<float>(in, rows);
      require_complete();
      return tensor::WeightStore(tensor::QuantCsr::adopt(
          rows, cols, std::move(row_ptr), std::move(col_idx),
          std::move(codes), std::move(row_scales)));
    }
  }
  throw std::logic_error("checkpoint: unknown weight form");
}

/// The payload of `form`, shape-checked against [expected_rows x
/// expected_cols] before any allocation.
tensor::WeightStore read_store(std::istream& in, Form form,
                               std::size_t expected_rows,
                               std::size_t expected_cols) {
  const std::uint64_t rows = read_u64(in);
  const std::uint64_t cols = read_u64(in);
  const std::uint64_t third = read_u64(in);  // nnz, or the block size
  if (rows != expected_rows || cols != expected_cols) {
    throw std::runtime_error("checkpoint: weight matrix shape mismatch");
  }
  try {
    return read_store_arrays(in, form, rows, cols, third);
  } catch (const std::invalid_argument& error) {
    throw std::runtime_error(std::string("checkpoint: ") + error.what());
  }
}

// --- Sections --------------------------------------------------------------

void write_traces(std::ostream& out, const ProbabilityTraces& traces) {
  write_floats(out, traces.pi().data(), traces.pi().size());
  write_floats(out, traces.pj().data(), traces.pj().size());
  write_floats(out, traces.pij().data(), traces.pij().size());
}

void read_traces(std::istream& in, ProbabilityTraces& traces,
                 std::uint32_t version) {
  read_floats(in, traces.mutable_pi().data(), traces.pi().size(), version);
  read_floats(in, traces.mutable_pj().data(), traces.pj().size(), version);
  read_floats(in, traces.mutable_pij().data(), traces.pij().size(), version);
}

/// Reads a section tag and returns the weight form it announces for
/// `component`; throws on a tag the table does not give that component.
WeightForm read_section_form(std::istream& in, Component component) {
  const std::uint32_t tag = read_u32(in);
  for (const detail::SectionTag& entry : detail::kComponentSections) {
    if (entry.tag == tag && entry.component == component) return entry.form;
  }
  throw std::runtime_error("checkpoint: unexpected section tag " +
                           std::to_string(tag));
}

/// The body every read-only section shares after its prefix.
void write_frozen_body(std::ostream& out, const Weights& weights) {
  write_floats(out, weights.bias().data(), weights.bias().size());
  write_store(out, weights.inference_weights());
}

/// Reads that body, shape-checked against the component's W^T, and hands
/// it to the component.
void read_frozen_body(std::istream& in, Weights& weights, Form form,
                      std::uint32_t version) {
  std::vector<float> bias(weights.outputs());
  read_floats(in, bias.data(), bias.size(), version);
  weights.adopt(read_store(in, form, weights.outputs(), weights.inputs()),
                std::move(bias));
}

void write_layer_section(std::ostream& out, const BcpnnLayer& layer) {
  const auto& config = layer.config();
  const WeightForm form = detail::weight_form(layer);
  write_u32(out, detail::section_tag(Component::kLayer, form));
  write_u32(out, checked_u32(config.input_hypercolumns, "hypercolumn"));
  write_u32(out, checked_u32(config.input_bins, "bin"));
  write_u32(out, checked_u32(config.hcus, "hcu"));
  write_u32(out, checked_u32(config.mcus, "mcu"));
  if (form) {
    write_frozen_body(out, layer);
    return;
  }
  write_traces(out, layer.traces());
  for (std::size_t h = 0; h < config.hcus; ++h) {
    const auto& mask = layer.masks().mask(h);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      out.put(mask[i] ? 1 : 0);
    }
  }
  write_prune_mask(out, layer.prune_mask());
}

void read_layer_section(std::istream& in, BcpnnLayer& layer,
                        std::uint32_t version) {
  const WeightForm form = read_section_form(in, Component::kLayer);
  const auto& config = layer.config();
  if (read_u32(in) != config.input_hypercolumns ||
      read_u32(in) != config.input_bins || read_u32(in) != config.hcus ||
      read_u32(in) != config.mcus) {
    throw std::runtime_error("checkpoint: layer geometry mismatch");
  }
  if (form) {
    read_frozen_body(in, layer, *form, version);
    return;
  }
  ProbabilityTraces traces(config.input_units(), config.input_bins,
                           config.hidden_units(), config.mcus);
  read_traces(in, traces, version);
  // Masks: rebuild from the stored bits (cardinality must match config).
  util::Rng scratch_rng(0);
  ReceptiveFieldMasks masks(config.hcus, config.input_hypercolumns,
                            config.mask_cardinality(), scratch_rng);
  for (std::size_t h = 0; h < config.hcus; ++h) {
    std::size_t active = 0;
    for (std::size_t i = 0; i < config.input_hypercolumns; ++i) {
      const int bit = in.get();
      if (bit == std::char_traits<char>::eof()) {
        throw std::runtime_error("checkpoint: truncated masks");
      }
      masks.set(h, i, bit != 0);
      active += bit != 0 ? 1 : 0;
    }
    if (active != config.mask_cardinality()) {
      throw std::runtime_error("checkpoint: mask cardinality mismatch");
    }
  }
  std::vector<std::uint8_t> prune;
  if (version >= 3) {
    prune =
        read_prune_mask(in, config.input_units() * config.hidden_units());
  }
  layer.set_state(traces, masks);
  layer.set_prune_mask(std::move(prune));
}

/// Tag and class-count prefix of a head section.
WeightForm write_head_prefix(std::ostream& out, const Weights& head,
                             Component component) {
  const WeightForm form = detail::weight_form(head);
  write_u32(out, detail::section_tag(component, form));
  write_u32(out, checked_u32(head.outputs(), "class"));
  return form;
}

WeightForm read_head_prefix(std::istream& in, const Weights& head,
                            Component component) {
  const WeightForm form = read_section_form(in, component);
  if (read_u32(in) != head.outputs()) {
    throw std::runtime_error("checkpoint: class count mismatch");
  }
  return form;
}

void write_classifier_section(std::ostream& out, const BcpnnClassifier& head) {
  if (write_head_prefix(out, head, Component::kClassifier)) {
    write_frozen_body(out, head);
    return;
  }
  write_traces(out, head.traces());
  write_prune_mask(out, head.prune_mask());
}

void read_classifier_section(std::istream& in, BcpnnClassifier& head,
                             std::uint32_t version) {
  const WeightForm form = read_head_prefix(in, head, Component::kClassifier);
  if (form) {
    read_frozen_body(in, head, *form, version);
    return;
  }
  read_traces(in, head.mutable_traces(), version);
  head.recompute_weights();
  if (version >= 3) {
    head.set_prune_mask(read_prune_mask(in, head.inputs() * head.classes()));
  }
}

void write_sgd_section(std::ostream& out, const SgdHead& head) {
  if (write_head_prefix(out, head, Component::kSgdHead)) {
    write_frozen_body(out, head);
    return;
  }
  write_floats(out, head.weights().data(), head.weights().size());
  write_floats(out, head.bias().data(), head.bias().size());
  write_prune_mask(out, head.prune_mask());
}

void read_sgd_section(std::istream& in, SgdHead& head,
                      std::uint32_t version) {
  const WeightForm form = read_head_prefix(in, head, Component::kSgdHead);
  if (form) {
    read_frozen_body(in, head, *form, version);
    return;
  }
  tensor::MatrixF weights(head.inputs(), head.classes());
  std::vector<float> bias(head.classes());
  read_floats(in, weights.data(), weights.size(), version);
  read_floats(in, bias.data(), bias.size(), version);
  head.set_state(weights, bias);
  if (version >= 3) {
    head.set_prune_mask(read_prune_mask(in, weights.size()));
  }
}

/// Every hidden layer, bottom to top, then the head.
void write_network_state(std::ostream& out, const Network& network) {
  for (std::size_t l = 0; l < network.depth(); ++l) {
    write_layer_section(out, network.layer(l));
  }
  if (const BcpnnClassifier* head = network.bcpnn_head()) {
    write_classifier_section(out, *head);
  } else if (const SgdHead* head = network.sgd_head()) {
    write_sgd_section(out, *head);
  }
}

void read_network_state(std::istream& in, Network& network,
                        std::uint32_t version) {
  for (std::size_t l = 0; l < network.depth(); ++l) {
    read_layer_section(in, network.mutable_layer(l), version);
  }
  if (BcpnnClassifier* head = network.bcpnn_head()) {
    read_classifier_section(in, *head, version);
  } else if (SgdHead* head = network.sgd_head()) {
    read_sgd_section(in, *head, version);
  }
}

}  // namespace

void save_layer(const std::string& path, const BcpnnLayer& layer) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("save_layer: cannot open " + path);
  write_header(file);
  write_layer_section(file, layer);
  if (!file) throw std::runtime_error("save_layer: write failed");
}

void load_layer(const std::string& path, BcpnnLayer& layer) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("load_layer: cannot open " + path);
  const std::uint32_t version = read_header(file);
  read_layer_section(file, layer, version);
}

void save_model(std::ostream& out, const Model& model) {
  if (!model.compiled()) {
    throw std::logic_error("save_model: model is not compiled");
  }
  write_header(out);

  // Topology section: everything needed to rebuild and re-compile the
  // facade before the learned state is streamed in.
  write_u32(out, detail::kModelSectionTag);
  write_u32(out, checked_u32(model.input_hypercolumns(), "hypercolumn"));
  write_u32(out, checked_u32(model.input_bins(), "bin"));
  write_u32(out, checked_u32(model.hidden_specs().size(), "hidden layer"));
  for (const auto& spec : model.hidden_specs()) {
    write_u32(out, checked_u32(spec.hcus, "hcu"));
    write_u32(out, checked_u32(spec.mcus, "mcu"));
    write_f64(out, spec.receptive_field);
  }
  write_u32(out, checked_u32(model.classes(), "class"));
  write_u32(out, static_cast<std::uint32_t>(model.head()));
  write_string(out, model.engine_name());
  write_u64(out, model.seed());
  const auto option_keys = model.options().keys();
  write_u32(out, checked_u32(option_keys.size(), "option"));
  for (const auto& key : option_keys) {
    write_string(out, key);
    write_f64(out, model.options().get_double(key, 0.0));
  }

  write_network_state(out, model.network());
  if (!out) throw std::runtime_error("save_model: write failed");
}

void save_model(const std::string& path, const Model& model) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("save_model: cannot open " + path);
  save_model(file, model);
}

void load_model(std::istream& in, Model& model) {
  if (model.compiled()) {
    throw std::logic_error("load_model: model is already compiled");
  }
  if (model.input_hypercolumns() != 0 || !model.hidden_specs().empty()) {
    throw std::logic_error(
        "load_model: model already has topology declared; load into a "
        "blank Model");
  }
  const std::uint32_t version = read_header(in);
  if (const std::uint32_t tag = read_u32(in);
      tag != detail::kModelSectionTag) {
    throw std::runtime_error("checkpoint: unexpected section tag " +
                             std::to_string(tag));
  }

  // Stage into a scratch Model so a failure at any point (truncated
  // weights, geometry mismatch) leaves the caller's object untouched
  // instead of compiled-with-random-weights. Geometry fields are
  // plausibility-bounded: compile() allocates traces from them before
  // any weight bytes are validated, so a corrupt field must be rejected
  // here rather than turn into a runaway allocation.
  constexpr std::uint32_t kMaxGeometry = 1u << 20;
  constexpr std::uint64_t kMaxLayerWeights = 1ull << 26;  // floats per layer
  Model staging;
  const std::uint32_t input_hypercolumns =
      read_u32_bounded(in, kMaxGeometry, "hypercolumn count");
  const std::uint32_t input_bins =
      read_u32_bounded(in, kMaxGeometry, "bin count");
  staging.input(input_hypercolumns, input_bins);
  const std::uint32_t depth = read_u32_bounded(in, 256, "hidden depth");
  if (depth == 0) throw std::runtime_error("load_model: no hidden layers");
  const std::uint64_t input_units =
      static_cast<std::uint64_t>(input_hypercolumns) * input_bins;
  std::uint64_t below_units = input_units;
  for (std::uint32_t l = 0; l < depth; ++l) {
    const std::uint32_t hcus = read_u32_bounded(in, kMaxGeometry, "hcu count");
    const std::uint32_t mcus = read_u32_bounded(in, kMaxGeometry, "mcu count");
    const double receptive_field = read_f64(in);
    const std::uint64_t units = static_cast<std::uint64_t>(hcus) * mcus;
    if (units > kMaxGeometry || below_units * units > kMaxLayerWeights) {
      throw std::runtime_error(
          "checkpoint: implausible layer geometry (weight matrix over " +
          std::to_string(kMaxLayerWeights) + " entries)");
    }
    below_units = units;
    staging.hidden(hcus, mcus, receptive_field);
  }
  const std::uint32_t classes =
      read_u32_bounded(in, kMaxGeometry, "class count");
  const std::uint32_t head_tag = read_u32(in);
  if (head_tag > 1) throw std::runtime_error("load_model: bad head tag");
  staging.classifier(classes, static_cast<HeadType>(head_tag));
  const std::string engine = read_string(in);
  const std::uint64_t seed = read_u64(in);
  const std::uint32_t option_count =
      read_u32_bounded(in, 4096, "option count");
  for (std::uint32_t i = 0; i < option_count; ++i) {
    const std::string key = read_string(in);
    const double value = read_f64(in);
    staging.set_option(key, value);
  }
  staging.compile(engine, seed);

  read_network_state(in, staging.network(), version);
  model = std::move(staging);
}

void load_model(const std::string& path, Model& model) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("load_model: cannot open " + path);
  load_model(file, model);
}

Model clone_model(const Model& model) {
  // The checkpoint format is the one exact, engine-aware snapshot of a
  // compiled model, so cloning is a save/load round-trip through memory:
  // the replica compiles on the same engine and predicts bit-identically.
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_model(buffer, model);
  Model replica;
  load_model(buffer, replica);
  return replica;
}

}  // namespace streambrain::core

