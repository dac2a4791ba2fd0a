#pragma once
// Span tracing for the traced benchmark run, recorded from outside the
// library: the benchmark wraps its own calls into each module in Span
// scopes, and a forwarding engine registered through the public
// EngineRegistry times the four hidden-layer primitives wherever the
// library calls them (training threads, distributed ranks, serving
// shards). Spans live in memory and are written out once, at exit.
// Untraced runs never register or construct any of this; they compile
// models on the plain "simd" engine.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

/// Registry name of the forwarding engine (wraps the built-in "simd").
inline constexpr const char* kTracedEngine = "perfbench_traced";

/// Turn recording on and register the traced engine (idempotent).
void enable();
[[nodiscard]] bool enabled() noexcept;

/// Spans opened from now on carry this run id (one id per measured
/// phase, so aggregates can be taken over exactly that phase).
void set_run(int run) noexcept;

/// RAII span: [construction, destruction) on the calling thread. Its
/// parent is the innermost span still open on the same thread. A no-op
/// while recording is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t index_;
};

struct Totals {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< durations minus time covered by child spans
};

/// Per-name totals over the spans of one run id.
[[nodiscard]] std::map<std::string, Totals> aggregate(int run);

/// Write every span as one JSON object per line; returns false on I/O
/// failure.
bool write_spans(const std::string& path);

}  // namespace perfbench::trace
