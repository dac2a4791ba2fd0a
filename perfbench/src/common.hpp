#pragma once
// Shared plumbing of the end-to-end benchmark: run options, the metric
// report every workload fills, order statistics, and the data helpers
// the workloads build their inputs with. Only the library's public
// surface (the umbrella header) is used, so the benchmark keeps
// measuring the same calls while the internals change underneath.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "streambrain/streambrain.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< working files (checkpoints, span dump)
  std::string source_id;  ///< git sha or source digest, for the header
};

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);

/// Length of the windows window_medians takes medians in.
inline constexpr double kLatencyWindowSeconds = 0.5;

/// The median latency in each whole kLatencyWindowSeconds window of
/// [from_s, to_s), by `at_s` (each sample's time in the phase). These are
/// the p50_ms samples: the median inside a window drops the tail, and
/// run.py's median over the windows drops the windows the host stalled
/// most, where one median over all samples would move with every stall.
[[nodiscard]] std::vector<double> window_medians(
    const std::vector<double>& at_s, const std::vector<double>& latency_ms,
    double from_s, double to_s);

/// Exact order statistic at quantile q in [0, 1] (nearest rank).
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Everything one benchmark process reports. End-to-end metrics collect
/// one sample per repetition inside the process (run.py takes their
/// median); per-layer metrics are single values from the traced run.
/// Both keep insertion order so the printed JSON reads in pipeline order.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };

  void sample(const std::string& name, const std::string& unit, double value);
  void layer(const std::string& name, const std::string& unit, double value);
  /// Median of an end-to-end metric's samples so far (0 when absent).
  [[nodiscard]] double median_of(const std::string& name) const;
  /// Record a correctness gate; a failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what);
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);

  void attempt(std::uint64_t count = 1) { attempted_ += count; }
  void fail(std::uint64_t count = 1) { failed_ += count; }

  [[nodiscard]] bool correct() const noexcept { return gate_failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& gate_failures() const noexcept {
    return gate_failures_;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Metric>& end_to_end() const noexcept {
    return e2e_;
  }
  [[nodiscard]] const std::vector<Metric>& per_layer() const noexcept {
    return layer_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  context_fields() const noexcept {
    return context_;
  }

 private:
  static Metric& find_or_add(std::vector<Metric>& list,
                             const std::string& name,
                             const std::string& unit);

  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> gate_failures_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Seeded synthetic HIGGS events, 28 raw features each.
[[nodiscard]] streambrain::data::Dataset generate_events(std::uint64_t seed,
                                                        std::size_t count);

/// Bitwise equality of two score vectors (the determinism contracts the
/// gates check are bit-for-bit, not within a tolerance).
[[nodiscard]] bool bit_identical(const std::vector<double>& a,
                                 const std::vector<double>& b);

/// Rows [begin, begin + count) of `x` as their own matrix.
[[nodiscard]] streambrain::tensor::MatrixF slice_rows(
    const streambrain::tensor::MatrixF& x, std::size_t begin,
    std::size_t count);

/// Direct (serverless) predict_scores calls on consecutive
/// `rows_per_call`-row slices of `x`, back to back on the caller's
/// thread, for `budget_s` seconds. Samples p50_ms (window_medians of the
/// calls) and capacity_rows_s (rows per second over the whole budget).
void direct_request_latency(streambrain::core::Model& model,
                            const streambrain::tensor::MatrixF& x,
                            std::size_t rows_per_call, double budget_s,
                            Report& report);

/// Offline predict_scores throughput of `model` on `x`, in calls of at
/// most `chunk_rows` rows, repeated for at least `budget_s` seconds (at
/// least one full pass). Samples eval_rows_s once (rows over the calls'
/// own time), sets the per-layer core.predict_us_per_row, and returns the
/// scores of the last pass.
std::vector<double> offline_throughput(streambrain::core::Model& model,
                                       const streambrain::tensor::MatrixF& x,
                                       std::size_t chunk_rows, double budget_s,
                                       Report& report);

/// Per-layer self time and call count of the four hidden-layer
/// primitives over the spans of trace run `run`.
void report_primitives(int run, Report& report);

/// Summed duration of the spans called `name` in `totals`.
[[nodiscard]] double span_total(
    const std::map<std::string, trace::Totals>& totals, const char* name);

// --- Workloads ---------------------------------------------------------------

void run_fit_paper(const RunOptions& options, Report& report);
void run_serve(const RunOptions& options, Report& report);

}  // namespace perfbench
