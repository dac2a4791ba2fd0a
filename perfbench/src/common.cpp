#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

#include "trace.hpp"

namespace perfbench {

using namespace streambrain;

double median(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> window_medians(const std::vector<double>& at_s,
                                   const std::vector<double>& latency_ms,
                                   double from_s, double to_s) {
  const auto windows = static_cast<std::size_t>(
      std::max(0.0, (to_s - from_s) / kLatencyWindowSeconds));
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < at_s.size(); ++i) {
    if (at_s[i] < from_s) continue;
    const auto w =
        static_cast<std::size_t>((at_s[i] - from_s) / kLatencyWindowSeconds);
    if (w < windows) by_window[w].push_back(latency_ms[i]);
  }
  std::vector<double> medians;
  for (std::vector<double>& window : by_window) {
    if (!window.empty()) medians.push_back(median(std::move(window)));
  }
  return medians;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Report::Metric& Report::find_or_add(std::vector<Metric>& list,
                                    const std::string& name,
                                    const std::string& unit) {
  for (Metric& metric : list) {
    if (metric.name == name) return metric;
  }
  list.push_back({name, unit, {}});
  return list.back();
}

void Report::sample(const std::string& name, const std::string& unit,
                    double value) {
  find_or_add(e2e_, name, unit).samples.push_back(value);
}

void Report::layer(const std::string& name, const std::string& unit,
                   double value) {
  Metric& metric = find_or_add(layer_, name, unit);
  metric.samples.assign(1, value);
}

double Report::median_of(const std::string& name) const {
  for (const Metric& metric : e2e_) {
    if (metric.name == name) return median(metric.samples);
  }
  return 0.0;
}

void Report::gate(bool ok, const std::string& what) {
  if (!ok) gate_failures_.push_back(what);
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::context(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  context_.emplace_back(key, buffer);
}

data::Dataset generate_events(std::uint64_t seed, std::size_t count) {
  data::HiggsGeneratorOptions options;
  options.seed = seed;
  data::SyntheticHiggsGenerator generator(options);
  return generator.generate(count);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

tensor::MatrixF slice_rows(const tensor::MatrixF& x, std::size_t begin,
                           std::size_t count) {
  tensor::MatrixF out(count, x.cols());
  std::copy_n(x.row(begin), count * x.cols(), out.data());
  return out;
}

namespace {

// Timing one fixed input buffer also times its accidental alignment.
// Inputs are therefore copied behind pads of kPadSteps different sizes,
// so their start moves across the cache lines of a page and a timing
// covers many alignments instead of one draw.
constexpr std::size_t kPadSteps = 64;

std::vector<char> alignment_pad(std::size_t step) {
  return std::vector<char>(16 + 64 * (step % kPadSteps), 0);
}

}  // namespace

void direct_request_latency(core::Model& model, const tensor::MatrixF& x,
                            std::size_t rows_per_call, double budget_s,
                            Report& report) {
  std::vector<std::vector<char>> pads;
  std::vector<tensor::MatrixF> requests;
  for (std::size_t row = 0; row + rows_per_call <= x.rows();
       row += rows_per_call) {
    pads.push_back(alignment_pad(requests.size()));
    requests.push_back(slice_rows(x, row, rows_per_call));
  }
  // Throughput is one rate over the whole budget: a single thread here
  // runs at one of two speeds in stretches of about a second (the host's
  // virtual CPUs differ), and the rate over the whole budget averages the
  // stretches where a median over short slices would pick one of them.
  std::vector<double> at_s, latency_ms;
  std::size_t rows = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < budget_s; ++i) {
    const tensor::MatrixF& request = requests[i % requests.size()];
    const Clock::time_point call = Clock::now();
    const std::vector<double> scores = model.predict_scores(request);
    at_s.push_back(std::chrono::duration<double>(call - start).count());
    latency_ms.push_back(1e3 * seconds_since(call));
    report.attempt();
    rows += scores.size();
  }
  const double elapsed_s = seconds_since(start);
  for (const double ms : window_medians(at_s, latency_ms, 0.0, elapsed_s)) {
    report.sample("p50_ms", "ms", ms);
  }
  report.sample("capacity_rows_s", "rows/s",
                static_cast<double>(rows) / elapsed_s);
}

std::vector<double> offline_throughput(core::Model& model,
                                       const tensor::MatrixF& x,
                                       std::size_t chunk_rows, double budget_s,
                                       Report& report) {
  // Inputs are scored chunk_rows at a time (rows are scored
  // independently, so the concatenation equals one call), and one sample
  // (rows over the calls' own time) is taken over the whole budget, for
  // the reason given in direct_request_latency.
  std::vector<double> scores(x.rows());
  double call_s = 0.0;
  std::size_t rows_scored = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(start) < budget_s;
       ++pass) {
    for (std::size_t offset = 0; offset < x.rows(); offset += chunk_rows) {
      // A fresh copy behind a pad that differs from call to call (see
      // alignment_pad).
      const std::vector<char> pad =
          alignment_pad(pass * x.rows() / chunk_rows + offset / chunk_rows);
      const tensor::MatrixF chunk =
          slice_rows(x, offset, std::min(chunk_rows, x.rows() - offset));
      const Clock::time_point call = Clock::now();
      std::vector<double> part;
      {
        const trace::Span span("core.predict");
        part = model.predict_scores(chunk);
      }
      call_s += seconds_since(call);
      std::copy(part.begin(), part.end(),
                scores.begin() + static_cast<std::ptrdiff_t>(offset));
      rows_scored += chunk.rows();
      report.attempt();
    }
  }
  report.sample("eval_rows_s", "rows/s",
                static_cast<double>(rows_scored) / call_s);
  report.layer("core.predict_us_per_row", "us",
               1e6 * call_s / static_cast<double>(rows_scored));
  return scores;
}

void report_primitives(int run, Report& report) {
  const auto totals = trace::aggregate(run);
  for (const char* name :
       {"core.support", "core.softmax", "core.traces", "core.weights"}) {
    const auto it = totals.find(name);
    const trace::Totals t = it == totals.end() ? trace::Totals{} : it->second;
    report.layer(std::string(name) + "_s", "s", t.self_s);
    report.layer(std::string(name) + ".calls", "count",
                 static_cast<double>(t.calls));
  }
}

double span_total(const std::map<std::string, trace::Totals>& totals,
                  const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_s;
}

}  // namespace perfbench
