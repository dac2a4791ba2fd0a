// End-to-end benchmark binary. One process runs one workload on inputs
// generated from --seed, checks its outputs, and prints one JSON line:
//   {"context": {...}, "samples": {name: {"unit", "values"}},
//    "layers": {name: {"unit", "value"}}, "gate_failures": [...],
//    "attempted": N, "failed": N}
// "samples" holds every raw sample of each end-to-end metric taken inside
// the process, "layers" the per-layer values (measured with --trace 1, 0
// otherwise). The exit code is nonzero when any correctness gate failed.
// perfbench/run.py builds this binary, sets its thread environment, runs
// it and turns its output into the benchmark's result.
//
//   sb_perfbench --workload fit_paper --seed 1 --seconds 15 --trace 0
//                [--work-dir DIR] [--source-id SHA]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric, in this order. The end-to-end set
// must never read 0 (run.py gates on it); the per-layer set reads 0 where
// a layer does no work in a workload (no serving in fit_paper, no comm in
// serve).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"fit_s", "s"},
    {"eval_rows_s", "rows/s"}, {"accuracy", "fraction"},
    {"auc", "fraction"},       {"p50_ms", "ms"},
    {"capacity_rows_s", "rows/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"failed_frac", "fraction"},
    {"data.generate_s", "s"},
    {"encode.fit_s", "s"},
    {"encode.transform_us_per_row", "us"},
    {"core.support_s", "s"},
    {"core.support.calls", "count"},
    {"core.softmax_s", "s"},
    {"core.softmax.calls", "count"},
    {"core.traces_s", "s"},
    {"core.traces.calls", "count"},
    {"core.weights_s", "s"},
    {"core.weights.calls", "count"},
    {"core.hidden_other_s", "s"},
    {"core.head_s", "s"},
    {"core.traces_bytes", "bytes_computed"},
    {"core.weights_bytes", "bytes_computed"},
    {"core.save_s", "s"},
    {"core.load_s", "s"},
    {"serve.replica_clone_s", "s"},
    {"core.predict_us_per_row", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.close_ms", "ms"},
    {"serve.dispatch_ms", "ms"},
    {"serve.fulfill_ms", "ms"},
    {"serve.compute_ms", "ms"},
    {"serve.rows_per_batch", "rows"},
    {"serve.shard_busy_share", "fraction"},
    {"serve.capacity_min_rows_s", "rows/s"},
    {"serve.capacity_max_rows_s", "rows/s"},
    {"serve.latency_samples", "count"},
    {"serve.p99_ms", "ms"},
    {"serve.gen_late_ms", "ms"},
    {"serve.gen_late_max_ms", "ms"},
    {"online.p50_ms", "ms"},
    {"online.train_us_per_row", "us"},
    {"online.publish_ms", "ms"},
    {"online.publishes", "count"},
    {"online.dropped_rows", "count"},
    {"serve.model_swaps", "count"},
    {"comm.syncs", "count"},
    {"comm.wire_bytes_per_rank", "bytes"},
    {"comm.logical_bytes_per_rank", "bytes"},
    {"comm.allreduce_ms", "ms"},
    {"comm.exposed_share", "fraction"},
    {"core.dist_fit_s", "s"},
    {"core.dist_1rank_fit_s", "s"},
    {"core.dist_scaling_eff", "ratio"},
    {"trace.overhead", "ratio"},
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : 0.0);
  return buffer;
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : value;
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "sb_perfbench: %s\nusage: sb_perfbench --workload "
               "fit_paper|serve --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--source-id ID]\n",
               problem.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.work_dir = ".bench_build/perfbench-run";
  options.source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value != "0";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--source-id") {
        options.source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  using Workload = void (*)(const RunOptions&, Report&);
  Workload run = nullptr;
  if (options.workload == "fit_paper") {
    run = run_fit_paper;
  } else if (options.workload == "serve") {
    run = run_serve;
  } else {
    usage("unknown workload '" + options.workload + "'");
  }
  std::filesystem::create_directories(options.work_dir);
  if (options.trace) trace::enable();

  Report report;
  for (const MetricSpec& spec : kPerLayer) {
    report.layer(spec.name, spec.unit, 0.0);
  }
  try {
    run(options, report);
  } catch (const std::exception& error) {
    report.gate(false, std::string("exception: ") + error.what());
  }

  report.layer("failed_frac", "fraction",
               report.attempted() == 0
                   ? 1.0
                   : static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted()));
  for (const std::string& failure : report.gate_failures()) {
    std::fprintf(stderr, "sb_perfbench: FAILED: %s\n", failure.c_str());
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".jsonl";
    if (!trace::write_spans(path)) {
      std::fprintf(stderr, "sb_perfbench: could not write %s\n", path.c_str());
    }
  }

  const auto& registry = streambrain::parallel::EngineRegistry::instance();
  std::string out = "{\"context\": {";
  bool first = true;
  const auto field = [&](const std::string& key, const std::string& value) {
    out += (first ? "" : ", ") + json_string(key) + ": " + value;
    first = false;
  };
  field("workload", json_string(options.workload));
  field("seed", std::to_string(options.seed));
  field("seconds", json_number(options.seconds));
  field("trace", options.trace ? "1" : "0");
  field("source_id", json_string(options.source_id));
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("dispatch", json_string(registry.info("simd").dispatch));
  field("compiler", json_string(PERFBENCH_COMPILER));
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  field("STREAMBRAIN_THREADS", json_string(env_or("STREAMBRAIN_THREADS", "")));
  field("OMP_NUM_THREADS", json_string(env_or("OMP_NUM_THREADS", "")));
  for (const auto& [key, value] : report.context_fields()) {
    field(key, json_string(value));
  }

  out += "}, \"samples\": {";
  first = true;
  for (const MetricSpec& spec : kEndToEnd) {
    std::string values;
    for (const auto& metric : report.end_to_end()) {
      if (metric.name != spec.name) continue;
      for (const double value : metric.samples) {
        values += (values.empty() ? "" : ", ") + json_number(value);
      }
    }
    field(spec.name, "{\"unit\": " + json_string(spec.unit) +
                         ", \"values\": [" + values + "]}");
  }
  out += "}, \"layers\": {";
  first = true;
  for (const auto& metric : report.per_layer()) {
    field(metric.name, "{\"unit\": " + json_string(metric.unit) +
                           ", \"value\": " +
                           json_number(metric.samples.front()) + "}");
  }
  out += "}, \"gate_failures\": [";
  first = true;
  for (const std::string& failure : report.gate_failures()) {
    out += (first ? "" : ", ") + json_string(failure);
    first = false;
  }
  out += "], \"attempted\": " + std::to_string(report.attempted()) +
         ", \"failed\": " + std::to_string(report.failed()) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
