// Serving-layer benchmark: concurrent client traffic through one model
// behind a std::mutex vs. the sharded AsyncPredictor, swept over a
// clients x shards x max_batch_rows matrix, emitting BENCH_serving.json
// with a per-stage latency breakdown for every async row.
//
// Methodology:
//   - The "mutex" baseline locks one mutex around a direct
//     model->predict_scores(request) call: one request per batch, the
//     compute of an async row with max_batch_rows == --rows. Its
//     mean_queue_wait_ms is the mean time spent acquiring the lock.
//   - GEMM pool fan-out is pinned to 1 thread up front so both paths run
//     identical single-threaded per-batch compute — the comparison
//     measures serving architecture (one global lock vs. N replicas),
//     not kernel threading.
//   - Every mode gets an unmeasured warm-up pass on its own server
//     before its measured pass. Earlier versions warmed the allocator
//     (and the serving pools) only for whichever mode happened to run
//     later, flattering it; now all rows are equally warm and the async
//     stats reported per row are deltas over the measured pass only.
//   - The score cache is off in every matrix row and exercised by one
//     explicitly labeled extra row ("cache": "on") whose warm-up also
//     fills the cache — that row measures hit-path throughput.
//   - p50/p99 are exact order statistics over the measured pass's
//     per-request latencies (both modes), not histogram edges.
//
// Swap-under-load mode: after the matrix, one server runs the same
// traffic twice — a "swap-steady" pass (no publishes) and a "swap-load"
// pass with a background publisher hot-swapping model clones throughout
// — so the JSON records what continuous swap_model() costs the tail.
//
// --check (for CI): on a host with >= 2 cores, exit 1 unless some
// cache-off async row with >= 2 shards and >= 2 clients reaches >= 1.0x
// the same-clients mutex baseline. The swap gate additionally requires
// zero failed/shed/rejected requests during swaps (zero downtime) and
// swap-load p99 <= max(25x swap-steady p99, 50 ms).
//
//   bench_serving [--out BENCH_serving.json] [--events 4000]
//                 [--clients 1,2,8] [--shards 1,2,4] [--batches 0]
//                 [--requests 64] [--rows 48] [--cache-rows 0] [--check]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

namespace {

struct Result {
  // Initialized defaults (not just declared): GCC 12's maybe-
  // uninitialized analysis flags assigning into a default-constructed
  // SSO string buffer from inlined lambda context, and the wall builds
  // with -Werror.
  std::string mode = "async";  // "mutex"/"async"/"swap-steady"/"swap-load"
  std::string cache = "off";   // "on" or "off"
  std::size_t clients = 0;
  std::size_t shards = 0;
  std::size_t max_batch_rows = 0;
  double wall_seconds = 0.0;
  double rows_per_second = 0.0;
  double speedup_vs_mutex = 1.0;  // vs. the same-clients mutex baseline
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double mean_queue_wait_ms = 0.0;
  // Async-only per-stage means over the measured pass (ms/batch).
  bool has_stages = false;
  std::uint64_t batches = 0;
  double stage_close_ms = 0.0;
  double stage_dispatch_ms = 0.0;
  double stage_compute_ms = 0.0;
  double stage_fulfill_ms = 0.0;
  std::uint64_t full_closes = 0;
  std::uint64_t deadline_closes = 0;
  std::uint64_t adaptive_closes = 0;
  std::uint64_t flush_closes = 0;
  // Swap-mode rows only: publishes during the pass and requests that
  // failed, were shed, or were rejected (the zero-downtime gate needs
  // this to be exactly zero).
  bool has_swaps = false;
  std::uint64_t model_swaps = 0;
  std::uint64_t failed_requests = 0;
};

struct Workload {
  std::vector<tensor::MatrixF> request_slices;  // one per client
  std::size_t clients = 0;
  std::size_t requests_per_client = 0;
};

/// Drive `clients` threads, each firing `requests_per_client` requests
/// through `serve_one(client)`; returns wall seconds and per-request
/// latencies.
template <typename ServeOne>
double drive(const Workload& load, std::size_t requests_per_client,
             std::vector<double>& latencies_ms, ServeOne&& serve_one) {
  latencies_ms.assign(load.clients * requests_per_client, 0.0);
  util::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(load.clients);
  for (std::size_t c = 0; c < load.clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        util::Stopwatch latency;
        serve_one(c);
        latencies_ms[c * requests_per_client + r] = 1e3 * latency.seconds();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return wall.seconds();
}

double exact_quantile(std::vector<double> sorted_copy, double q) {
  if (sorted_copy.empty()) return 0.0;
  std::sort(sorted_copy.begin(), sorted_copy.end());
  const double rank = q * static_cast<double>(sorted_copy.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (index >= sorted_copy.size()) index = sorted_copy.size() - 1;
  return sorted_copy[index];
}

void summarize_latencies(Result& result, double wall_seconds,
                         std::size_t total_rows,
                         const std::vector<double>& latencies_ms) {
  result.wall_seconds = wall_seconds;
  result.rows_per_second =
      wall_seconds > 0.0 ? static_cast<double>(total_rows) / wall_seconds
                         : 0.0;
  double sum = 0.0, worst = 0.0;
  for (const double ms : latencies_ms) {
    sum += ms;
    worst = std::max(worst, ms);
  }
  result.mean_latency_ms =
      latencies_ms.empty() ? 0.0
                           : sum / static_cast<double>(latencies_ms.size());
  result.max_latency_ms = worst;
  result.p50_latency_ms = exact_quantile(latencies_ms, 0.50);
  result.p99_latency_ms = exact_quantile(latencies_ms, 0.99);
}

/// Measured-pass stats as a delta over the warm-up's monotonic counters.
void attach_stage_delta(Result& result, const AsyncPredictorStats& before,
                        const AsyncPredictorStats& after) {
  result.has_stages = true;
  result.batches = after.batches - before.batches;
  const double batches = static_cast<double>(std::max<std::uint64_t>(
      result.batches, 1));
  result.stage_close_ms =
      1e3 * (after.stage_close_seconds - before.stage_close_seconds) / batches;
  result.stage_dispatch_ms =
      1e3 * (after.stage_dispatch_seconds - before.stage_dispatch_seconds) /
      batches;
  result.stage_compute_ms =
      1e3 * (after.stage_compute_seconds - before.stage_compute_seconds) /
      batches;
  result.stage_fulfill_ms =
      1e3 * (after.stage_fulfill_seconds - before.stage_fulfill_seconds) /
      batches;
  const auto closes = [&](CloseReason reason) {
    return after.closes_by(reason) - before.closes_by(reason);
  };
  result.full_closes = closes(CloseReason::kFull);
  result.deadline_closes = closes(CloseReason::kDeadline);
  result.adaptive_closes = closes(CloseReason::kAdaptive);
  result.flush_closes = closes(CloseReason::kFlush);
  const std::uint64_t requests = after.requests - before.requests;
  result.mean_queue_wait_ms =
      requests == 0 ? 0.0
                    : 1e3 *
                          (after.total_queue_wait_seconds -
                           before.total_queue_wait_seconds) /
                          static_cast<double>(requests);
}

std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> values;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', begin), csv.size());
    if (comma > begin) {
      values.push_back(static_cast<std::size_t>(
          std::stoull(csv.substr(begin, comma - begin))));
    }
    begin = comma + 1;
  }
  return values;
}

void print_row(const Result& result) {
  std::printf(
      "%-5s clients=%zu shards=%zu batch=%-4zu cache=%-3s : %8.0f rows/s "
      "(%.2fx, p50 %.2f ms, p99 %.2f ms)\n",
      result.mode.c_str(), result.clients, result.shards,
      result.max_batch_rows, result.cache.c_str(), result.rows_per_second,
      result.speedup_vs_mutex, result.p50_latency_ms, result.p99_latency_ms);
  if (result.has_stages) {
    std::printf(
        "      stages/batch: close %.3f + dispatch %.3f + compute %.3f + "
        "fulfill %.3f ms  closes(full/deadline/adaptive/flush) "
        "%llu/%llu/%llu/%llu\n",
        result.stage_close_ms, result.stage_dispatch_ms,
        result.stage_compute_ms, result.stage_fulfill_ms,
        static_cast<unsigned long long>(result.full_closes),
        static_cast<unsigned long long>(result.deadline_closes),
        static_cast<unsigned long long>(result.adaptive_closes),
        static_cast<unsigned long long>(result.flush_closes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Pin GEMM fan-out before the first kernel call (the limit is resolved
  // once): per-batch compute must be serial so shard scaling is honest.
  setenv("STREAMBRAIN_THREADS", "1", /*overwrite=*/1);

  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_serving.json");
  const std::size_t events =
      static_cast<std::size_t>(args.get_int("events", 4000));
  const std::vector<std::size_t> client_counts =
      parse_list(args.get_string("clients", "1,2,8"));
  const std::vector<std::size_t> shard_counts =
      parse_list(args.get_string("shards", "1,2,4"));
  const std::size_t requests_per_client =
      static_cast<std::size_t>(args.get_int("requests", 64));
  const std::size_t rows_per_request =
      static_cast<std::size_t>(args.get_int("rows", 48));
  std::vector<std::size_t> batch_sizes =
      parse_list(args.get_string("batches", "0"));
  for (std::size_t& batch : batch_sizes) {
    if (batch == 0) batch = rows_per_request;  // 0 = one request per batch
  }
  const std::size_t cache_rows =
      static_cast<std::size_t>(args.get_int("cache-rows", 0));
  const bool check = args.has("check");
  const unsigned cores = std::thread::hardware_concurrency();

  // --- Model + traffic ------------------------------------------------------
  data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(events);
  encode::OneHotEncoder encoder(10);
  const tensor::MatrixF x_train = encoder.fit_transform(train.features);

  auto model = std::make_shared<core::Model>();
  model->input(28, 10)
      .hidden(1, 160, 0.40)
      .classifier(2)
      .set_option("epochs", 2)
      .compile("simd", 42);
  std::printf("training %s on %zu events (%u cores)...\n",
              model->name().c_str(), events, cores);
  model->fit(x_train, train.labels);

  const std::size_t max_clients =
      *std::max_element(client_counts.begin(), client_counts.end());
  data::HiggsGeneratorOptions traffic_options;
  traffic_options.seed = 777;
  data::SyntheticHiggsGenerator traffic_generator(traffic_options);
  const auto traffic = traffic_generator.generate(
      std::max<std::size_t>(rows_per_request * max_clients, 512));
  const tensor::MatrixF x_serve = encoder.transform(traffic.features);

  std::vector<tensor::MatrixF> slices;
  for (std::size_t c = 0; c < max_clients; ++c) {
    tensor::MatrixF slice(rows_per_request, x_serve.cols());
    for (std::size_t r = 0; r < rows_per_request; ++r) {
      const std::size_t source = (c * rows_per_request + r) % x_serve.rows();
      std::copy_n(x_serve.row(source), x_serve.cols(), slice.row(r));
    }
    slices.push_back(std::move(slice));
  }

  const std::size_t warmup_requests =
      std::max<std::size_t>(1, requests_per_client / 8);
  std::vector<Result> results;
  std::vector<double> latencies_ms;

  for (const std::size_t clients : client_counts) {
    Workload load;
    load.clients = clients;
    load.requests_per_client = requests_per_client;
    load.request_slices.assign(slices.begin(), slices.begin() + clients);
    const std::size_t total_rows =
        clients * requests_per_client * rows_per_request;

    // --- Baseline: one model behind a mutex, same clients ------------------
    double mutex_rows_per_second = 0.0;
    {
      std::mutex model_mutex;
      std::vector<double> lock_wait_seconds(clients, 0.0);  // per client
      const auto serve = [&](std::size_t c) {
        util::Stopwatch wait;
        const std::lock_guard<std::mutex> lock(model_mutex);
        lock_wait_seconds[c] += wait.seconds();
        (void)model->predict_scores(load.request_slices[c]);
      };
      (void)drive(load, warmup_requests, latencies_ms, serve);  // warm-up
      std::fill(lock_wait_seconds.begin(), lock_wait_seconds.end(), 0.0);
      const double wall =
          drive(load, requests_per_client, latencies_ms, serve);
      Result result;
      result.mode = "mutex";
      result.cache = "off";
      result.clients = clients;
      result.shards = 0;
      result.max_batch_rows = rows_per_request;
      summarize_latencies(result, wall, total_rows, latencies_ms);
      double total_wait_seconds = 0.0;
      for (const double seconds : lock_wait_seconds) {
        total_wait_seconds += seconds;
      }
      result.mean_queue_wait_ms =
          1e3 * total_wait_seconds /
          static_cast<double>(clients * requests_per_client);
      mutex_rows_per_second = result.rows_per_second;
      results.push_back(result);
      print_row(result);
    }

    // --- Async matrix: shards x max_batch_rows, cache off ------------------
    for (const std::size_t shards : shard_counts) {
      for (const std::size_t max_batch : batch_sizes) {
        AsyncPredictorOptions options;
        options.shards = shards;
        options.max_batch_rows = max_batch;
        options.max_batch_delay = std::chrono::microseconds(200);
        options.queue_capacity = std::max<std::size_t>(clients * 4, 8);
        AsyncPredictor server(model, options);
        const auto serve = [&](std::size_t c) {
          (void)server.predict_scores(load.request_slices[c]);
        };
        (void)drive(load, warmup_requests, latencies_ms, serve);  // warm-up
        const AsyncPredictorStats before = server.stats();
        const double wall =
            drive(load, requests_per_client, latencies_ms, serve);
        const AsyncPredictorStats after = server.stats();
        Result result;
        result.mode = "async";
        result.cache = "off";
        result.clients = clients;
        result.shards = shards;
        result.max_batch_rows = max_batch;
        summarize_latencies(result, wall, total_rows, latencies_ms);
        result.speedup_vs_mutex = mutex_rows_per_second > 0.0
                                      ? result.rows_per_second /
                                            mutex_rows_per_second
                                      : 0.0;
        attach_stage_delta(result, before, after);
        results.push_back(result);
        print_row(result);
      }
    }

    // --- One labeled cache row per clients value ---------------------------
    // The warm-up pass also fills the cache, so this row measures the
    // hit path — kept out of the matrix so it can never flatter the
    // serving comparison.
    {
      AsyncPredictorOptions options;
      options.shards = shard_counts.back();
      options.max_batch_rows = rows_per_request;
      options.max_batch_delay = std::chrono::microseconds(200);
      options.queue_capacity = std::max<std::size_t>(clients * 4, 8);
      options.score_cache_rows =
          std::max(cache_rows, clients * rows_per_request);
      AsyncPredictor server(model, options);
      const auto serve = [&](std::size_t c) {
        (void)server.predict_scores(load.request_slices[c]);
      };
      (void)drive(load, warmup_requests, latencies_ms, serve);  // fills cache
      const AsyncPredictorStats before = server.stats();
      const double wall =
          drive(load, requests_per_client, latencies_ms, serve);
      const AsyncPredictorStats after = server.stats();
      Result result;
      result.mode = "async";
      result.cache = "on";
      result.clients = clients;
      result.shards = options.shards;
      result.max_batch_rows = rows_per_request;
      summarize_latencies(result, wall, total_rows, latencies_ms);
      result.speedup_vs_mutex =
          mutex_rows_per_second > 0.0
              ? result.rows_per_second / mutex_rows_per_second
              : 0.0;
      attach_stage_delta(result, before, after);
      results.push_back(result);
      print_row(result);
    }
  }

  // --- Swap under load: tail latency during continuous hot swaps ------------
  // One server, the heaviest clients/shards point, cache off. The steady
  // pass is the control; the swap pass runs the identical traffic while
  // a publisher thread swap_model()s a fresh model clone every few ms.
  {
    const std::size_t clients = client_counts.back();
    Workload load;
    load.clients = clients;
    load.requests_per_client = requests_per_client;
    load.request_slices.assign(slices.begin(), slices.begin() + clients);
    const std::size_t total_rows =
        clients * requests_per_client * rows_per_request;

    AsyncPredictorOptions options;
    options.shards = shard_counts.back();
    options.max_batch_rows = rows_per_request;
    options.max_batch_delay = std::chrono::microseconds(200);
    options.queue_capacity = std::max<std::size_t>(clients * 4, 8);
    AsyncPredictor server(model, options);
    std::atomic<std::uint64_t> failures{0};
    const auto serve = [&](std::size_t c) {
      try {
        (void)server.predict_scores(load.request_slices[c]);
      } catch (...) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    };
    (void)drive(load, warmup_requests, latencies_ms, serve);  // warm-up

    const auto run_pass = [&](const char* mode, bool swapping) {
      std::atomic<bool> stop_swaps{false};
      std::thread publisher;
      const AsyncPredictorStats before = server.stats();
      const std::uint64_t failures_before =
          failures.load(std::memory_order_relaxed);
      if (swapping) {
        publisher = std::thread([&] {
          while (!stop_swaps.load(std::memory_order_acquire)) {
            server.swap_model(std::make_shared<core::Model>(
                core::clone_model(*model)));
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        });
      }
      const double wall =
          drive(load, requests_per_client, latencies_ms, serve);
      if (swapping) {
        stop_swaps.store(true, std::memory_order_release);
        publisher.join();
      }
      const AsyncPredictorStats after = server.stats();
      Result result;
      result.mode = mode;
      result.cache = "off";
      result.clients = clients;
      result.shards = options.shards;
      result.max_batch_rows = rows_per_request;
      summarize_latencies(result, wall, total_rows, latencies_ms);
      attach_stage_delta(result, before, after);
      result.has_swaps = true;
      result.model_swaps = after.model_swaps - before.model_swaps;
      result.failed_requests =
          (failures.load(std::memory_order_relaxed) - failures_before) +
          (after.shed_requests - before.shed_requests) +
          (after.rejected - before.rejected);
      results.push_back(result);
      print_row(result);
      std::printf("      swaps=%llu failed/shed/rejected=%llu\n",
                  static_cast<unsigned long long>(result.model_swaps),
                  static_cast<unsigned long long>(result.failed_requests));
    };
    run_pass("swap-steady", /*swapping=*/false);
    run_pass("swap-load", /*swapping=*/true);
  }

  // --- JSON report ----------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"serving\",\n";
  out << "  \"header\": {\"git_sha\": \"" << STREAMBRAIN_BENCH_GIT_SHA
      << "\", \"cores\": " << cores << ", \"dispatch\": \""
      << tensor::dispatch_level_name(tensor::active_kernels().level)
      << "\", \"compiler\": \"" << STREAMBRAIN_BENCH_COMPILER
      << "\", \"build_type\": \"" << STREAMBRAIN_BENCH_BUILD_TYPE
      << "\", \"statistic\": \"one measured pass per row after a "
         "warm-up pass; p50/p99 are exact order statistics\"},\n";
  out << "  \"hardware_concurrency\": " << cores << ",\n";
  out << "  \"requests_per_client\": " << requests_per_client << ",\n";
  out << "  \"rows_per_request\": " << rows_per_request << ",\n";
  out << "  \"warmup_requests_per_client\": " << warmup_requests << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& result = results[i];
    out << "    {\"mode\": \"" << result.mode << "\", \"cache\": \""
        << result.cache << "\", \"clients\": " << result.clients
        << ", \"shards\": " << result.shards
        << ", \"max_batch_rows\": " << result.max_batch_rows
        << ", \"wall_seconds\": " << result.wall_seconds
        << ", \"rows_per_second\": " << result.rows_per_second
        << ", \"speedup_vs_mutex\": " << result.speedup_vs_mutex
        << ", \"mean_latency_ms\": " << result.mean_latency_ms
        << ", \"p50_latency_ms\": " << result.p50_latency_ms
        << ", \"p99_latency_ms\": " << result.p99_latency_ms
        << ", \"max_latency_ms\": " << result.max_latency_ms
        << ", \"mean_queue_wait_ms\": " << result.mean_queue_wait_ms;
    if (result.has_stages) {
      out << ", \"batches\": " << result.batches
          << ", \"stage_close_ms\": " << result.stage_close_ms
          << ", \"stage_dispatch_ms\": " << result.stage_dispatch_ms
          << ", \"stage_compute_ms\": " << result.stage_compute_ms
          << ", \"stage_fulfill_ms\": " << result.stage_fulfill_ms
          << ", \"full_closes\": " << result.full_closes
          << ", \"deadline_closes\": " << result.deadline_closes
          << ", \"adaptive_closes\": " << result.adaptive_closes
          << ", \"flush_closes\": " << result.flush_closes;
    }
    if (result.has_swaps) {
      out << ", \"model_swaps\": " << result.model_swaps
          << ", \"failed_requests\": " << result.failed_requests;
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  // --- CI gate --------------------------------------------------------------
  if (check) {
    // Swap gates first — zero downtime is core-count independent: no
    // request may fail, be shed, or be rejected while the publisher
    // hammers swap_model(), on any host.
    double steady_p99 = 0.0;
    double swap_p99 = 0.0;
    std::uint64_t swap_count = 0;
    std::uint64_t swap_failures = 0;
    bool have_swap_rows = false;
    for (const Result& result : results) {
      if (result.mode == "swap-steady") steady_p99 = result.p99_latency_ms;
      if (result.mode == "swap-load") {
        have_swap_rows = true;
        swap_p99 = result.p99_latency_ms;
        swap_count = result.model_swaps;
        swap_failures = result.failed_requests;
      }
    }
    if (have_swap_rows && swap_failures > 0) {
      std::printf("--check FAILED: %llu requests failed/shed/rejected "
                  "during %llu hot swaps (zero-downtime violated)\n",
                  static_cast<unsigned long long>(swap_failures),
                  static_cast<unsigned long long>(swap_count));
      return 1;
    }

    if (cores < 2) {
      std::printf("--check: %u core(s) — the >=2-core performance gates "
                  "do not bind here (zero-downtime swap gate passed)\n",
                  cores);
      return 0;
    }

    // Tail bound: p99 under swaps within 25x of the steady control
    // (floored at 50 ms so scheduler noise on tiny steady p99s cannot
    // flake CI).
    if (have_swap_rows) {
      const double bound = std::max(25.0 * steady_p99, 50.0);
      if (swap_p99 > bound) {
        std::printf("--check FAILED: p99 under swaps %.2f ms exceeds "
                    "bound %.2f ms (steady p99 %.2f ms)\n",
                    swap_p99, bound, steady_p99);
        return 1;
      }
      std::printf("--check: %llu swaps, zero failed requests, p99 %.2f ms "
                  "under swaps vs %.2f ms steady (bound %.2f ms)\n",
                  static_cast<unsigned long long>(swap_count), swap_p99,
                  steady_p99, bound);
    }

    double best = 0.0;
    for (const Result& result : results) {
      if (result.mode == "async" && result.cache == "off" &&
          result.shards >= 2 && result.clients >= 2) {
        best = std::max(best, result.speedup_vs_mutex);
      }
    }
    if (best < 1.0) {
      std::printf("--check FAILED: best cache-off async speedup at >=2 "
                  "shards, >=2 clients is %.2fx (< 1.0x mutex)\n",
                  best);
      return 1;
    }
    std::printf("--check passed: best qualifying async speedup %.2fx\n", best);
  }
  return 0;
}
