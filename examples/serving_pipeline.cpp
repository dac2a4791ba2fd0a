// Serving pipeline: the full production loop through the unified API —
// train a Model, checkpoint it, restore it into an immutable snapshot,
// and serve concurrent traffic two ways: direct predict() calls behind
// one mutex and the sharded AsyncPredictor (bounded queue + deadline
// micro-batching + N replica shards + LRU score cache).
//
// Also demonstrates the two extension seams of the redesigned API:
// the EngineRegistry (engines are listed and resolved by name, including
// user-registered ones) and the Estimator contract (the serving loop is
// generic over BCPNN models and baselines alike).
//
// Usage:
//   example_serving_pipeline [--events 6000] [--engine simd]
//                            [--threads 4] [--batch 128] [--shards 4]

#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::size_t events =
      static_cast<std::size_t>(args.get_int("events", 6000));
  const std::string engine = args.get_string("engine", "simd");
  const std::size_t threads =
      static_cast<std::size_t>(args.get_int("threads", 4));
  const std::size_t batch =
      static_cast<std::size_t>(args.get_int("batch", 128));
  const std::size_t shards =
      static_cast<std::size_t>(args.get_int("shards", 4));

  // --- 0. The engine catalogue -------------------------------------------
  std::printf("registered engines:\n");
  auto& registry = parallel::EngineRegistry::instance();
  for (const auto& name : registry.names()) {
    const parallel::EngineInfo info = registry.info(name);
    const std::string tier =
        info.dispatch.empty() ? "" : "  [" + info.dispatch + "]";
    std::printf("  %-10s  lanes=%zu%s  %s\n", info.name.c_str(),
                info.simd_width, tier.c_str(), info.description.c_str());
  }

  // --- 1. Data ------------------------------------------------------------
  const std::size_t train_events = events * 3 / 4;
  data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(train_events);
  data::HiggsGeneratorOptions test_options;
  test_options.seed = 4242;
  data::SyntheticHiggsGenerator test_generator(test_options);
  const auto test = test_generator.generate(events - train_events);
  encode::OneHotEncoder encoder(10);
  const tensor::MatrixF x_train = encoder.fit_transform(train.features);
  const tensor::MatrixF x_test = encoder.transform(test.features);

  // --- 2. Train through the Estimator contract ---------------------------
  auto model = std::make_shared<core::Model>();
  model->input(28, 10)
      .hidden(1, 200, 0.40)
      .classifier(2, core::HeadType::kSgd)
      .set_option("epochs", 8)
      .compile(engine, 42);
  std::printf("\ntraining %s on %zu events...\n", model->name().c_str(),
              train_events);
  model->fit(x_train, train.labels);
  std::printf("  test accuracy: %.2f%%\n",
              100.0 * model->evaluate(x_test, test.labels));

  // --- 3. Checkpoint and restore an immutable serving snapshot -----------
  const std::string checkpoint = "/tmp/streambrain_serving.sbrn";
  model->save(checkpoint);
  auto snapshot = std::make_shared<core::Model>();
  snapshot->load(checkpoint);
  std::printf("  checkpoint round-trip: %s\n", checkpoint.c_str());

  // --- 4. Embedded serving: one model behind a mutex -----------------------
  // predict() is not const, so threads sharing one model take turns. For
  // a single client this direct call is the fastest path there is; with
  // many clients the lock serializes them, which step 5 removes.
  const std::size_t rows = x_test.rows();
  std::mutex snapshot_mutex;
  std::size_t rows_served = 0;
  util::Stopwatch embedded_wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t begin = t * rows / threads;
      const std::size_t end = (t + 1) * rows / threads;
      tensor::MatrixF slice(end - begin, x_test.cols());
      for (std::size_t r = begin; r < end; ++r) {
        std::copy_n(x_test.row(r), x_test.cols(), slice.row(r - begin));
      }
      for (int round = 0; round < 5; ++round) {
        const std::lock_guard<std::mutex> lock(snapshot_mutex);
        rows_served += snapshot->predict(slice).size();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  std::printf("\nembedded serving (%zu threads, one mutex): %zu rows, "
              "%.0f rows/s\n",
              threads, rows_served,
              static_cast<double>(rows_served) / embedded_wall.seconds());

  // --- 5. Sharded async serving -------------------------------------------
  // The AsyncPredictor replaces the global inference mutex with a bounded
  // request queue, a deadline-flushing batcher, and `shards` checkpoint-
  // cloned replicas running batches concurrently. Futures come back
  // immediately; the LRU score cache serves repeated rows bit-identically
  // without touching a model.
  AsyncPredictorOptions async_options;
  async_options.shards = shards;
  async_options.max_batch_rows = batch;
  async_options.max_batch_delay = std::chrono::milliseconds(1);
  async_options.score_cache_rows = rows;
  {
    AsyncPredictor server(snapshot, async_options);
    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        const std::size_t begin = t * rows / threads;
        const std::size_t end = (t + 1) * rows / threads;
        tensor::MatrixF slice(end - begin, x_test.cols());
        for (std::size_t r = begin; r < end; ++r) {
          std::copy_n(x_test.row(r), x_test.cols(), slice.row(r - begin));
        }
        for (int round = 0; round < 5; ++round) {
          std::future<std::vector<double>> scores =
              server.submit_scores(slice);
          (void)scores.get();
        }
      });
    }
    for (auto& client : clients) client.join();

    const AsyncPredictorStats async_stats = server.stats();
    std::printf("\nasync serving stats (%zu shards, cache %zu rows):\n",
                server.shards(), async_options.score_cache_rows);
    std::printf("  requests       : %llu\n",
                static_cast<unsigned long long>(async_stats.requests));
    std::printf("  micro-batches  : %llu\n",
                static_cast<unsigned long long>(async_stats.batches));
    std::printf("  cache hit/miss : %llu / %llu\n",
                static_cast<unsigned long long>(async_stats.cache_hits),
                static_cast<unsigned long long>(async_stats.cache_misses));
    std::printf("  queue wait     : mean %.3f ms, max %.3f ms\n",
                1e3 * async_stats.mean_queue_wait_seconds(),
                1e3 * async_stats.max_queue_wait_seconds);
    std::printf("  model thrpt    : %.0f rows/s\n",
                async_stats.model_throughput_rows_per_second());
  }

  // --- 6. The same serving loop drives a baseline -------------------------
  std::shared_ptr<Estimator> baseline = make_baseline_estimator("logistic");
  baseline->fit(train.features, train.labels);
  // A baseline cannot be cloned into replicas; one shard serves it in
  // place.
  AsyncPredictorOptions baseline_options;
  baseline_options.shards = 1;
  baseline_options.max_batch_rows = batch;
  AsyncPredictor baseline_server(baseline, baseline_options);
  const auto labels = baseline_server.predict(test.features);
  std::printf("\nbaseline '%s' served %zu rows through an AsyncPredictor\n",
              baseline->name().c_str(), labels.size());
  return 0;
}
