// serve: open-loop traffic into a 2-shard AsyncPredictor serving the
// paper-width (1 x 3000 MCU) checkpoint; then the same traffic while an
// OnlineTrainer learns from a labeled stream and hot-swaps snapshots into
// the server; then, with learning stopped, a capacity phase with a fixed
// window of requests in flight.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common.hpp"
#include "open_loop.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace streambrain;

namespace {

// Serving model: the paper's width, trained only as long as a serving
// benchmark's set-up can afford (its quality is reported, not tuned). It
// stands for a deployed checkpoint, so its training data and seed are
// fixed: --seed varies the traffic, not the model being served.
constexpr std::size_t kServeMcus = 3000;
constexpr std::size_t kServeTrainEvents = 1000;
constexpr std::size_t kServeEpochs = 2;
constexpr std::size_t kServeHeadEpochs = 10;
constexpr std::uint64_t kServeModelSeed = 20210;
constexpr std::size_t kShards = 2;
// Offered load: about a third of the 2-shard capacity at kernel fan-out 1
// (8.4k rows/s, so about 990 requests/s of 8.5 rows on average, on a
// 4-vCPU AVX2 host at the commit that added this benchmark). Fixed, so a
// faster server shows lower latency rather than a different load.
constexpr double kOfferedRequestsPerSecond = 320.0;
constexpr std::size_t kMaxRowsPerRequest = 16;
constexpr std::size_t kCapacityWindow = 8;
constexpr std::size_t kCapacityPool = 256;  // distinct requests cycled
constexpr double kCapacitySliceSeconds = 0.25;
// Shares of --seconds: the open loop with nothing learning (its first
// kWarmupSeconds untimed), the open loop while learning, and capacity.
constexpr double kSteadyShare = 0.35;
constexpr double kOnlineShare = 0.15;
constexpr double kCapacityShare = 0.20;
constexpr double kWarmupSeconds = 0.25;
// The labeled stream and publish cadence of the learning phase (the
// stream's own thread publishes, so it can keep a copy of every
// published snapshot).
constexpr std::size_t kObserveRows = 32;
constexpr auto kObservePeriod = std::chrono::milliseconds(50);
constexpr std::size_t kPublishEveryRows = 256;
constexpr std::size_t kStreamEvents = 4096;
// eval_rows_s scores the first kOfflineRows traffic rows offline, again
// and again for kOfflineShare of --seconds, in calls of the server's own
// batch bound (AsyncPredictorOptions::max_batch_rows defaults to 256); one
// call over every row would time a 3000-column activation matrix far
// larger than any cache instead.
constexpr std::size_t kOfflineChunkRows = 256;
constexpr std::size_t kOfflineRows = 4096;
constexpr double kOfflineShare = 0.20;

struct ServeSetup {
  std::shared_ptr<core::Model> served;     // loaded checkpoint, shard 0
  std::shared_ptr<core::Model> reference;  // clone for offline checks
  std::unique_ptr<AsyncPredictor> server;
  Schedule schedule;  // both open-loop phases, back to back
  tensor::MatrixF traffic;  // encoded rows, request i = schedule rows
  std::vector<int> traffic_labels;
  tensor::MatrixF stream;   // the learning phase's labeled stream
  std::vector<int> stream_labels;
  double fit_s = 0.0;
};

core::Model build_serving_model(const std::string& engine,
                                std::uint64_t seed) {
  core::Model model;
  model.input(28, 10)
      .hidden(1, kServeMcus, 0.40)
      .classifier(2, core::HeadType::kSgd)
      .set_option("epochs", static_cast<double>(kServeEpochs))
      .set_option("head_epochs", static_cast<double>(kServeHeadEpochs))
      .set_option("batch_size", 64)
      .compile(engine, seed);
  return model;
}

/// Everything the server needs before the first request, in the order a
/// deployment does it: data, encoder, train, save, load, replicas.
ServeSetup set_up(const RunOptions& options, const std::string& engine,
                  double open_loop_s) {
  ServeSetup setup;
  data::Dataset train, traffic, stream;
  {
    const trace::Span span("data.generate");
    setup.schedule = make_schedule(options.seed, kOfferedRequestsPerSecond,
                                   open_loop_s, kMaxRowsPerRequest);
    train = generate_events(kServeModelSeed, kServeTrainEvents);
    traffic = generate_events(options.seed + 1000003,
                              setup.schedule.total_rows);
    stream = generate_events(options.seed + 2000003, kStreamEvents);
  }
  encode::OneHotEncoder encoder(10);
  {
    const trace::Span span("encode.fit");
    encoder.fit(train.features);
  }
  tensor::MatrixF x_train;
  {
    const trace::Span span("encode.transform");
    x_train = encoder.transform(train.features);
    setup.traffic = encoder.transform(traffic.features);
    setup.stream = encoder.transform(stream.features);
  }
  setup.traffic_labels = traffic.labels;
  setup.stream_labels = stream.labels;

  core::Model trained = build_serving_model(engine, kServeModelSeed);
  {
    const trace::Span span("core.fit");
    const Clock::time_point start = Clock::now();
    trained.fit(x_train, train.labels);
    setup.fit_s = seconds_since(start);
  }
  const std::string path = options.work_dir + "/serve.sbrn";
  {
    const trace::Span span("core.save");
    trained.save(path);
  }
  setup.served = std::make_shared<core::Model>();
  {
    const trace::Span span("core.load");
    setup.served->load(path);
  }
  {
    const trace::Span span("serve.replica_clone");
    setup.reference =
        std::make_shared<core::Model>(core::clone_model(*setup.served));
  }
  AsyncPredictorOptions serving;
  serving.shards = kShards;
  {
    const trace::Span span("serve.start");
    setup.server = std::make_unique<AsyncPredictor>(setup.served, serving);
  }
  return setup;
}

/// Requests [begin, end) of `schedule` as a schedule of their own whose
/// clock starts at `start_s`; row offsets still index the whole traffic.
Schedule schedule_part(const Schedule& schedule, std::size_t begin,
                       std::size_t end, double start_s) {
  Schedule part;
  for (std::size_t i = begin; i < end; ++i) {
    part.due_s.push_back(schedule.due_s[i] - start_s);
    part.rows.push_back(schedule.rows[i]);
    part.offset.push_back(schedule.offset[i]);
    part.total_rows += schedule.rows[i];
  }
  return part;
}

/// Rows of schedule request `i`.
tensor::MatrixF request_rows(const ServeSetup& setup, std::size_t i) {
  return slice_rows(setup.traffic, setup.schedule.offset[i],
                    setup.schedule.rows[i]);
}

/// The model versions a server may have answered with, by generation,
/// and their offline answers per schedule request, computed on first use.
/// A served answer is correct when it equals, bit for bit, the offline
/// answer of a version that was being served at some moment between the
/// request's submission and its completion: a batch leases its version
/// after its requests were queued and finishes before they complete, so
/// that version's generation lies in [generation() read before submit,
/// generation() read after completion].
class Versions {
 public:
  void add(std::uint64_t generation, std::shared_ptr<core::Model> model) {
    models_[generation] = std::move(model);
  }
  /// The version published last.
  [[nodiscard]] core::Model& latest() { return *models_.rbegin()->second; }

  bool scores_match(const ServeSetup& setup, std::size_t request,
                    std::uint64_t lo, std::uint64_t hi,
                    const std::vector<double>& got) {
    return match(scores_, setup, request, lo, hi, got,
                 [](core::Model& m, const tensor::MatrixF& x) {
                   return m.predict_scores(x);
                 });
  }
  bool labels_match(const ServeSetup& setup, std::size_t request,
                    std::uint64_t lo, std::uint64_t hi,
                    const std::vector<int>& got) {
    return match(labels_, setup, request, lo, hi, got,
                 [](core::Model& m, const tensor::MatrixF& x) {
                   return m.predict(x);
                 });
  }

 private:
  template <typename T>
  using Memo = std::map<std::pair<std::uint64_t, std::size_t>, std::vector<T>>;

  template <typename T, typename Predict>
  bool match(Memo<T>& memo, const ServeSetup& setup, std::size_t request,
             std::uint64_t lo, std::uint64_t hi, const std::vector<T>& got,
             Predict&& predict) {
    for (auto it = models_.lower_bound(lo);
         it != models_.end() && it->first <= hi; ++it) {
      auto [slot, fresh] = memo.try_emplace({it->first, request});
      if (fresh) {
        slot->second = predict(*it->second, request_rows(setup, request));
      }
      const std::vector<T>& want = slot->second;
      if (want.size() == got.size() &&
          (got.empty() || std::memcmp(want.data(), got.data(),
                                      got.size() * sizeof(T)) == 0)) {
        return true;
      }
    }
    return false;
  }

  std::map<std::uint64_t, std::shared_ptr<core::Model>> models_;
  Memo<double> scores_;
  Memo<int> labels_;
};

/// Served results of every open-loop request, by schedule index, with the
/// serving generation read before submission and after completion.
struct Served {
  std::vector<std::future<std::vector<int>>> label_futures;
  std::vector<std::future<std::vector<double>>> score_futures;
  std::vector<std::vector<int>> labels;
  std::vector<std::vector<double>> scores;
  std::vector<std::uint64_t> generation_before;
  std::vector<std::uint64_t> generation_after;
  std::vector<bool> ok;

  explicit Served(std::size_t n)
      : label_futures(n),
        score_futures(n),
        labels(n),
        scores(n),
        generation_before(n),
        generation_after(n),
        ok(n) {}

  /// Even requests ask for labels, odd ones for scores.
  static bool wants_scores(std::size_t i) { return i % 2 == 1; }
};

struct CapacityAnswer {
  std::size_t request;
  std::uint64_t generation_before;
  std::uint64_t generation_after;
  std::vector<double> scores;
};

struct CapacityResult {
  std::vector<double> slice_rows_s;
  std::vector<CapacityAnswer> answers;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::size_t rows = 0;
  double wall_s = 0.0;
};

/// One client keeps kCapacityWindow score requests in flight for
/// `budget_s` (and for at least `min_requests` requests), cycling over the
/// first kCapacityPool requests of the schedule. The answers are kept for
/// checking after the measurement.
CapacityResult measure_capacity(AsyncPredictor& server,
                                const ServeSetup& setup, double budget_s,
                                std::size_t min_requests = 0) {
  const std::size_t pool =
      std::min(kCapacityPool, setup.schedule.rows.size());
  std::vector<tensor::MatrixF> requests;
  for (std::size_t i = 0; i < pool; ++i) {
    requests.push_back(request_rows(setup, i));
  }
  struct InFlight {
    std::size_t index;
    std::uint64_t generation_before;
    std::future<std::vector<double>> future;
  };
  CapacityResult result;
  std::vector<InFlight> window;
  std::size_t next = 0;
  const auto send = [&] {
    const std::size_t index = next++ % pool;
    const std::uint64_t generation = server.generation();
    window.push_back(
        {index, generation, server.submit_scores(requests[index])});
    ++result.requests;
  };
  const Clock::time_point start = Clock::now();
  Clock::time_point slice_start = start;
  std::size_t slice_rows_done = 0;
  for (std::size_t i = 0; i < kCapacityWindow; ++i) send();
  std::size_t head = 0;
  while (head < window.size()) {
    InFlight& oldest = window[head++];
    try {
      std::vector<double> scores = oldest.future.get();
      slice_rows_done += scores.size();
      result.rows += scores.size();
      result.answers.push_back({oldest.index, oldest.generation_before,
                                server.generation(), std::move(scores)});
    } catch (const std::exception&) {
      ++result.failed;
    }
    const double slice_s = seconds_since(slice_start);
    if (slice_s >= kCapacitySliceSeconds) {
      result.slice_rows_s.push_back(static_cast<double>(slice_rows_done) /
                                    slice_s);
      slice_start = Clock::now();
      slice_rows_done = 0;
    }
    if (next < min_requests || seconds_since(start) < budget_s) send();
    if (head > 4 * kCapacityWindow) {  // keep the window vector small
      window.erase(window.begin(),
                   window.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  result.wall_s = seconds_since(start);
  return result;
}

/// Capacity-phase answers that match no version in their generation
/// window.
std::size_t mismatched_answers(const CapacityResult& capacity,
                               const ServeSetup& setup, Versions& versions) {
  std::size_t mismatched = 0;
  for (const CapacityAnswer& answer : capacity.answers) {
    mismatched += !versions.scores_match(setup, answer.request,
                                         answer.generation_before,
                                         answer.generation_after,
                                         answer.scores);
  }
  return mismatched;
}

void report_stage_stats(const AsyncPredictorStats& before,
                        const AsyncPredictorStats& after, Report& report) {
  const double batches = static_cast<double>(
      std::max<std::uint64_t>(after.batches - before.batches, 1));
  const double requests = static_cast<double>(
      std::max<std::uint64_t>(after.requests - before.requests, 1));
  report.layer("serve.queue_wait_ms", "ms",
               1e3 * (after.total_queue_wait_seconds -
                      before.total_queue_wait_seconds) /
                   requests);
  report.layer("serve.close_ms", "ms",
               1e3 * (after.stage_close_seconds - before.stage_close_seconds) /
                   batches);
  report.layer("serve.dispatch_ms", "ms",
               1e3 *
                   (after.stage_dispatch_seconds -
                    before.stage_dispatch_seconds) /
                   batches);
  report.layer("serve.fulfill_ms", "ms",
               1e3 *
                   (after.stage_fulfill_seconds -
                    before.stage_fulfill_seconds) /
                   batches);
}

void report_compute_stats(const AsyncPredictorStats& before,
                          const AsyncPredictorStats& after, double wall_s,
                          Report& report) {
  const double batches = static_cast<double>(
      std::max<std::uint64_t>(after.batches - before.batches, 1));
  const double compute_s =
      after.stage_compute_seconds - before.stage_compute_seconds;
  report.layer("serve.compute_ms", "ms", 1e3 * compute_s / batches);
  report.layer("serve.rows_per_batch", "rows",
               static_cast<double>(after.model_rows - before.model_rows) /
                   batches);
  report.layer("serve.shard_busy_share", "fraction",
               compute_s / (wall_s * static_cast<double>(kShards)));
}

/// Requests [begin, end) of the schedule, sent open loop from `start_s`
/// on the schedule's clock; results land in `served` by schedule index.
OpenLoopResult open_loop_phase(AsyncPredictor& server, const ServeSetup& setup,
                               std::size_t begin, std::size_t end,
                               double start_s,
                               std::vector<tensor::MatrixF>& requests,
                               Served& served) {
  return run_open_loop(
      schedule_part(setup.schedule, begin, end, start_s),
      [&](std::size_t k) {
        const std::size_t i = begin + k;
        served.generation_before[i] = server.generation();
        try {
          if (Served::wants_scores(i)) {
            served.score_futures[i] =
                server.submit_scores(std::move(requests[i]));
          } else {
            served.label_futures[i] = server.submit(std::move(requests[i]));
          }
        } catch (const std::exception&) {
          // Refused at submit: the future stays empty and counts as failed.
        }
      },
      [&](std::size_t k) {
        const std::size_t i = begin + k;
        if (!(Served::wants_scores(i) ? served.score_futures[i].valid()
                                      : served.label_futures[i].valid())) {
          return Poll::kFailed;  // refused at submit
        }
        const bool ready =
            (Served::wants_scores(i)
                 ? served.score_futures[i].wait_for(std::chrono::seconds(0))
                 : served.label_futures[i].wait_for(
                       std::chrono::seconds(0))) == std::future_status::ready;
        if (!ready) return Poll::kPending;
        try {
          if (Served::wants_scores(i)) {
            served.scores[i] = served.score_futures[i].get();
          } else {
            served.labels[i] = served.label_futures[i].get();
          }
          served.ok[i] = true;
        } catch (const std::exception&) {
          served.ok[i] = false;
        }
        served.generation_after[i] = server.generation();
        return served.ok[i] ? Poll::kDone : Poll::kFailed;
      });
}

}  // namespace

void run_serve(const RunOptions& options, Report& report) {
  if (const std::string problem = open_loop_self_test(); !problem.empty()) {
    report.gate(false, "open-loop generator self-test: " + problem);
    return;
  }
  const double steady_s = kSteadyShare * options.seconds;
  const double online_s = kOnlineShare * options.seconds;
  const double capacity_s = kCapacityShare * options.seconds;
  const std::string engine = options.trace ? trace::kTracedEngine : "simd";

  trace::set_run(1);
  const Clock::time_point setup_start = Clock::now();
  ServeSetup setup = set_up(options, engine, steady_s + online_s);
  report.sample("setup_s", "s", seconds_since(setup_start));
  report.sample("fit_s", "s", setup.fit_s);
  AsyncPredictor& server = *setup.server;
  const Schedule& schedule = setup.schedule;
  const std::size_t n = schedule.due_s.size();
  const std::size_t boundary = static_cast<std::size_t>(
      std::lower_bound(schedule.due_s.begin(), schedule.due_s.end(),
                       steady_s) -
      schedule.due_s.begin());
  Versions versions;
  versions.add(server.generation(), setup.reference);
  std::vector<tensor::MatrixF> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(request_rows(setup, i));
  }
  Served served(n);

  // --- Open loop at the fixed offered rate, nothing learning ---------------
  trace::set_run(2);
  const AsyncPredictorStats before_steady = server.stats();
  const OpenLoopResult steady =
      open_loop_phase(server, setup, 0, boundary, 0.0, requests, served);
  const AsyncPredictorStats after_steady = server.stats();
  report.attempt(boundary);
  report.fail(steady.failed);
  for (const double ms : window_medians(steady.due_s, steady.latency_ms,
                                        kWarmupSeconds, steady_s)) {
    report.sample("p50_ms", "ms", ms);
  }

  // --- The same traffic while an OnlineTrainer learns and publishes --------
  // Every kPublishEveryRows accepted rows the stream's thread waits until
  // the trainer has trained all of them and idles for more, then
  // publishes. The snapshot publish_now() clones is then exactly the
  // learner's state, which stays put until the next observe(), so the
  // copy kept here is the offline reference for the answers of that
  // generation.
  trace::set_run(5);
  std::shared_ptr<core::Model> learner;
  std::unique_ptr<OnlineTrainer> trainer;
  {
    const trace::Span span("online.start");
    learner = std::make_shared<core::Model>(core::clone_model(*setup.served));
    OnlineTrainerOptions learning;
    learning.publish_every_rows = 0;  // the stream's thread publishes
    trainer = std::make_unique<OnlineTrainer>(learner, server, learning);
  }
  std::atomic<std::uint64_t> observe_calls{0};
  std::atomic<std::uint64_t> observe_drops{0};
  std::vector<std::pair<std::uint64_t, std::shared_ptr<core::Model>>> snapshots;
  std::jthread observer([&](const std::stop_token& stop) {
    std::size_t row = 0;
    std::size_t since_publish = 0;
    auto next = Clock::now();
    while (!stop.stop_requested()) {
      if (row + kObserveRows > setup.stream.rows()) row = 0;
      const tensor::MatrixF x = slice_rows(setup.stream, row, kObserveRows);
      const std::vector<int> labels(
          setup.stream_labels.begin() + static_cast<std::ptrdiff_t>(row),
          setup.stream_labels.begin() +
              static_cast<std::ptrdiff_t>(row + kObserveRows));
      row += kObserveRows;
      const std::size_t accepted = trainer->observe(x, labels);
      observe_calls.fetch_add(1, std::memory_order_relaxed);
      if (accepted != kObserveRows) {
        observe_drops.fetch_add(1, std::memory_order_relaxed);
      }
      since_publish += accepted;
      if (since_publish >= kPublishEveryRows) {
        since_publish = 0;
        while (!stop.stop_requested()) {
          const OnlineTrainerStats now = trainer->stats();
          if (now.trained_rows >= now.observed_rows) break;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (stop.stop_requested()) break;
        const std::uint64_t generation = trainer->publish_now();
        snapshots.emplace_back(
            generation,
            std::make_shared<core::Model>(core::clone_model(*learner)));
      }
      next += kObservePeriod;
      std::this_thread::sleep_until(next);
    }
  });
  const OpenLoopResult online =
      open_loop_phase(server, setup, boundary, n, steady_s, requests, served);
  observer.request_stop();
  observer.join();
  trainer->stop();
  const OnlineTrainerStats learned = trainer->stats();
  report.attempt(n - boundary);
  report.fail(online.failed);
  report.attempt(observe_calls.load());
  report.fail(observe_drops.load());
  report.gate(learned.publishes >= 1 && !snapshots.empty(),
              "no snapshot was published while serving");
  for (auto& [generation, model] : snapshots) {
    versions.add(generation, std::move(model));
  }

  // --- Capacity: fixed window in flight, learning stopped -------------------
  // Nothing publishes any more, so every answer's generation window holds
  // only the last snapshot's generation.
  const AsyncPredictorStats before_capacity = server.stats();
  const CapacityResult capacity =
      measure_capacity(server, setup, capacity_s, kCapacityPool);
  const AsyncPredictorStats after_capacity = server.stats();
  report.attempt(capacity.requests);
  report.fail(capacity.failed);
  // One sample over the whole phase (see direct_request_latency); the
  // 0.25 s slices show the swing in the traced run.
  report.sample("capacity_rows_s", "rows/s",
                static_cast<double>(capacity.rows) / capacity.wall_s);
  const std::size_t drained_mismatched =
      mismatched_answers(capacity, setup, versions);
  report.gate(drained_mismatched == 0 && capacity.failed == 0,
              std::to_string(drained_mismatched) +
                  " answers after learning stopped differ from the last "
                  "snapshot's offline scores");
  // Shed and rejected requests fail their futures, so the counts above
  // already include them.
  const AsyncPredictorStats final_stats = server.stats();

  // --- Offline throughput of the model serving last -------------------------
  // Offline calls from here on are traced as run 3, apart from serving.
  trace::set_run(3);
  (void)offline_throughput(
      versions.latest(),
      slice_rows(setup.traffic, 0, std::min(kOfflineRows, setup.traffic.rows())),
      kOfflineChunkRows, kOfflineShare * options.seconds, report);

  // --- Every served answer against the versions that can have served it ---
  // Quality is that of the loaded checkpoint: the answers of the phase
  // before learning started.
  std::vector<double> score_rows;
  std::vector<int> score_truth;
  std::size_t label_hits = 0, label_rows = 0, mismatched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!served.ok[i]) continue;
    const std::size_t offset = schedule.offset[i];
    const std::uint64_t lo = served.generation_before[i];
    const std::uint64_t hi = served.generation_after[i];
    const bool checkpoint = i < boundary;
    if (Served::wants_scores(i)) {
      const std::vector<double>& got = served.scores[i];
      mismatched += !versions.scores_match(setup, i, lo, hi, got);
      for (std::size_t r = 0; checkpoint && r < got.size(); ++r) {
        score_rows.push_back(got[r]);
        score_truth.push_back(setup.traffic_labels[offset + r]);
      }
    } else {
      const std::vector<int>& got = served.labels[i];
      mismatched += !versions.labels_match(setup, i, lo, hi, got);
      for (std::size_t r = 0; checkpoint && r < got.size(); ++r) {
        label_hits += got[r] == setup.traffic_labels[offset + r];
        ++label_rows;
      }
    }
  }
  report.gate(mismatched == 0,
              std::to_string(mismatched) +
                  " served answers differ from offline predict / "
                  "predict_scores of every model version that can have "
                  "served them");
  report.sample("accuracy", "fraction",
                label_rows == 0 ? 0.0
                                : static_cast<double>(label_hits) /
                                      static_cast<double>(label_rows));
  report.sample("auc", "fraction", metrics::auc(score_rows, score_truth));
  report.gate(report.failed() == 0,
              std::to_string(report.failed()) + " operations failed");

  // --- Per-layer numbers ----------------------------------------------------
  const std::size_t timed = static_cast<std::size_t>(std::count_if(
      steady.due_s.begin(), steady.due_s.end(),
      [](double due) { return due >= kWarmupSeconds; }));
  report.context("latency_samples", static_cast<double>(timed));
  report.context("offered_requests_per_s", kOfferedRequestsPerSecond);
  report.context("shards", static_cast<double>(kShards));
  report.context("ranks", 1.0);
  report.context("capacity_window_requests",
                 static_cast<double>(kCapacityWindow));
  report.layer("serve.latency_samples", "count", static_cast<double>(timed));
  report.layer("serve.p99_ms", "ms", percentile(steady.latency_ms, 0.99));
  report.layer("serve.gen_late_ms", "ms", percentile(steady.late_ms, 0.99));
  report.layer("serve.gen_late_max_ms", "ms", percentile(steady.late_ms, 1.0));
  report_stage_stats(before_steady, after_steady, report);
  report_compute_stats(before_capacity, after_capacity, capacity.wall_s,
                       report);
  if (!capacity.slice_rows_s.empty()) {
    report.layer("serve.capacity_min_rows_s", "rows/s",
                 *std::min_element(capacity.slice_rows_s.begin(),
                                   capacity.slice_rows_s.end()));
    report.layer("serve.capacity_max_rows_s", "rows/s",
                 *std::max_element(capacity.slice_rows_s.begin(),
                                   capacity.slice_rows_s.end()));
  }
  report.layer("serve.model_swaps", "count",
               static_cast<double>(final_stats.model_swaps));
  report.layer("online.p50_ms", "ms",
               median(window_medians(online.due_s, online.latency_ms, 0.0,
                                     online_s)));
  report.layer("online.train_us_per_row", "us",
               learned.trained_rows == 0
                   ? 0.0
                   : 1e6 * learned.train_seconds /
                         static_cast<double>(learned.trained_rows));
  report.layer("online.publish_ms", "ms",
               learned.publishes == 0
                   ? 0.0
                   : 1e3 * learned.publish_seconds /
                         static_cast<double>(learned.publishes));
  report.layer("online.publishes", "count",
               static_cast<double>(learned.publishes));
  report.layer("online.dropped_rows", "count",
               static_cast<double>(learned.dropped_rows));

  if (options.trace) {
    const auto set_up_spans = trace::aggregate(1);
    report.layer("data.generate_s", "s",
                 span_total(set_up_spans, "data.generate"));
    report.layer("encode.fit_s", "s", span_total(set_up_spans, "encode.fit"));
    const std::size_t encoded_rows = setup.traffic.rows() + kServeTrainEvents +
                                     setup.stream.rows();
    report.layer("encode.transform_us_per_row", "us",
                 1e6 * span_total(set_up_spans, "encode.transform") /
                     static_cast<double>(encoded_rows));
    report.layer("core.save_s", "s", span_total(set_up_spans, "core.save"));
    report.layer("core.load_s", "s", span_total(set_up_spans, "core.load"));
    report.layer("serve.replica_clone_s", "s",
                 span_total(set_up_spans, "serve.replica_clone"));
    report_primitives(2, report);

    // Trace overhead: the capacity phase again, back to back, on the
    // traced server and on a twin set up identically on the plain engine.
    trace::set_run(4);
    ServeSetup twin = set_up(options, "simd", steady_s + online_s);
    const double untraced_rate =
        median(measure_capacity(*twin.server, twin, capacity_s).slice_rows_s);
    const double traced_rate =
        median(measure_capacity(server, setup, capacity_s).slice_rows_s);
    report.layer("trace.overhead", "ratio",
                 traced_rate > 0.0 ? untraced_rate / traced_rate - 1.0 : 0.0);
  }
}

}  // namespace perfbench
