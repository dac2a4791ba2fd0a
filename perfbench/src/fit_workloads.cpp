// fit_paper: the paper's network trained end to end in one process, and
// the same network trained data-parallel over shm ranks, which must give
// the single-rank result bit for bit.

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace streambrain;

namespace {

// The paper's network: 28 features x 10-quantile one-hot, 1 HCU x 300
// MCUs, receptive field 0.40, BCPNN+SGD hybrid head, batch 64.
constexpr std::size_t kMcus = 300;
constexpr double kReceptiveField = 0.40;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kTestEvents = 2000;
// Set-up is short and sensitive to the host's thread wake-up latency, so
// it is sampled this many times at the start of the run and again at the
// end, and the median over all samples is reported.
constexpr int kSetupRepeats = 3;
// Share of --seconds each phase may take: fits (at least one), the
// offline evaluation, and the direct request calls.
constexpr double kFitShare = 0.5;
constexpr double kEvalShare = 0.25;
constexpr double kDirectShare = 0.25;

// The training problems are fixed (their data and model seed do not
// follow --seed), so run-to-run spread in fit_s measures the host and the
// code, not the data; --seed varies the held-out events the trained model
// is evaluated and queried with.
constexpr std::uint64_t kTrainSeed = 20210;

struct Problem {
  std::size_t train_events;
  std::size_t epochs;
  std::size_t head_epochs;
};

constexpr Problem kPaper{8000, 12, 24};
// Floors of the quality gate, below every held-out set seeds 1-300 draw
// at the commit that added this benchmark (accuracy 0.629-0.688, AUC
// 0.667-0.738) and above chance, so they catch a broken learner, not a
// hard test set.
constexpr double kMinAccuracy = 0.60;
constexpr double kMinAuc = 0.64;

// The data-parallel check: DistributedTrainer::fit at one rank per core
// of a 4-core host over shm, ring allreduce, exact mode (a sync after
// every batch), on the first 1,000 training events with 4 + 6 epochs,
// against a 1-rank run of the same problem. It runs in every process,
// after the timed phases, as a correctness gate; its times are per-layer
// numbers of the traced run only, because a fit whose ranks hand off
// after every batch times the host's thread wake-ups more than the code
// (see README.md, Departures).
constexpr int kRanks = 4;
constexpr Problem kDist{1000, 4, 6};

struct Data {
  tensor::MatrixF x_train;
  std::vector<int> y_train;
  tensor::MatrixF x_test;
  std::vector<int> y_test;
};

/// Data generation and encoding (the traced run times each step).
Data prepare(const Problem& problem, std::uint64_t seed) {
  data::Dataset train, test;
  {
    const trace::Span span("data.generate");
    train = generate_events(kTrainSeed, problem.train_events);
    test = generate_events(seed + 1000003, kTestEvents);
  }
  encode::OneHotEncoder encoder(10);
  {
    const trace::Span span("encode.fit");
    encoder.fit(train.features);
  }
  Data data;
  {
    const trace::Span span("encode.transform");
    data.x_train = encoder.transform(train.features);
    data.x_test = encoder.transform(test.features);
  }
  data.y_train = std::move(train.labels);
  data.y_test = std::move(test.labels);
  return data;
}

core::Model build(const Problem& problem, const std::string& engine,
                  std::uint64_t seed) {
  core::Model model;
  model.input(28, 10)
      .hidden(1, kMcus, kReceptiveField)
      .classifier(2, core::HeadType::kSgd)
      .set_option("epochs", static_cast<double>(problem.epochs))
      .set_option("head_epochs", static_cast<double>(problem.head_epochs))
      .set_option("batch_size", static_cast<double>(kBatch))
      .compile(engine, seed);
  return model;
}

/// Set-up (data, encoder, model build) repeated kSetupRepeats times (once
/// when traced), each sampled as setup_s; returns the last data set.
Data timed_setup(const RunOptions& options, const Problem& problem,
                 Report& report) {
  Data data;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    data = prepare(problem, options.seed);
    const core::Model untrained = build(problem, "simd", kTrainSeed);
    report.sample("setup_s", "s", seconds_since(start));
  }
  return data;
}

/// Calls `fit` (which trains a fresh model and returns its wall seconds)
/// once, then again while one more fit would still end within
/// `budget_s`; samples fit_s for each.
template <typename Fit>
void repeat_fits(double budget_s, Report& report, Fit&& fit) {
  const Clock::time_point start = Clock::now();
  while (true) {
    const double fit_s = fit();
    report.attempt();
    report.sample("fit_s", "s", fit_s);
    if (seconds_since(start) + fit_s > budget_s) break;
  }
}

/// Held-out quality with the floor gate; accuracy from the model's own
/// hard labels.
void report_quality(core::Model& model, const Data& data,
                    const std::vector<double>& scores, Report& report) {
  const double accuracy = metrics::accuracy(model.predict(data.x_test),
                                            data.y_test);
  const double auc = metrics::auc(scores, data.y_test);
  report.sample("accuracy", "fraction", accuracy);
  report.sample("auc", "fraction", auc);
  report.gate(accuracy >= kMinAccuracy && auc >= kMinAuc,
              "held-out accuracy " + std::to_string(accuracy) + " / AUC " +
                  std::to_string(auc) + " below the floor " +
                  std::to_string(kMinAccuracy) + " / " +
                  std::to_string(kMinAuc));
}

void report_data_layers(const Data& data, Report& report) {
  const auto spans = trace::aggregate(1);
  report.layer("data.generate_s", "s", span_total(spans, "data.generate"));
  report.layer("encode.fit_s", "s", span_total(spans, "encode.fit"));
  report.layer("encode.transform_us_per_row", "us",
               1e6 * span_total(spans, "encode.transform") /
                   static_cast<double>(data.x_train.rows() +
                                       data.x_test.rows()));
}

/// Trace and weight bytes of the hidden layer, computed from the matrix
/// shapes (p_i, p_j, p_ij; W and bias), not measured.
void report_hidden_bytes(std::size_t inputs, std::size_t units,
                         Report& report) {
  const double floats = static_cast<double>(sizeof(float));
  report.layer("core.traces_bytes", "bytes_computed",
               floats * static_cast<double>(inputs + units + inputs * units));
  report.layer("core.weights_bytes", "bytes_computed",
               floats * static_cast<double>(inputs * units + units));
}

/// The data-parallel gate (see kDist): kRanks-rank and 1-rank fits of the
/// same problem must give bit-identical held-out scores. Traced, it also
/// reports the fit times, the exact traffic counts and a probe of one
/// allreduce at the trainer's mean per-sync payload.
void check_distributed(const Data& data, bool traced, Report& report) {
  const tensor::MatrixF x_train =
      slice_rows(data.x_train, 0, kDist.train_events);
  const std::vector<int> y_train(
      data.y_train.begin(),
      data.y_train.begin() + static_cast<std::ptrdiff_t>(kDist.train_events));
  core::DistributedOptions distributed;
  distributed.ranks = kRanks;
  distributed.backend = comm::Backend::kShm;
  distributed.algorithm = comm::AllreduceAlgorithm::kRing;
  distributed.sync_cadence = 1;
  distributed.virtual_shards = 8;
  core::DistributedOptions single = distributed;
  single.ranks = 1;

  core::Model model = build(kDist, "simd", kTrainSeed);
  Clock::time_point start = Clock::now();
  const core::DistributedReport wire =
      core::DistributedTrainer(distributed).fit(model, x_train, y_train);
  const double fit_s = seconds_since(start);
  core::Model baseline = build(kDist, "simd", kTrainSeed);
  start = Clock::now();
  (void)core::DistributedTrainer(single).fit(baseline, x_train, y_train);
  const double baseline_s = seconds_since(start);
  report.attempt(2);
  report.gate(bit_identical(model.predict_scores(data.x_test),
                            baseline.predict_scores(data.x_test)),
              std::to_string(kRanks) +
                  "-rank held-out scores differ from the 1-rank run's");
  report.context("dist_ranks", static_cast<double>(kRanks));
  report.context("dist_backend", "shm");
  report.context("dist_allreduce", "ring");
  if (!traced) return;

  const double syncs = static_cast<double>(wire.sync_count);
  report.layer("comm.syncs", "count", syncs);
  report.layer("comm.wire_bytes_per_rank", "bytes",
               static_cast<double>(wire.wire_bytes_per_rank));
  report.layer("comm.logical_bytes_per_rank", "bytes",
               static_cast<double>(wire.bytes_per_rank));
  report.layer("core.dist_fit_s", "s", fit_s);
  report.layer("core.dist_1rank_fit_s", "s", baseline_s);
  report.layer("core.dist_scaling_eff", "ratio",
               fit_s > 0.0 ? baseline_s / (kRanks * fit_s) : 0.0);

  // --- comm probe: one ring allreduce at the trainer's mean payload ---------
  // Ring allreduce sends 2(P-1)/P of the payload per rank, so the logical
  // bytes per sync give the payload back.
  const double per_sync_bytes =
      syncs > 0.0 ? static_cast<double>(wire.bytes_per_rank) / syncs : 4.0;
  const double ring_share = 2.0 * (kRanks - 1) / kRanks;
  const std::size_t payload = std::max<std::size_t>(
      1, static_cast<std::size_t>(per_sync_bytes / ring_share /
                                  sizeof(float)));
  std::vector<double> allreduce_ms;
  comm::run_transport(comm::Backend::kShm, kRanks, [&](comm::Communicator& c) {
    std::vector<float> buffer(payload, 1.0f);
    std::vector<double> local;
    for (int i = 0; i < 220; ++i) {
      c.barrier();
      const Clock::time_point call = Clock::now();
      c.allreduce(buffer.data(), buffer.size(), comm::ReduceOp::kSum,
                  comm::AllreduceAlgorithm::kRing);
      if (i >= 20) local.push_back(1e3 * seconds_since(call));
    }
    if (c.rank() == 0) allreduce_ms = std::move(local);
  });
  const double allreduce = median(allreduce_ms);
  report.layer("comm.allreduce_ms", "ms", allreduce);
  report.layer("comm.exposed_share", "fraction",
               fit_s > 0.0 ? syncs * allreduce * 1e-3 / fit_s : 0.0);
  report.context("comm_probe_payload_floats", static_cast<double>(payload));
}

}  // namespace

void run_fit_paper(const RunOptions& options, Report& report) {
  const Problem& problem = kPaper;
  trace::set_run(1);
  const Data data = timed_setup(options, problem, report);

  core::Model model;
  repeat_fits(kFitShare * options.seconds, report, [&] {
    model = build(problem, "simd", kTrainSeed);
    const Clock::time_point start = Clock::now();
    model.fit(data.x_train, data.y_train);
    return seconds_since(start);
  });
  const std::vector<double> trained_scores = model.predict_scores(data.x_test);

  // --- Save, load, and the loaded model's held-out scores -------------------
  const std::string path = options.work_dir + "/fit_paper.sbrn";
  {
    const trace::Span span("core.save");
    model.save(path);
  }
  core::Model loaded;
  {
    const trace::Span span("core.load");
    loaded.load(path);
  }
  report.attempt(2);
  trace::set_run(3);
  const std::vector<double> scores = offline_throughput(
      loaded, data.x_test, data.x_test.rows(), kEvalShare * options.seconds,
      report);
  report.gate(bit_identical(scores, trained_scores),
              "loaded model's held-out scores differ from the pre-save "
              "model's");
  report_quality(loaded, data, scores, report);
  report.context("ranks", 1.0);
  report.context("shards", 0.0);
  direct_request_latency(loaded, data.x_test, kBatch,
                         kDirectShare * options.seconds, report);
  trace::set_run(4);
  check_distributed(data, options.trace, report);
  if (!options.trace) {
    (void)timed_setup(options, problem, report);
    return;
  }

  // --- Traced fit: phases of Network::fit, timed from outside --------------
  // Model::fit runs Network::fit_unsupervised then Network::fit_head; the
  // traced run calls the two itself so each gets its own span.
  trace::set_run(2);
  core::Model traced = build(problem, trace::kTracedEngine, kTrainSeed);
  const Clock::time_point traced_start = Clock::now();
  {
    const trace::Span fit("core.fit");
    {
      const trace::Span span("core.fit_unsupervised");
      traced.network().fit_unsupervised(data.x_train);
    }
    const trace::Span span("core.fit_head");
    traced.network().fit_head(data.x_train, data.y_train);
  }
  const double traced_fit_s = seconds_since(traced_start);
  report.gate(bit_identical(traced.predict_scores(data.x_test), trained_scores),
              "traced fit's held-out scores differ from the untraced fit's");

  report_data_layers(data, report);
  report_primitives(2, report);
  const auto fit_spans = trace::aggregate(2);
  const auto it = fit_spans.find("core.fit_unsupervised");
  report.layer("core.hidden_other_s", "s",
               it == fit_spans.end() ? 0.0 : it->second.self_s);
  report.layer("core.head_s", "s", span_total(fit_spans, "core.fit_head"));
  report_hidden_bytes(28 * 10, kMcus, report);
  const auto io_spans = trace::aggregate(1);
  report.layer("core.save_s", "s", span_total(io_spans, "core.save"));
  report.layer("core.load_s", "s", span_total(io_spans, "core.load"));
  const double plain_fit_s = report.median_of("fit_s");
  report.layer("trace.overhead", "ratio",
               plain_fit_s > 0.0 ? traced_fit_s / plain_fit_s - 1.0 : 0.0);
}

}  // namespace perfbench
