// Benchmarks Section II-B's scaling claim: BCPNN's local learning makes
// data-parallel training communication-light — one statistics reduction
// per batch is ALL the traffic, with no gradient exchange and no backward
// pass. This harness trains the same full model (hidden BCPNN layer +
// supervised head) through core::DistributedTrainer on 1, 2, 4 and 8
// simulated ranks, under both allreduce algorithms (flat rank-ordered vs
// bandwidth-optimal chunked ring), reports communication volume per epoch
// and speedup, verifies the learned model quality, and emits
// BENCH_scaling.json.
//
//   bench_scaling [--out BENCH_scaling.json] [--events 2000] [--mcus 60]
//                 [--epochs 5] [--head-epochs 8] [--cadence 1]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

namespace {

struct Result {
  int ranks = 1;
  std::string backend;
  std::string algorithm;
  double seconds = 0.0;
  double speedup_vs_1rank = 1.0;
  std::uint64_t bytes_per_rank = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t wire_bytes_per_rank = 0;
  std::uint64_t total_wire_bytes = 0;
  double mb_per_rank_per_epoch = 0.0;
  std::size_t syncs = 0;
  double accuracy = 0.0;
};

core::Model build_model(std::size_t mcus, std::size_t epochs,
                        std::size_t head_epochs) {
  core::Model model;
  model.input(data::kHiggsFeatures, 10)
      .hidden(1, mcus, 0.4)
      .classifier(2, core::HeadType::kSgd)
      .set_option("epochs", static_cast<double>(epochs))
      .set_option("head_epochs", static_cast<double>(head_epochs))
      .set_option("batch_size", 64)
      .compile("simd", /*seed=*/42);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_scaling.json");
  const std::size_t events =
      static_cast<std::size_t>(args.get_int("events", 2000));
  const std::size_t mcus = static_cast<std::size_t>(args.get_int("mcus", 60));
  const std::size_t epochs =
      static_cast<std::size_t>(args.get_int("epochs", 5));
  const std::size_t head_epochs =
      static_cast<std::size_t>(args.get_int("head-epochs", 8));
  const std::size_t cadence =
      static_cast<std::size_t>(args.get_int("cadence", 1));

  std::printf(
      "=== Scaling: full-model data-parallel BCPNN over simulated ranks ===\n");
  std::printf(
      "%zu events, 1 HCU x %zu MCUs + SGD head, %zu+%zu epochs, cadence %zu\n\n",
      events, mcus, epochs, head_epochs, cadence);

  data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(events);
  data::HiggsGeneratorOptions test_opts;
  test_opts.seed = 4242;
  data::SyntheticHiggsGenerator test_generator(test_opts);
  const auto test = test_generator.generate(events / 4);
  encode::OneHotEncoder encoder(10);
  const auto x_train = encoder.fit_transform(train.features);
  const auto x_test = encoder.transform(test.features);

  std::vector<Result> results;
  const auto run_case = [&](comm::Backend backend,
                            comm::AllreduceAlgorithm algorithm, int ranks,
                            double seconds_1rank) {
    core::Model model = build_model(mcus, epochs, head_epochs);
    core::DistributedOptions options;
    options.ranks = ranks;
    options.backend = backend;
    options.algorithm = algorithm;
    options.sync_cadence = cadence;
    const auto report =
        core::fit_distributed(model, x_train, train.labels, options);

    Result result;
    result.ranks = ranks;
    result.backend = comm::backend_name(backend);
    result.algorithm = comm::algorithm_name(algorithm);
    result.seconds = report.seconds;
    result.speedup_vs_1rank =
        report.seconds > 0.0 && seconds_1rank > 0.0
            ? seconds_1rank / report.seconds
            : 1.0;
    result.bytes_per_rank = report.bytes_per_rank;
    result.total_bytes = report.total_bytes;
    result.wire_bytes_per_rank = report.wire_bytes_per_rank;
    result.total_wire_bytes = report.total_wire_bytes;
    result.mb_per_rank_per_epoch =
        static_cast<double>(report.bytes_per_rank) / 1e6 /
        static_cast<double>(epochs + head_epochs);
    result.syncs = report.sync_count;
    result.accuracy = model.evaluate(x_test, test.labels);
    results.push_back(result);
    return result;
  };

  util::Table table({"backend", "algorithm", "ranks", "train time (s)",
                     "speedup", "reductions", "MB/rank/epoch", "wire MB/rank",
                     "test acc"});
  const auto add_row = [&table](const Result& result) {
    table.add_row({result.backend, result.algorithm,
                   std::to_string(result.ranks),
                   util::Table::num(result.seconds),
                   util::Table::num(result.speedup_vs_1rank),
                   std::to_string(result.syncs),
                   util::Table::num(result.mb_per_rank_per_epoch, 2),
                   util::Table::num(
                       static_cast<double>(result.wire_bytes_per_rank) / 1e6,
                       2),
                   util::Table::pct(result.accuracy)});
  };

  // Algorithm sweep over the in-process substrate (the schedule study).
  double ring_seconds_1rank = 0.0;
  for (const auto algorithm : {comm::AllreduceAlgorithm::kFlat,
                               comm::AllreduceAlgorithm::kRing}) {
    double seconds_1rank = 0.0;
    for (const int ranks : {1, 2, 4, 8}) {
      const Result result = run_case(comm::Backend::kInProcess, algorithm,
                                     ranks, seconds_1rank);
      if (ranks == 1) seconds_1rank = result.seconds;
      add_row(result);
    }
    if (algorithm == comm::AllreduceAlgorithm::kRing) {
      ring_seconds_1rank = seconds_1rank;
    }
  }

  // Backend sweep: identical schedule and logical bytes, real wire cost
  // (shm segment / TCP loopback frames) on top. Speedup is against the
  // 1-rank ring run, so a world slower than one rank reads below 1.
  for (const auto backend : {comm::Backend::kShm, comm::Backend::kTcp}) {
    for (const int ranks : {2, 4}) {
      add_row(run_case(backend, comm::AllreduceAlgorithm::kRing, ranks,
                       ring_seconds_1rank));
    }
  }
  table.print();

  // --- JSON report ----------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"scaling\",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"mcus\": " << mcus << ",\n";
  out << "  \"epochs\": " << epochs << ",\n";
  out << "  \"head_epochs\": " << head_epochs << ",\n";
  out << "  \"sync_cadence\": " << cadence << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"backend\": \"" << r.backend << "\", \"algorithm\": \""
        << r.algorithm << "\", \"ranks\": " << r.ranks
        << ", \"seconds\": " << r.seconds
        << ", \"speedup_vs_1rank\": " << r.speedup_vs_1rank
        << ", \"bytes_per_rank\": " << r.bytes_per_rank
        << ", \"total_bytes\": " << r.total_bytes
        << ", \"wire_bytes_per_rank\": " << r.wire_bytes_per_rank
        << ", \"total_wire_bytes\": " << r.total_wire_bytes
        << ", \"mb_per_rank_per_epoch\": " << r.mb_per_rank_per_epoch
        << ", \"syncs\": " << r.syncs << ", \"accuracy\": " << r.accuracy
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::printf(
      "\nshape check vs paper (Section II-B): communication is one\n"
      "statistics reduction per batch — no gradient exchange, no backward\n"
      "pass. Training is bit-identical at every rank count (cadence 1), so\n"
      "the accuracy column is constant by construction; the ring algorithm\n"
      "moves 2*(P-1)/P*n bytes per rank vs the flat path's (P-1)*n. Note\n"
      "the exact mode's payload is virtual_shards (default 8) x the trace\n"
      "block — the zero padding that buys reproducibility; --cadence k >= 2\n"
      "drops to one trace-sized average per k batches. The backend rows\n"
      "train the SAME bits over a real shm segment / TCP loopback mesh;\n"
      "wire MB/rank adds the frame headers the logical model omits.\n");
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
