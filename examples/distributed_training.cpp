// Full-model data-parallel BCPNN training over the comm transport layer —
// the usage pattern of StreamBrain's MPI backend, extended to the whole
// Estimator surface. core::DistributedTrainer shards every batch across
// ranks, synchronizes the hidden traces AND the supervised head with one
// reduction per batch, and (with the default sync_cadence of 1) produces
// a model that is bit-identical to single-rank training — on every
// backend.
//
// Two launch modes:
//  * single process (default): fit_distributed() runs `--ranks` rank
//    threads itself over the chosen backend (inproc mailboxes, a real
//    POSIX shm segment, or a loopback TCP mesh).
//  * multi process: when SB_COMM_RANK/SB_COMM_WORLD are set (as done by
//    tools/sb_launch), each process connects its one rank with
//    comm::connect_env() and trains via DistributedTrainer::fit_rank();
//    rank 0 prints the report. E.g.:
//        sb_launch -n 4 --backend shm -- ./example_distributed_training
//
// Usage:
//   example_distributed_training [--ranks 4] [--events 2400] [--mcus 80]
//                                [--ring] [--cadence 1]
//                                [--backend inproc|shm|tcp]

#include <cstdio>
#include <string>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

namespace {

comm::Backend parse_backend(const std::string& name) {
  if (name == "inproc") return comm::Backend::kInProcess;
  if (name == "shm") return comm::Backend::kShm;
  if (name == "tcp") return comm::Backend::kTcp;
  std::fprintf(stderr, "unknown --backend '%s' (want inproc|shm|tcp)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const std::size_t events =
      static_cast<std::size_t>(args.get_int("events", 2400));
  const std::size_t mcus = static_cast<std::size_t>(args.get_int("mcus", 80));
  const std::size_t cadence =
      static_cast<std::size_t>(args.get_int("cadence", 1));
  const bool ring = args.has("ring");
  const bool multi_process = comm::env_world_configured();

  // Shared data; the trainer shards each batch across the ranks. In the
  // multi-process mode every process builds the identical dataset and
  // model — only the comm substrate differs.
  data::SyntheticHiggsGenerator generator;
  auto dataset = generator.generate(events + events / 3);
  util::Rng rng(99);
  data::shuffle(dataset, rng);
  const auto [train, test] = data::split(
      dataset, static_cast<double>(events) / static_cast<double>(dataset.size()));
  encode::OneHotEncoder encoder(10);
  const auto x_train = encoder.fit_transform(train.features);
  const auto x_test = encoder.transform(test.features);

  // The paper's three-layer network with the hybrid BCPNN+SGD read-out,
  // built through the ordinary Keras-style facade...
  core::Model model;
  model.input(data::kHiggsFeatures, 10)
      .hidden(1, mcus, 0.4)
      .classifier(2, core::HeadType::kSgd)
      .set_option("epochs", 8)
      .set_option("head_epochs", 12)
      .compile("simd", /*seed=*/42);

  // ...then trained data-parallel instead of model.fit().
  core::DistributedOptions options;
  options.ranks = ranks;
  options.algorithm = ring ? comm::AllreduceAlgorithm::kRing
                           : comm::AllreduceAlgorithm::kFlat;
  options.sync_cadence = cadence;
  options.backend = parse_backend(args.get_string("backend", "inproc"));

  if (multi_process) {
    // Launched by sb_launch (or by hand with SB_COMM_* set): this process
    // IS one rank; the env decides backend, rank, and world size.
    comm::Endpoint endpoint = comm::connect_env();
    comm::Communicator& comm = endpoint.comm();
    if (comm.rank() == 0) {
      std::printf(
          "=== Distributed BCPNN training (%d processes, %s transport) ===\n\n",
          comm.size(), comm::backend_name(comm.backend()));
      std::printf("training %s on %zu events across %d ranks (%s allreduce)...\n",
                  model.name().c_str(), train.size(), comm.size(),
                  comm::algorithm_name(options.algorithm));
    }
    util::Stopwatch watch;
    core::DistributedTrainer trainer(options);
    const std::size_t sync_count =
        trainer.fit_rank(comm, model, x_train, train.labels);
    if (comm.rank() == 0) {
      std::printf("  wall time            : %.2f s\n", watch.seconds());
      std::printf("  reductions           : %zu (one per batch)\n", sync_count);
      std::printf("  logical traffic/rank : %.1f MB\n",
                  static_cast<double>(comm.bytes_sent()) / 1e6);
      std::printf("  wire traffic/rank    : %.1f MB\n",
                  static_cast<double>(comm.wire_bytes_sent()) / 1e6);
      const double accuracy =
          metrics::accuracy(model.predict(x_test), test.labels);
      const double auc =
          metrics::auc(model.predict_scores(x_test), test.labels);
      std::printf("\ntest accuracy: %.2f%%   test AUC: %.2f%%\n",
                  100.0 * accuracy, 100.0 * auc);
    }
    comm.barrier();  // keep the world open until every rank finished
    return 0;
  }

  std::printf(
      "=== Distributed BCPNN training (%d ranks, %s transport) ===\n\n",
      ranks, comm::backend_name(options.backend));
  std::printf("training %s on %zu events across %d ranks (%s allreduce)...\n",
              model.name().c_str(), train.size(), ranks,
              comm::algorithm_name(options.algorithm));
  const auto report = core::fit_distributed(model, x_train, train.labels,
                                            options);
  std::printf("  wall time            : %.2f s\n", report.seconds);
  std::printf("  reductions           : %zu (one per batch — ALL the traffic)\n",
              report.sync_count);
  std::printf("  logical traffic/rank : %.1f MB\n",
              static_cast<double>(report.bytes_per_rank) / 1e6);
  std::printf("  logical traffic total: %.1f MB (true per-rank sum)\n",
              static_cast<double>(report.total_bytes) / 1e6);
  std::printf("  wire traffic/rank    : %.1f MB (%s frames included)\n",
              static_cast<double>(report.wire_bytes_per_rank) / 1e6,
              comm::backend_name(report.backend));

  const double accuracy = metrics::accuracy(model.predict(x_test),
                                            test.labels);
  const double auc = metrics::auc(model.predict_scores(x_test), test.labels);
  std::printf("\ntest accuracy: %.2f%%   test AUC: %.2f%%\n", 100.0 * accuracy,
              100.0 * auc);
  std::printf(
      "\nwhy this scales (paper Section II-B): learning is local, so ranks\n"
      "never exchange gradients or activations — only per-batch statistics\n"
      "with a deterministic reduction. With sync_cadence 1 the trained\n"
      "model is bit-identical at ANY rank count AND any backend; try\n"
      "--ranks 1, --backend shm, or sb_launch -n 4 and compare.\n");
  return 0;
}
