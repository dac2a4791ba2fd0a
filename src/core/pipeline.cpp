#include "core/pipeline.hpp"

#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "metrics/classification.hpp"
#include "metrics/roc.hpp"
#include "util/timer.hpp"

namespace streambrain::core {

ExperimentResult run_higgs_experiment(const HiggsExperimentConfig& config) {
  // --- Data: balanced events, split, quantile one-hot encoding ----------
  util::Rng rng(config.seed ^ 0xD1CE5EEDULL);
  const std::size_t total = config.train_events + config.test_events;
  data::Dataset dataset =
      data::load_or_generate_higgs(config.csv_path, total * 2, config.seed);
  // The synthetic generator is balanced by construction, but the real csv
  // is not; balanced_subset enforces the paper's protocol for both.
  const std::size_t per_class = total / 2;
  dataset = data::balanced_subset(dataset, per_class, rng);
  auto [train, test] = data::split(
      dataset, static_cast<double>(config.train_events) /
                   static_cast<double>(dataset.size()));

  encode::OneHotEncoder encoder(config.bins);
  const tensor::MatrixF x_train = encoder.fit_transform(train.features);
  const tensor::MatrixF x_test = encoder.transform(test.features);

  // --- Network -----------------------------------------------------------
  NetworkConfig net_config = config.network;
  net_config.bcpnn.input_hypercolumns = train.dim();
  net_config.bcpnn.input_bins = config.bins;
  net_config.bcpnn.seed = config.seed;
  Network network(net_config);
  if (config.catalyst != nullptr) {
    viz::CatalystAdaptor* catalyst = config.catalyst;
    network.set_epoch_callback(
        [catalyst](const EpochInfo& info, const BcpnnLayer& layer) {
          catalyst->co_process(info.epoch, layer.masks().all(),
                               layer.mi_map());
        });
  }

  util::Stopwatch watch;
  ExperimentResult result;
  result.fit = network.fit(x_train, train.labels);
  result.train_seconds = watch.seconds();

  // --- Evaluation ---------------------------------------------------------
  result.train_accuracy =
      metrics::accuracy(network.predict(x_train), train.labels);
  result.test_accuracy =
      metrics::accuracy(network.predict(x_test), test.labels);
  result.test_auc = metrics::auc(network.predict_scores(x_test), test.labels);
  result.final_masks = network.layer(0).masks().all();
  return result;
}

std::vector<ExperimentResult> run_higgs_experiment_repeated(
    HiggsExperimentConfig config, std::size_t repeats) {
  std::vector<ExperimentResult> results;
  results.reserve(repeats);
  const std::uint64_t base_seed = config.seed;
  for (std::size_t r = 0; r < repeats; ++r) {
    config.seed = base_seed + r;
    results.push_back(run_higgs_experiment(config));
  }
  return results;
}

}  // namespace streambrain::core
