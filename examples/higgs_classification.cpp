// Full Higgs analysis, mirroring the paper's Section V workflow end to
// end: balanced subset, 10-quantile one-hot encoding, unsupervised BCPNN
// feature learning with in-situ receptive-field visualization, hybrid
// SGD read-out, and a final report with accuracy, AUC, confusion matrix,
// best-AMS selection and the learned receptive fields per feature.
//
// Usage:
//   example_higgs_classification [--csv HIGGS.csv] [--events 8000]
//       [--hcus 2] [--mcus 200] [--rf 0.4] [--out fields_dir]

#include <cstdio>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::size_t events =
      static_cast<std::size_t>(args.get_int("events", 6000));

  std::printf("=== Higgs boson classification with BCPNN+SGD ===\n\n");

  // In-situ visualization sink (the paper's Catalyst pipeline).
  viz::CatalystOptions catalyst_options;
  catalyst_options.output_dir = args.get_string("out", "higgs_fields");
  catalyst_options.write_vti = true;
  catalyst_options.grid_width = 7;
  viz::CatalystAdaptor catalyst(catalyst_options);

  core::HiggsExperimentConfig config;
  config.csv_path = args.get_string("csv", "");
  config.train_events = events * 3 / 4;
  config.test_events = events - config.train_events;
  config.network.head = core::HeadType::kSgd;
  config.network.bcpnn.hcus =
      static_cast<std::size_t>(args.get_int("hcus", 2));
  config.network.bcpnn.mcus =
      static_cast<std::size_t>(args.get_int("mcus", 200));
  config.network.bcpnn.receptive_field = args.get_double("rf", 0.4);
  config.network.bcpnn.epochs =
      static_cast<std::size_t>(args.get_int("epochs", 12));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.catalyst = &catalyst;

  // Run the experiment through the shared pipeline, but keep our own
  // network around for the detailed post-hoc analysis below.
  util::Rng rng(config.seed ^ 0xD1CE5EEDULL);
  auto dataset = data::load_or_generate_higgs(
      config.csv_path, (config.train_events + config.test_events) * 2,
      config.seed);
  dataset = data::balanced_subset(
      dataset, (config.train_events + config.test_events) / 2, rng);
  auto [train, test] = data::split(
      dataset, static_cast<double>(config.train_events) /
                   static_cast<double>(dataset.size()));
  encode::OneHotEncoder encoder(config.bins);
  const auto x_train = encoder.fit_transform(train.features);
  const auto x_test = encoder.transform(test.features);

  core::NetworkConfig net_config = config.network;
  net_config.bcpnn.input_hypercolumns = train.dim();
  net_config.bcpnn.input_bins = config.bins;
  net_config.bcpnn.seed = config.seed;
  core::Network network(net_config);
  network.set_epoch_callback(
      [&catalyst](const core::EpochInfo& info, const core::BcpnnLayer& layer) {
        catalyst.co_process(info.epoch, layer.masks().all(), layer.mi_map());
        std::printf("  epoch %2zu: noise=%.2f, %zu plasticity swaps\n",
                    info.epoch, info.noise_std, info.plasticity_swaps);
      });

  std::printf("training on %zu events (%zu hidden units)...\n", train.size(),
              net_config.bcpnn.hidden_units());
  const auto fit = network.fit(x_train, train.labels);
  std::printf("done in %.2fs (unsupervised %.2fs, head %.2fs)\n\n",
              fit.total_seconds(), fit.unsupervised_seconds,
              fit.head_seconds);

  // ---- Evaluation ------------------------------------------------------
  const auto predictions = network.predict(x_test);
  const auto scores = network.predict_scores(x_test);
  metrics::ConfusionMatrix confusion(2);
  confusion.add_all(predictions, test.labels);
  const auto ams_scan = metrics::best_ams(scores, test.labels);

  std::printf("test accuracy : %.2f%%   (paper: 69.15%% hybrid)\n",
              100.0 * confusion.accuracy());
  std::printf("test AUC      : %.2f%%   (paper: 76.4%% hybrid)\n",
              100.0 * metrics::auc(scores, test.labels));
  std::printf("signal P/R/F1 : %.2f / %.2f / %.2f\n", confusion.precision(1),
              confusion.recall(1), confusion.f1(1));
  std::printf("best AMS      : %.2f at threshold %.3f (HiggsML metric)\n\n",
              ams_scan.best_ams, ams_scan.best_threshold);
  std::printf("%s\n", confusion.to_string().c_str());

  // ---- Receptive fields over named physics features ---------------------
  std::printf("learned receptive fields (structural plasticity output):\n");
  const auto& names = data::higgs_feature_names();
  for (std::size_t h = 0; h < net_config.bcpnn.hcus; ++h) {
    std::printf("HCU %zu: %s\n", h,
                viz::render_mask_bar(network.layer(0).masks().mask(h)).c_str());
  }
  std::printf("\nfeatures attended by HCU 0:\n");
  for (std::size_t f = 0; f < names.size(); ++f) {
    if (network.layer(0).masks().active(0, f)) {
      std::printf("  %-26s%s\n", names[f].c_str(),
                  f >= 21 ? "   [high-level]" : "");
    }
  }
  std::printf("\nVTI field snapshots written to %s/ (open in ParaView)\n",
              catalyst_options.output_dir.c_str());
  return 0;
}
