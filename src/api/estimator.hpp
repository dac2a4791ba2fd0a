#pragma once
// The unified estimator contract. Every model in the repo — the BCPNN
// Model facade (shallow and deep, both heads) and the four related-work
// baselines — is driven through this one interface, so experiment
// drivers, the conformance test suite, and AsyncPredictor never care
// which concrete model they hold:
//
//   std::unique_ptr<Estimator> model = ...;
//   model->fit(x_train, y_train);
//   double acc = model->evaluate(x_test, y_test);
//   if (model->supports_save()) model->save("model.sbrn");

#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace streambrain {

namespace baselines {
class BinaryClassifier;
}

class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Short machine-readable identifier ("bcpnn(...)", "mlp", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Train on encoded-or-raw features (model-dependent) + integer labels.
  virtual void fit(const tensor::MatrixF& x,
                   const std::vector<int>& labels) = 0;

  /// Incremental training on one mini-batch — the streaming counterpart
  /// to fit(). A partial_fit() call refines the current parameters (one
  /// plasticity/SGD step, no restart); interleaving it with predict() is
  /// the caller's concurrency problem (see streambrain::OnlineTrainer,
  /// which trains a private model and publishes immutable snapshots).
  /// The default throws std::runtime_error naming the estimator; gate
  /// calls on supports_partial_fit().
  virtual void partial_fit(const tensor::MatrixF& x,
                           const std::vector<int>& labels);

  /// Whether partial_fit() is implemented (and the estimator is in a
  /// trainable state — e.g. read-only inference forms return false).
  [[nodiscard]] virtual bool supports_partial_fit() const { return false; }

  /// Hard label per row.
  [[nodiscard]] virtual std::vector<int> predict(const tensor::MatrixF& x) = 0;

  /// P(class == 1) per row (binary view, used for AUC).
  [[nodiscard]] virtual std::vector<double> predict_scores(
      const tensor::MatrixF& x) = 0;

  /// Test accuracy; the default routes through predict().
  [[nodiscard]] virtual double evaluate(const tensor::MatrixF& x,
                                        const std::vector<int>& labels);

  /// Whether save()/load() round-trip this estimator. Models that cannot
  /// checkpoint keep the default and throw from save()/load().
  [[nodiscard]] virtual bool supports_save() const { return false; }

  /// Checkpoint to / restore from a file. The default implementations
  /// throw std::runtime_error naming the estimator.
  virtual void save(const std::string& path) const;
  virtual void load(const std::string& path);
};

/// Adapt an arbitrary baselines::BinaryClassifier instance (e.g. one with
/// a custom config) to the Estimator contract. The adapter owns `inner`.
[[nodiscard]] std::unique_ptr<Estimator> wrap_baseline(
    std::unique_ptr<baselines::BinaryClassifier> inner);

/// Construct a default-configured baseline by name. Recognized names:
/// "logistic", "mlp", "naive_bayes", "adaboost". Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Estimator> make_baseline_estimator(
    const std::string& name);

/// The full set of names make_baseline_estimator() accepts.
[[nodiscard]] const std::vector<std::string>& baseline_estimator_names();

}  // namespace streambrain
