// Distributed-training suite: DistributedTrainer trains full models
// (hidden BCPNN layer + BCPNN or SGD head, and deep stacks) data-parallel
// over comm::, and with the default sync_cadence == 1 the result is
// BIT-IDENTICAL at every rank count — the per-batch statistics are
// computed per fixed virtual shard and exchanged through a zero-padded
// (exact) allreduce, so no floating-point association depends on the
// rank count. The golden tests pin the scalar dispatch tier and compare
// rank-2 training against committed digests under tests/golden/.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "core/model.hpp"
#include "core/network.hpp"
#include "core/serialization.hpp"
#include "core/sgd_head.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "golden_util.hpp"
#include "tensor/kernel_set.hpp"

namespace sc = streambrain::core;
namespace st = streambrain::tensor;
namespace sg = streambrain::testing;
namespace scomm = streambrain::comm;

namespace {

struct FixtureData {
  st::MatrixF x_train;
  std::vector<int> y_train;
  st::MatrixF x_test;
  std::vector<int> y_test;
};

const FixtureData& fixture() {
  static const FixtureData data = [] {
    streambrain::data::SyntheticHiggsGenerator train_generator;
    const auto train = train_generator.generate(260);
    streambrain::data::HiggsGeneratorOptions opts;
    opts.seed = 777;
    streambrain::data::SyntheticHiggsGenerator test_generator(opts);
    const auto test = test_generator.generate(80);
    streambrain::encode::OneHotEncoder encoder(10);
    FixtureData out;
    out.x_train = encoder.fit_transform(train.features);
    out.y_train = train.labels;
    out.x_test = encoder.transform(test.features);
    out.y_test = test.labels;
    return out;
  }();
  return data;
}

sc::Model make_shallow(sc::HeadType head) {
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 20, 0.4)
      .classifier(2, head)
      .set_option("epochs", 2)
      .set_option("head_epochs", 3)
      .set_option("batch_size", 32)
      .compile("simd", /*seed=*/11);
  return model;
}

sc::Model make_deep() {
  sc::Model model;
  model.input(28, 10)
      .hidden(2, 12, 0.5)
      .hidden(1, 10, 0.6)
      .classifier(2, sc::HeadType::kBcpnn)
      .set_option("epochs", 2)
      .set_option("head_epochs", 2)
      .set_option("batch_size", 32)
      .compile("simd", /*seed=*/13);
  return model;
}

void append(std::vector<float>& out, const std::vector<float>& v) {
  out.insert(out.end(), v.begin(), v.end());
}

void append(std::vector<float>& out, const st::MatrixF& m) {
  out.insert(out.end(), m.begin(), m.end());
}

void append_traces(std::vector<float>& out,
                   const sc::ProbabilityTraces& traces) {
  append(out, traces.pi());
  append(out, traces.pj());
  append(out, traces.pij());
}

/// Every learned float of the model, concatenated, for bitwise compares.
std::vector<float> state_vector(const sc::Model& model) {
  std::vector<float> out;
  const sc::Network& net = model.network();
  for (std::size_t l = 0; l < net.depth(); ++l) {
    append_traces(out, net.layer(l).traces());
    append(out, net.layer(l).weights());
    append(out, net.layer(l).bias());
  }
  if (net.sgd_head() != nullptr) {
    append(out, net.sgd_head()->weights());
    append(out, net.sgd_head()->bias());
  } else {
    append_traces(out, net.bcpnn_head()->traces());
  }
  return out;
}

struct TrainedSnapshot {
  std::vector<float> state;
  std::vector<int> labels;
  std::vector<double> scores;
  sc::DistributedReport report;
};

TrainedSnapshot train_snapshot(sc::Model&& model,
                               const sc::DistributedOptions& options) {
  const FixtureData& data = fixture();
  TrainedSnapshot snap;
  snap.report = sc::fit_distributed(model, data.x_train, data.y_train, options);
  snap.state = state_vector(model);
  snap.labels = model.predict(data.x_test);
  snap.scores = model.predict_scores(data.x_test);
  return snap;
}

void expect_bit_identical(const TrainedSnapshot& a, const TrainedSnapshot& b,
                          const std::string& what) {
  ASSERT_EQ(a.state.size(), b.state.size()) << what;
  for (std::size_t i = 0; i < a.state.size(); ++i) {
    ASSERT_EQ(a.state[i], b.state[i])
        << what << ": learned state drifts at float " << i;
  }
  EXPECT_EQ(a.labels, b.labels) << what;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << what;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    ASSERT_EQ(a.scores[i], b.scores[i]) << what << ": score row " << i;
  }
}

}  // namespace

// --- Rank-count invariance (the tentpole acceptance criterion) -------------

TEST(Distributed, BcpnnHeadBitIdenticalAcrossRankCounts) {
  const auto reference =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), {.ranks = 1});
  for (const int ranks : {2, 3, 4}) {
    const auto snap = train_snapshot(make_shallow(sc::HeadType::kBcpnn),
                                     {.ranks = ranks});
    expect_bit_identical(reference, snap,
                         "bcpnn head, ranks=" + std::to_string(ranks));
    EXPECT_GT(snap.report.sync_count, 0u);
    EXPECT_GT(snap.report.bytes_per_rank, 0u);
  }
}

TEST(Distributed, SgdHeadBitIdenticalAcrossRankCounts) {
  const auto reference =
      train_snapshot(make_shallow(sc::HeadType::kSgd), {.ranks = 1});
  for (const int ranks : {2, 4}) {
    const auto snap =
        train_snapshot(make_shallow(sc::HeadType::kSgd), {.ranks = ranks});
    expect_bit_identical(reference, snap,
                         "sgd head, ranks=" + std::to_string(ranks));
  }
}

TEST(Distributed, DeepStackBitIdenticalAcrossRankCounts) {
  const auto reference = train_snapshot(make_deep(), {.ranks = 1});
  for (const int ranks : {2, 4}) {
    const auto snap = train_snapshot(make_deep(), {.ranks = ranks});
    expect_bit_identical(reference, snap,
                         "deep stack, ranks=" + std::to_string(ranks));
  }
}

TEST(Distributed, MoreRanksThanVirtualShardsStillExact) {
  // Ranks beyond the decomposition width idle on some shards but must
  // not change the result.
  sc::DistributedOptions narrow;
  narrow.ranks = 1;
  narrow.virtual_shards = 2;
  const auto reference =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), narrow);
  narrow.ranks = 3;  // > virtual_shards
  const auto snap = train_snapshot(make_shallow(sc::HeadType::kBcpnn), narrow);
  expect_bit_identical(reference, snap, "ranks > virtual_shards");
}

TEST(Distributed, RingAlgorithmBitIdenticalToFlat) {
  // The exact mode's allreduce payload has disjoint per-shard support, so
  // the algorithm changes bytes and schedule but never a single bit.
  const auto flat = train_snapshot(
      make_shallow(sc::HeadType::kBcpnn),
      {.ranks = 4, .algorithm = scomm::AllreduceAlgorithm::kFlat});
  const auto ring = train_snapshot(
      make_shallow(sc::HeadType::kBcpnn),
      {.ranks = 4, .algorithm = scomm::AllreduceAlgorithm::kRing});
  expect_bit_identical(flat, ring, "flat vs ring");
  // Ring moves fewer bytes per rank at 4 ranks: 2*(P-1)/P*n vs (P-1)*n.
  EXPECT_LT(ring.report.bytes_per_rank, flat.report.bytes_per_rank);
}

// --- Transport-backend invariance (shm segment / TCP loopback mesh) --------

TEST(Distributed, BackendBitIdenticalAcrossTransportsAtEveryRankCount) {
  // The collectives never touch the wire directly, so swapping the
  // in-process mailboxes for a real shared-memory segment or a TCP
  // loopback mesh must not move a single bit — at any rank count.
  for (const int ranks : {1, 2, 4}) {
    sc::DistributedOptions options;
    options.ranks = ranks;
    options.backend = scomm::Backend::kInProcess;
    const auto reference =
        train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
    for (const auto backend : {scomm::Backend::kShm, scomm::Backend::kTcp}) {
      options.backend = backend;
      const auto snap =
          train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
      expect_bit_identical(reference, snap,
                           std::string("backend=") +
                               scomm::backend_name(backend) +
                               ", ranks=" + std::to_string(ranks));
      EXPECT_EQ(snap.report.backend, backend);
      // The logical byte model is backend-independent by construction.
      EXPECT_EQ(snap.report.bytes_per_rank, reference.report.bytes_per_rank);
      EXPECT_EQ(snap.report.total_bytes, reference.report.total_bytes);
    }
  }
}

TEST(Distributed, WireBytesIncludeFramingOnRealTransports) {
  sc::DistributedOptions options;
  options.ranks = 2;
  for (const auto backend : {scomm::Backend::kShm, scomm::Backend::kTcp}) {
    options.backend = backend;
    const auto snap =
        train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
    // Real wires pay a frame header per message on top of the payload.
    EXPECT_GT(snap.report.wire_bytes_per_rank, snap.report.bytes_per_rank)
        << scomm::backend_name(backend);
    EXPECT_GE(snap.report.total_wire_bytes,
              snap.report.wire_bytes_per_rank * 2)
        << scomm::backend_name(backend);
  }
  // In-process "wire" carries the payloads without framing.
  options.backend = scomm::Backend::kInProcess;
  const auto inproc =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
  EXPECT_GE(inproc.report.wire_bytes_per_rank, inproc.report.bytes_per_rank);
}

// --- Golden digests (scalar tier, committed under tests/golden/) -----------

namespace {

/// Train `make()`'s model at 2 ranks under `options` on the scalar tier and
/// compare its test-set predictions with the committed digest `name`.
void check_distributed_golden(const std::string& name,
                              const std::function<sc::Model()>& make,
                              sc::DistributedOptions options = {}) {
  options.ranks = 2;
  const FixtureData& data = fixture();
  sg::Digest actual;
  {
    const sg::ScopedDispatch pin(st::DispatchLevel::kScalar);
    sc::Model model = make();
    sc::fit_distributed(model, data.x_train, data.y_train, options);
    actual.labels = model.predict(data.x_test);
    actual.scores = model.predict_scores(data.x_test);
    actual.accuracy = model.evaluate(data.x_test, data.y_test);
    for (std::size_t i = 0; i < actual.scores.size(); ++i) {
      const double p =
          std::min(std::max(actual.scores[i], 1e-12), 1.0 - 1e-12);
      actual.log_loss -=
          data.y_test[i] == 1 ? std::log(p) : std::log(1.0 - p);
    }
    actual.log_loss /= static_cast<double>(actual.scores.size());
  }

  if (sg::update_mode()) {
    sg::write_digest(name, actual);
    GTEST_SKIP() << "regenerated " << sg::golden_path(name);
  }

  sg::Digest expected;
  ASSERT_TRUE(sg::read_digest(name, expected))
      << "missing golden digest " << sg::golden_path(name)
      << " — run with STREAMBRAIN_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual.labels, expected.labels) << name << ": label drift";
  EXPECT_NEAR(actual.accuracy, expected.accuracy, 1e-9) << name;
  EXPECT_NEAR(actual.log_loss, expected.log_loss, 1e-7) << name;
  ASSERT_EQ(actual.scores.size(), expected.scores.size());
  for (std::size_t i = 0; i < actual.scores.size(); ++i) {
    EXPECT_NEAR(actual.scores[i], expected.scores[i], 1e-8)
        << name << ": score drift at row " << i;
  }
}

sc::Model make_bcpnn_head() { return make_shallow(sc::HeadType::kBcpnn); }
sc::Model make_sgd_head() { return make_shallow(sc::HeadType::kSgd); }

}  // namespace

TEST(DistributedGolden, BcpnnHeadMatchesCommittedDigest) {
  check_distributed_golden("distributed_bcpnn_head", make_bcpnn_head);
}

TEST(DistributedGolden, SgdHeadMatchesCommittedDigest) {
  check_distributed_golden("distributed_sgd_head", make_sgd_head);
}

// The shm and TCP backends must reproduce the SAME committed digests —
// the transport is invisible to the trained bits.

TEST(DistributedGolden, BcpnnHeadMatchesCommittedDigestOverShm) {
  check_distributed_golden("distributed_bcpnn_head", make_bcpnn_head,
                           {.backend = scomm::Backend::kShm});
}

TEST(DistributedGolden, SgdHeadMatchesCommittedDigestOverTcp) {
  check_distributed_golden("distributed_sgd_head", make_sgd_head,
                           {.backend = scomm::Backend::kTcp});
}

// Approximate mode (local updates, averaged every third batch) and the
// deep stack are deterministic per (ranks, options), so they are pinned
// too: the batch loop may change shape, never these bits.

TEST(DistributedGolden, BcpnnHeadCadence3MatchesCommittedDigest) {
  check_distributed_golden("distributed_bcpnn_head_cadence3", make_bcpnn_head,
                           {.sync_cadence = 3});
}

TEST(DistributedGolden, SgdHeadCadence3MatchesCommittedDigest) {
  check_distributed_golden("distributed_sgd_head_cadence3", make_sgd_head,
                           {.sync_cadence = 3});
}

TEST(DistributedGolden, DeepStackMatchesCommittedDigest) {
  check_distributed_golden("distributed_deep_stack", make_deep);
}

// --- fit_rank: the one-rank-per-process entry point -------------------------

TEST(Distributed, FitRankMatchesFitAndSynchronizesEveryRank) {
  // fit_rank is what sb_launch-launched processes call; driven here over
  // an in-test world it must land every rank on fit()'s exact bits.
  const FixtureData& data = fixture();
  sc::Model reference = make_shallow(sc::HeadType::kBcpnn);
  const auto report =
      sc::fit_distributed(reference, data.x_train, data.y_train, {.ranks = 2});
  const auto reference_state = state_vector(reference);

  std::vector<std::vector<float>> states(2);
  std::vector<std::size_t> syncs(2, 0);
  scomm::run_transport(scomm::Backend::kShm, 2, [&](scomm::Communicator& comm) {
    sc::Model model = make_shallow(sc::HeadType::kBcpnn);
    sc::DistributedTrainer trainer;  // ranks option ignored by fit_rank
    syncs[static_cast<std::size_t>(comm.rank())] =
        trainer.fit_rank(comm, model, data.x_train, data.y_train);
    states[static_cast<std::size_t>(comm.rank())] = state_vector(model);
  });
  EXPECT_EQ(states[0], reference_state);
  EXPECT_EQ(states[1], reference_state);  // rank-synchronized
  EXPECT_EQ(syncs[0], report.sync_count);
}

TEST(Distributed, FitRankValidatesInputs) {
  const FixtureData& data = fixture();
  scomm::run_transport(scomm::Backend::kInProcess, 1,
                       [&](scomm::Communicator& comm) {
                         sc::Model uncompiled;
                         uncompiled.input(28, 10).hidden(1, 8, 0.4);
                         sc::DistributedTrainer trainer;
                         EXPECT_THROW(trainer.fit_rank(comm, uncompiled,
                                                       data.x_train,
                                                       data.y_train),
                                      std::logic_error);
                       });
}

// --- Cadence (approximate) mode --------------------------------------------

TEST(Distributed, CadenceModeSyncsLessAndStaysDeterministic) {
  sc::DistributedOptions exact;
  exact.ranks = 2;
  const auto exact_snap =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), exact);

  sc::DistributedOptions relaxed = exact;
  relaxed.sync_cadence = 4;
  const auto first = train_snapshot(make_shallow(sc::HeadType::kBcpnn),
                                    relaxed);
  const auto second = train_snapshot(make_shallow(sc::HeadType::kBcpnn),
                                     relaxed);
  // Deterministic per (ranks, cadence): repeat runs are bit-identical.
  expect_bit_identical(first, second, "cadence repeatability");
  // And it actually reduces synchronization traffic.
  EXPECT_LT(first.report.sync_count, exact_snap.report.sync_count);
  EXPECT_LT(first.report.bytes_per_rank, exact_snap.report.bytes_per_rank);
}

TEST(Distributed, CadenceModeSgdHeadDeterministicAndKeepsMomentum) {
  sc::DistributedOptions relaxed;
  relaxed.ranks = 2;
  relaxed.sync_cadence = 3;
  const auto first = train_snapshot(make_shallow(sc::HeadType::kSgd), relaxed);
  const auto second =
      train_snapshot(make_shallow(sc::HeadType::kSgd), relaxed);
  expect_bit_identical(first, second, "sgd cadence repeatability");

  EXPECT_GT(first.report.sync_count, 0u);

  // The cadence sync path must not zero the momentum buffers (that's the
  // set_state contract, not set_parameters): after one real gradient
  // step, overwriting parameters and then applying a ZERO gradient must
  // still move the weights — pure retained velocity.
  sc::SgdHead head(4, 2);
  st::MatrixF grad(4, 2, 0.25f);
  std::vector<float> bias_grad(2, 0.25f);
  head.apply_gradient(grad, bias_grad);
  const st::MatrixF frozen = head.weights();
  head.set_parameters(frozen, head.bias());
  st::MatrixF zero_grad(4, 2, 0.0f);
  head.apply_gradient(zero_grad, {0.0f, 0.0f});
  EXPECT_NE(head.weights()(0, 0), frozen(0, 0))
      << "set_parameters must keep velocity; did a set_state sneak back in?";
}

TEST(Distributed, CadenceModeStillLearns) {
  const FixtureData& data = fixture();
  sc::Model model = make_shallow(sc::HeadType::kBcpnn);
  sc::fit_distributed(model, data.x_train, data.y_train,
                      {.ranks = 4, .sync_cadence = 2});
  EXPECT_GT(model.evaluate(data.x_train, data.y_train), 0.55);
}

// --- Reports & validation --------------------------------------------------

TEST(Distributed, ReportTotalBytesIsSumOfPerRankCounters) {
  // All trainer collectives are symmetric, so the true sum equals
  // ranks * bytes_per_rank here.
  const auto snap = train_snapshot(make_shallow(sc::HeadType::kBcpnn),
                                   {.ranks = 3});
  EXPECT_EQ(snap.report.total_bytes, snap.report.bytes_per_rank * 3);
  EXPECT_EQ(snap.report.ranks, 3);
  EXPECT_GT(snap.report.sync_count, 0u);
  EXPECT_GT(snap.report.bytes_per_rank, 0u);
}

TEST(Distributed, SingleRankSendsNothing) {
  const auto snap =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), {.ranks = 1});
  EXPECT_EQ(snap.report.bytes_per_rank, 0u);
  EXPECT_EQ(snap.report.total_bytes, 0u);
  EXPECT_GT(snap.report.sync_count, 0u);  // reductions still scheduled
}

TEST(Distributed, TrainedModelActuallyLearns) {
  const FixtureData& data = fixture();
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 24, 0.4)
      .classifier(2, sc::HeadType::kSgd)
      .set_option("epochs", 3)
      .set_option("head_epochs", 16)
      .set_option("batch_size", 32)
      .compile("simd", /*seed=*/11);
  sc::fit_distributed(model, data.x_train, data.y_train, {.ranks = 4});
  EXPECT_GT(model.evaluate(data.x_train, data.y_train), 0.6);
}

TEST(Distributed, CheckpointRoundTripAfterDistributedFit) {
  const FixtureData& data = fixture();
  sc::Model model = make_shallow(sc::HeadType::kBcpnn);
  sc::fit_distributed(model, data.x_train, data.y_train, {.ranks = 2});
  sc::Model clone = sc::clone_model(model);
  EXPECT_EQ(clone.predict(data.x_test), model.predict(data.x_test));
}

TEST(Distributed, ValidatesOptionsAndInputs) {
  EXPECT_THROW(sc::DistributedTrainer({.ranks = 0}), std::invalid_argument);
  EXPECT_THROW(sc::DistributedTrainer({.sync_cadence = 0}),
               std::invalid_argument);
  EXPECT_THROW(sc::DistributedTrainer({.virtual_shards = 0}),
               std::invalid_argument);

  const FixtureData& data = fixture();
  sc::Model uncompiled;
  uncompiled.input(28, 10).hidden(1, 8, 0.4);
  EXPECT_THROW(
      sc::fit_distributed(uncompiled, data.x_train, data.y_train, {}),
      std::logic_error);

  sc::Model model = make_shallow(sc::HeadType::kBcpnn);
  std::vector<int> short_labels(data.y_train.begin(),
                                data.y_train.end() - 1);
  EXPECT_THROW(sc::fit_distributed(model, data.x_train, short_labels, {}),
               std::invalid_argument);

  // The trainer replays no prune/rewire cadence, so fit() and fit_rank()
  // refuse a model compiled with one, naming the option, instead of
  // training a different model than Model::fit would.
  const auto expect_prune_refused = [](const std::function<void()>& train,
                                       const std::string& what) {
    try {
      train();
      ADD_FAILURE() << what << ": a prune cadence was silently dropped";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("prune_cadence"),
                std::string::npos)
          << what << ": " << error.what();
    }
  };
  for (const auto head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    sc::Model pruned;
    pruned.input(28, 10)
        .hidden(1, 20, 0.4)
        .classifier(2, head)
        .set_option("epochs", 2)
        .set_option("prune_density", 0.5)
        .set_option("prune_cadence", 1)
        .compile("simd", /*seed=*/11);
    const std::string what = head == sc::HeadType::kSgd ? "sgd" : "bcpnn";
    expect_prune_refused(
        [&] {
          sc::fit_distributed(pruned, data.x_train, data.y_train,
                              {.ranks = 2});
        },
        what + " fit");
    expect_prune_refused(
        [&] {
          scomm::run(1, [&](scomm::Communicator& comm) {
            sc::DistributedTrainer().fit_rank(comm, pruned, data.x_train,
                                              data.y_train);
          });
        },
        what + " fit_rank");
  }

  // Read-only inference forms are refused up front with Model::fit's
  // error, before replicas are cloned or a world is built — by fit() and
  // by fit_rank() alike.
  const auto expect_read_only = [](const std::function<void()>& train,
                                   const std::string& what) {
    try {
      train();
      ADD_FAILURE() << what << ": a read-only form was trained";
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string(error.what()).find("read-only"),
                std::string::npos)
          << what << ": " << error.what();
    }
  };
  for (const auto head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    const sc::Model dense = make_shallow(head);
    sc::Model quantized = dense.quantize();
    sc::Model sparse = dense.sparsify();
    for (sc::Model* frozen : {&quantized, &sparse}) {
      const std::string what =
          std::string(head == sc::HeadType::kSgd ? "sgd" : "bcpnn") +
          (frozen == &sparse ? " sparsify" : " quantize");
      expect_read_only(
          [&] {
            sc::fit_distributed(*frozen, data.x_train, data.y_train,
                                {.ranks = 2});
          },
          what + " fit");
      expect_read_only(
          [&] {
            scomm::run(1, [&](scomm::Communicator& comm) {
              sc::DistributedTrainer().fit_rank(comm, *frozen, data.x_train,
                                                data.y_train);
            });
          },
          what + " fit_rank");
    }
  }
}
